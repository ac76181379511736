//! The engine abstraction the service batches onto, plus the eBNN and
//! YOLO implementations over their persistent batch-slicing engines.

use crate::pipeline::PipelineMode;
use crate::traffic::splitmix64;
use dpu_sim::EnginePaths;
use ebnn::codegen::Tier1Engine;
use ebnn::model::EbnnModel;
use pim_host::{HostError, LaunchReport, LaunchResult, ResilientLaunchPolicy, ServeHealth};
use yolo_pim::codegen::RowEngine;
use yolo_pim::gemm::GemmDims;

/// Per-item gathered results (`None` = lost item) plus bytes read on
/// the host link.
pub type Gathered<O> = (Vec<Option<O>>, u64);

/// What one launch did, in the units the scheduler needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRun {
    /// DPU compute makespan in simulated cycles.
    pub compute_cycles: u64,
    /// Items recomputed on a survivor after their home DPU quarantined.
    pub redispatched_items: usize,
    /// Items lost outright (quarantined, not redispatched) — their
    /// requests complete degraded.
    pub lost_items: usize,
    /// DPUs quarantined during this launch (circuit-breaker telemetry).
    pub quarantined_dpus: Vec<u32>,
    /// DPUs that served healthy-after-repair: retries consumed or
    /// single-bit errors corrected by ECC scrub / DMA verify-on-read.
    pub repaired_dpus: Vec<u32>,
    /// DPUs that had items staged this batch (probation probes are
    /// confirmed only by batches that actually landed work).
    pub active_dpus: Vec<u32>,
}

impl BatchRun {
    /// A clean, fully-healthy run over the given active DPUs.
    #[must_use]
    pub fn clean(compute_cycles: u64, active_dpus: Vec<u32>) -> Self {
        Self {
            compute_cycles,
            redispatched_items: 0,
            lost_items: 0,
            quarantined_dpus: Vec::new(),
            repaired_dpus: Vec::new(),
            active_dpus,
        }
    }
}

/// A persistent rank-batch executor the serving loop drives: stage items
/// into one of `buffers()` MRAM buffers, launch, gather. Implementations
/// own the fault policy (deriving a fresh per-batch fault seed) and the
/// golden-snapshot recovery story behind [`BatchEngine::dirty`].
pub trait BatchEngine {
    /// One staged work item (an encoded eBNN image slot, a GEMM row).
    type Item;
    /// One gathered result.
    type Output;

    /// Items one batch can hold.
    fn capacity(&self) -> usize;
    /// DPUs in the serving set.
    fn dpus(&self) -> usize;
    /// MRAM buffer pairs (2 enables the double-buffered schedule).
    fn buffers(&self) -> usize;

    /// Stage `items` into buffer `buf`; returns bytes written on the host
    /// link.
    ///
    /// # Errors
    /// Host-runtime failures.
    fn stage(&mut self, items: &[Self::Item], buf: usize) -> Result<u64, HostError>;

    /// Restrict staging to the DPUs marked live — the circuit breaker's
    /// ejection hook. Engines that cannot mask their staging ignore the
    /// hint (the default does nothing).
    fn set_live_mask(&mut self, live: &[bool]) {
        let _ = live;
    }

    /// Launch the last-staged buffer's batch; `seq` is the batch sequence
    /// number (mixed into the fault seed so each batch draws fresh
    /// faults).
    ///
    /// # Errors
    /// Host-runtime failures (injected faults degrade, they don't error).
    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError>;

    /// Gather buffer `buf`'s results in staging order (`None` = lost
    /// item), plus bytes read on the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    fn gather(&mut self, buf: usize) -> Result<Gathered<Self::Output>, HostError>;

    /// Whether a fault-armed launch left quarantined DPUs' MRAM dirty —
    /// the service restores the golden snapshot before the next staging.
    fn dirty(&self) -> bool;

    /// Restore the pristine weights-loaded state (forgets staged
    /// batches; the service flushes pending readbacks first).
    ///
    /// # Errors
    /// Host-runtime failures.
    fn restore(&mut self) -> Result<(), HostError>;

    /// Profile-guided warmup: recompile hot superblocks from a profiling
    /// replay and pin the compiled engine. Returns hot-block count.
    ///
    /// # Errors
    /// Simulator faults during the replay.
    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError>;
}

/// Fold a launch's per-DPU engine paths into `paths`.
fn add_paths(paths: &mut EnginePaths, result: &LaunchResult) {
    for r in &result.per_dpu {
        paths.accumulate(&r.paths);
    }
}

/// [`add_paths`] over the DPUs a resilient launch served.
fn add_report_paths(paths: &mut EnginePaths, report: &LaunchReport) {
    for r in report.per_dpu.iter().filter_map(|d| d.result.as_ref()) {
        paths.accumulate(&r.paths);
    }
}

/// Derive a per-batch policy: same retry/backoff knobs, fault seed mixed
/// with the batch sequence so each batch draws a fresh (but still fully
/// deterministic) fault pattern.
fn per_batch_policy(base: &ResilientLaunchPolicy, seq: u64) -> ResilientLaunchPolicy {
    let mut p = base.clone();
    if let Some(plan) = &p.faults {
        let cfg = plan.config().clone();
        let mixed = dpu_sim::FaultConfig { seed: splitmix64(cfg.seed ^ seq), ..cfg };
        p.faults = Some(dpu_sim::FaultPlan::new(mixed));
    }
    p
}

/// eBNN tier-1 serving engine: items are 128-byte encoded image slots
/// (see [`ebnn::codegen::encode_slot`]), outputs are per-image feature
/// bytes. Double-buffered when built with [`PipelineMode::Double`].
pub struct EbnnServeEngine {
    inner: Tier1Engine,
    policy: Option<ResilientLaunchPolicy>,
    /// Per-buffer per-chunk served mask from the last launch into it.
    served: Vec<Option<Vec<bool>>>,
    active: usize,
    dirty: bool,
    /// Circuit-breaker liveness: staging skips DPUs marked dead.
    live: Vec<bool>,
    /// Engine paths of every launch so far.
    paths: EnginePaths,
}

impl EbnnServeEngine {
    /// Build over `dpus` DPUs; `policy` arms fault-tolerant launches.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// See [`Tier1Engine::with_buffers`].
    pub fn new(
        model: &EbnnModel,
        dpus: usize,
        pipeline: PipelineMode,
        policy: Option<ResilientLaunchPolicy>,
    ) -> Result<Self, HostError> {
        let buffers = match pipeline {
            PipelineMode::Double => 2,
            PipelineMode::Serial => 1,
        };
        let inner = Tier1Engine::with_buffers(model, dpus, buffers, false)?;
        let served = vec![None; buffers];
        Ok(Self {
            inner,
            policy,
            served,
            active: 0,
            dirty: false,
            live: vec![true; dpus],
            paths: EnginePaths::default(),
        })
    }

    /// The wrapped batch-slicing engine.
    #[must_use]
    pub fn inner(&self) -> &Tier1Engine {
        &self.inner
    }

    /// Mutable access to the wrapped engine (post-run integrity audits:
    /// a final scrub of the serving set).
    pub fn inner_mut(&mut self) -> &mut Tier1Engine {
        &mut self.inner
    }

    /// How the simulator retired the issue slots of every launch this
    /// engine made, summed over DPUs (see [`EnginePaths`]).
    #[must_use]
    pub fn engine_paths(&self) -> EnginePaths {
        self.paths
    }

    /// Arm (or disarm) the SEC-DED MRAM sidecar on the serving set —
    /// delegates to [`Tier1Engine::enable_ecc`], which also refreshes
    /// the golden snapshot so mid-run restores keep the setting.
    pub fn enable_ecc(&mut self, on: bool) {
        self.inner.enable_ecc(on);
    }
}

impl BatchEngine for EbnnServeEngine {
    type Item = Vec<u8>;
    type Output = Vec<u8>;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.dpus()
    }

    fn buffers(&self) -> usize {
        self.inner.buffers()
    }

    fn stage(&mut self, items: &[Vec<u8>], buf: usize) -> Result<u64, HostError> {
        self.active = buf;
        self.served[buf] = None;
        self.inner.stage_encoded_live(items, buf, &self.live)
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        assert_eq!(live.len(), self.live.len(), "mask must cover every DPU");
        self.live.copy_from_slice(live);
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let chunks =
            self.inner.staged_chunks(self.active).expect("launch without staging").to_vec();
        let active_dpus: Vec<u32> = (0..chunks.len())
            .filter(|&d| chunks[d] > 0)
            .map(|d| u32::try_from(d).expect("dpu index fits"))
            .collect();
        match &self.policy {
            None => {
                let r = self.inner.launch()?;
                add_paths(&mut self.paths, &r);
                self.served[self.active] = Some(vec![true; chunks.len()]);
                Ok(BatchRun::clean(r.makespan_cycles(), active_dpus))
            }
            Some(base) => {
                let pol = per_batch_policy(base, seq);
                let rep = self.inner.launch_resilient(&pol)?;
                add_report_paths(&mut self.paths, &rep);
                let mask: Vec<bool> =
                    (0..chunks.len()).map(|d| rep.per_dpu[d].result.is_some()).collect();
                let redispatched_items: usize = rep
                    .degraded
                    .iter()
                    .map(|d| chunks.get(d.from.0 as usize).copied().unwrap_or(0))
                    .sum();
                let lost_items: usize =
                    mask.iter().zip(&chunks).filter_map(|(ok, &len)| (!ok).then_some(len)).sum();
                self.dirty |= !rep.quarantined.is_empty();
                self.served[self.active] = Some(mask);
                Ok(BatchRun {
                    compute_cycles: rep.makespan_cycles(),
                    redispatched_items,
                    lost_items,
                    quarantined_dpus: rep.quarantined.iter().map(|d| d.0).collect(),
                    repaired_dpus: (0..rep.per_dpu.len())
                        .filter(|&d| rep.per_dpu[d].health() == ServeHealth::HealthyAfterRepair)
                        .map(|d| u32::try_from(d).expect("dpu index fits"))
                        .collect(),
                    active_dpus,
                })
            }
        }
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<Vec<u8>>, HostError> {
        let chunks = self.inner.staged_chunks(buf).expect("gather without staging").to_vec();
        let mask = self.served[buf].clone().unwrap_or_else(|| vec![true; chunks.len()]);
        let (all, bytes) = self.inner.gather(buf)?;
        let mut out = Vec::with_capacity(all.len());
        let mut it = all.into_iter();
        for (d, &len) in chunks.iter().enumerate() {
            for _ in 0..len {
                let f = it.next().expect("gather matches staged chunks");
                out.push(mask[d].then_some(f));
            }
        }
        Ok((out, bytes))
    }

    fn dirty(&self) -> bool {
        self.dirty
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.inner.restore_golden()?;
        for s in &mut self.served {
            *s = None;
        }
        self.dirty = false;
        Ok(())
    }

    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        self.inner.recompile_hot(min_entries)
    }
}

/// YOLO row-GEMM serving engine: items are `A` rows (`k` values each),
/// outputs are `C` rows (`n` values each). Single-buffered — the GEMM
/// program bakes its MRAM bases — so the service schedules it serially.
pub struct YoloServeEngine {
    inner: RowEngine,
    policy: Option<ResilientLaunchPolicy>,
    served: Option<Vec<bool>>,
    dirty: bool,
    /// Engine paths of every launch so far.
    paths: EnginePaths,
}

impl YoloServeEngine {
    /// Build over `dpus` DPUs computing rows against the broadcast `b`.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// See [`RowEngine::new`].
    pub fn new(
        dims: GemmDims,
        alpha: i32,
        b: &[i16],
        dpus: usize,
        tasklets: usize,
        policy: Option<ResilientLaunchPolicy>,
    ) -> Result<Self, HostError> {
        let inner = RowEngine::new(dims, alpha, b, dpus, tasklets)?;
        Ok(Self { inner, policy, served: None, dirty: false, paths: EnginePaths::default() })
    }

    /// The wrapped batch-slicing engine.
    #[must_use]
    pub fn inner(&self) -> &RowEngine {
        &self.inner
    }

    /// How the simulator retired the issue slots of every launch this
    /// engine made, summed over DPUs (see [`EnginePaths`]).
    #[must_use]
    pub fn engine_paths(&self) -> EnginePaths {
        self.paths
    }
}

impl BatchEngine for YoloServeEngine {
    type Item = Vec<i16>;
    type Output = Vec<i16>;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.capacity()
    }

    fn buffers(&self) -> usize {
        1
    }

    fn stage(&mut self, items: &[Vec<i16>], buf: usize) -> Result<u64, HostError> {
        assert_eq!(buf, 0, "row engine is single-buffered");
        self.served = None;
        let k = self.inner.dims().k;
        let mut flat = Vec::with_capacity(items.len() * k);
        for row in items {
            assert_eq!(row.len(), k, "row length must be k");
            flat.extend_from_slice(row);
        }
        self.inner.stage(&flat)
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let n_rows = self.inner.staged_rows();
        let active_dpus: Vec<u32> =
            (0..n_rows).map(|d| u32::try_from(d).expect("row index fits")).collect();
        match &self.policy {
            None => {
                let r = self.inner.launch()?;
                add_paths(&mut self.paths, &r);
                self.served = Some(vec![true; n_rows]);
                Ok(BatchRun::clean(r.makespan_cycles(), active_dpus))
            }
            Some(base) => {
                let pol = per_batch_policy(base, seq);
                let rep = self.inner.launch_resilient(&pol)?;
                add_report_paths(&mut self.paths, &rep);
                let mask: Vec<bool> =
                    (0..n_rows).map(|d| rep.per_dpu[d].result.is_some()).collect();
                let redispatched_items =
                    rep.degraded.iter().filter(|d| (d.from.0 as usize) < n_rows).count();
                let lost_items = mask.iter().filter(|ok| !**ok).count();
                self.dirty |= !rep.quarantined.is_empty();
                self.served = Some(mask);
                Ok(BatchRun {
                    compute_cycles: rep.makespan_cycles(),
                    redispatched_items,
                    lost_items,
                    quarantined_dpus: rep.quarantined.iter().map(|d| d.0).collect(),
                    repaired_dpus: (0..rep.per_dpu.len())
                        .filter(|&d| rep.per_dpu[d].health() == ServeHealth::HealthyAfterRepair)
                        .map(|d| u32::try_from(d).expect("dpu index fits"))
                        .collect(),
                    active_dpus,
                })
            }
        }
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<Vec<i16>>, HostError> {
        assert_eq!(buf, 0, "row engine is single-buffered");
        let n = self.inner.dims().n;
        let n_rows = self.inner.staged_rows();
        let mask = self.served.clone().unwrap_or_else(|| vec![true; n_rows]);
        let (flat, bytes) = self.inner.gather()?;
        let out = (0..n_rows).map(|i| mask[i].then(|| flat[i * n..(i + 1) * n].to_vec())).collect();
        Ok((out, bytes))
    }

    fn dirty(&self) -> bool {
        self.dirty
    }

    fn restore(&mut self) -> Result<(), HostError> {
        self.inner.restore_golden()?;
        self.served = None;
        self.dirty = false;
        Ok(())
    }

    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        self.inner.recompile_hot(min_entries)
    }
}
