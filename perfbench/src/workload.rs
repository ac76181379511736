//! The three workloads: their shapes, their seeded inputs, the engines
//! they serve through, and one served round with its output check.
//!
//! A run serves `K` distinct traffic traces of `requests` requests each,
//! one per round, each on a freshly set-up engine. Trace `i` of run seed
//! `s` is generated from [`trace_seed`]`(s, i)` alone. Traffic is open
//! loop in simulated time: arrivals follow a seeded schedule of simulated
//! cycles, so the generator can never run late in host time, and every
//! simulated-time figure of a round is a pure function of its trace seed.

use crate::spans::SpanLog;
use crate::stats::digest;
use crate::timed::{CallLog, Timed};
use ebnn::codegen::{encode_slot, Tier1Engine};
use ebnn::mnist::GrayImage;
use ebnn::model::{EbnnModel, ModelConfig};
use pim_host::{DpuSet, HostError, LaunchResult, ResilientLaunchPolicy};
use pim_serve::{
    serve, splitmix64, BatchEngine, BreakerConfig, EbnnServeEngine, OpenLoop, PipelineMode, Rng64,
    ServeConfig, YoloServeEngine,
};
use pim_trace::MetricsRegistry;
use std::cell::RefCell;
use std::time::Instant;
use yolo_pim::codegen::RowEngine;
use yolo_pim::gemm::{gemm_row, GemmDims};

/// Distinct items each workload draws its requests from.
const POOL_ITEMS: usize = 64;
/// YOLO row GEMM shape (`m` is unused: the batch is one row per DPU).
const YOLO_DIMS: GemmDims = GemmDims { m: 0, n: 64, k: 32 };
const YOLO_ALPHA: i32 = 1;
const YOLO_TASKLETS: usize = 8;
/// eBNN images per DPU (one per tasklet).
const EBNN_IMAGES_PER_DPU: usize = 16;

/// Which of the paper's kernels a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// eBNN tier-1 conv-pool block, one filter (§4.1).
    Ebnn,
    /// YOLOv3 GEMM row kernel (Alg. 2, Fig. 4.6).
    Yolo,
}

/// A workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Kernel served.
    pub kernel: KernelKind,
    /// DPUs in the serving set.
    pub dpus: usize,
    /// Requests in one trace (one round).
    pub requests: u64,
    /// Nominal host seconds one trace takes on the 2-core reference box;
    /// `--seconds` buys `⌊seconds / trace_secs⌋` traces (at least one).
    pub trace_secs: f64,
    /// Mean inter-arrival gap, simulated cycles.
    pub mean_gap: u64,
    /// Items per request, inclusive range.
    pub items: (u64, u64),
    /// Serving pipeline.
    pub pipeline: PipelineMode,
    /// ECC on, seeded mixed fault campaign, circuit breaker.
    pub chaos: bool,
}

impl Shape {
    /// The named workload's shape; `smoke` shrinks it to a few batches
    /// on a few DPUs.
    #[must_use]
    pub fn named(name: &str, smoke: bool) -> Option<Self> {
        let s = match name {
            "ebnn_serve" => Shape {
                name: "ebnn_serve",
                kernel: KernelKind::Ebnn,
                dpus: 8,
                requests: 500,
                trace_secs: 0.6,
                mean_gap: 20_000,
                items: (1, 4),
                pipeline: PipelineMode::Double,
                chaos: false,
            },
            "yolo_row_serve" => Shape {
                name: "yolo_row_serve",
                kernel: KernelKind::Yolo,
                dpus: 64,
                requests: 50,
                trace_secs: 2.0,
                mean_gap: 100_000,
                items: (1, 16),
                pipeline: PipelineMode::Serial,
                chaos: false,
            },
            "ebnn_chaos_serve" => Shape {
                name: "ebnn_chaos_serve",
                kernel: KernelKind::Ebnn,
                dpus: 8,
                requests: 250,
                trace_secs: 1.2,
                mean_gap: 100_000,
                items: (1, 4),
                pipeline: PipelineMode::Double,
                chaos: true,
            },
            _ => return None,
        };
        Some(if smoke {
            Shape {
                dpus: if s.kernel == KernelKind::Yolo { 4 } else { 2 },
                requests: if s.kernel == KernelKind::Yolo { 6 } else { 24 },
                ..s
            }
        } else {
            s
        })
    }

    /// Traces a measurement of `seconds` serves (at least one).
    #[must_use]
    pub fn traces(&self, seconds: f64) -> usize {
        ((seconds / self.trace_secs).floor() as usize).max(1)
    }

    /// The serving configuration: loadgen's defaults (queue depth 64,
    /// batch delay 500k cycles), with the breaker at `rank_dpus = dpus/4`
    /// for chaos. Environment overrides are never applied.
    #[must_use]
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch_delay: 500_000,
            pipeline: self.pipeline,
            pgo_warmup_batches: None,
            record_outputs: true,
            breaker: self
                .chaos
                .then(|| BreakerConfig { rank_dpus: (self.dpus / 4).max(1), ..Default::default() }),
            ..ServeConfig::default()
        }
    }

    /// The `loadgen --chaos` fault campaign for trace `trace`. Campaign
    /// `i` is the same in every run (derived from loadgen's default fault
    /// seed and the trace index, not the run seed), so runs differ only in
    /// the traffic and items they serve into it.
    #[must_use]
    pub fn policy(&self, trace: usize) -> Option<ResilientLaunchPolicy> {
        self.chaos.then(|| {
            ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(dpu_sim::FaultConfig {
                seed: splitmix64(0xF0CA ^ trace as u64),
                dpu_offline_prob: 0.04,
                dma_fail_prob: 0.08,
                bit_flip_prob: 0.08,
                double_flip_prob: 0.04,
                hang_prob: 0.04,
                forced_offline: Vec::new(),
            }))
        })
    }
}

/// Seed of trace `i` of a run seeded with `seed`: arrivals, request
/// sizes and item picks.
#[must_use]
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A workload's seeded inputs: the model (or `B` matrix) and the item pool
/// requests draw from.
pub enum Fixture {
    /// eBNN: the model and the raw images plus their encoded slots.
    Ebnn {
        /// The served model.
        model: EbnnModel,
        /// Raw pool images (for the host reference).
        images: Vec<GrayImage>,
        /// Encoded 128-byte slots (the served items).
        slots: Vec<Vec<u8>>,
    },
    /// YOLO: the broadcast `B` matrix and the pool of `A` rows.
    Yolo {
        /// `k × n` weights, row-major.
        b: Vec<i16>,
        /// Pool of `A` rows, `k` values each.
        rows: Vec<Vec<i16>>,
    },
}

impl Fixture {
    /// Generate the model and encode the item pool for `seed` (part of
    /// set-up time).
    #[must_use]
    pub fn generate(shape: &Shape, seed: u64) -> Self {
        match shape.kernel {
            KernelKind::Ebnn => {
                let model =
                    EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
                let images: Vec<GrayImage> = (0..POOL_ITEMS as u64)
                    .map(|i| ebnn::mnist::synth_digit((i % 10) as usize, seed ^ (i / 10)))
                    .collect();
                let slots = images.iter().map(|g| encode_slot(&model, g)).collect();
                Fixture::Ebnn { model, images, slots }
            }
            KernelKind::Yolo => {
                let mut rng = Rng64::new(splitmix64(seed ^ 0xB));
                let mut val = move || rng.range(0, 255) as i16 - 128;
                let b = (0..YOLO_DIMS.k * YOLO_DIMS.n).map(|_| val()).collect();
                let rows =
                    (0..POOL_ITEMS).map(|_| (0..YOLO_DIMS.k).map(|_| val()).collect()).collect();
                Fixture::Yolo { b, rows }
            }
        }
    }

    /// A kernel-probe engine over the same inputs: the bare
    /// `Tier1Engine`/`RowEngine` the serving adapter wraps.
    ///
    /// # Errors
    /// Host-runtime failures while building the engine.
    pub fn kernel(&self, shape: &Shape) -> Result<Kernel, HostError> {
        let mut k = match self {
            Fixture::Ebnn { model, slots, .. } => {
                Kernel::Ebnn { engine: Tier1Engine::new(model, shape.dpus)?, slots: slots.clone() }
            }
            Fixture::Yolo { b, rows } => Kernel::Yolo {
                engine: RowEngine::new(YOLO_DIMS, YOLO_ALPHA, b, shape.dpus, YOLO_TASKLETS)?,
                rows: rows.clone(),
            },
        };
        k.enable_ecc(shape.chaos);
        Ok(k)
    }
}

/// A freshly set-up serving engine with the item pool it serves from.
enum Served {
    Ebnn(EbnnServeEngine, Vec<Vec<u8>>),
    Yolo(YoloServeEngine, Vec<Vec<i16>>),
}

/// Set up for trace `trace`: model generation, item-pool encoding, engine
/// allocation, broadcast, program load, golden snapshot, ECC arming.
/// Returns the engine and the set-up wall in nanoseconds.
fn set_up(shape: &Shape, seed: u64, trace: usize) -> Result<(Served, u64), HostError> {
    let t0 = Instant::now();
    let policy = shape.policy(trace);
    let served = match Fixture::generate(shape, seed) {
        Fixture::Ebnn { model, slots, .. } => {
            let mut engine = EbnnServeEngine::new(&model, shape.dpus, shape.pipeline, policy)?;
            if shape.chaos {
                engine.enable_ecc(true);
            }
            Served::Ebnn(engine, slots)
        }
        Fixture::Yolo { b, rows } => {
            let dims = YOLO_DIMS;
            let engine =
                YoloServeEngine::new(dims, YOLO_ALPHA, &b, shape.dpus, YOLO_TASKLETS, policy)?;
            Served::Yolo(engine, rows)
        }
    };
    Ok((served, elapsed_ns(t0)))
}

/// Time one set-up without serving, in nanoseconds.
///
/// # Errors
/// Host-runtime failures.
pub fn setup_only(shape: &Shape, seed: u64) -> Result<u64, HostError> {
    set_up(shape, seed, 0).map(|(_, ns)| ns)
}

/// Set up afresh (timed) and serve trace `trace` on the new engine,
/// checking every output against `expected`.
///
/// # Errors
/// Host-runtime failures or a broken output accounting.
pub fn setup_and_serve(
    shape: &Shape,
    seed: u64,
    trace: usize,
    expected: &Expected,
    spans: Option<&mut SpanLog>,
) -> Result<Round, String> {
    let (served, setup_ns) = set_up(shape, seed, trace).map_err(|e| e.to_string())?;
    let tseed = trace_seed(seed, trace);
    match (served, expected) {
        (Served::Ebnn(engine, pool), Expected::Ebnn(want)) => {
            serve_round(engine, &pool, want, shape, tseed, spans, trace, setup_ns)
        }
        (Served::Yolo(engine, pool), Expected::Yolo(want)) => {
            serve_round(engine, &pool, want, shape, tseed, spans, trace, setup_ns)
        }
        _ => unreachable!("the reference outputs come from the same workload"),
    }
}

/// Host-reference outputs for every pool item.
pub enum Expected {
    /// `EbnnModel::features` of each binarized pool image.
    Ebnn(Vec<Vec<u8>>),
    /// `gemm_row` of each pool row against `B`.
    Yolo(Vec<Vec<i16>>),
}

impl Expected {
    /// Compute the reference outputs for `fixture` on the host.
    #[must_use]
    pub fn of(fixture: &Fixture) -> Self {
        match fixture {
            Fixture::Ebnn { model, images, .. } => Expected::Ebnn(
                images.iter().map(|g| model.features(&model.binarize(&g.pixels))).collect(),
            ),
            Fixture::Yolo { b, rows } => Expected::Yolo(
                rows.iter()
                    .map(|a| {
                        let mut c = vec![0i16; YOLO_DIMS.n];
                        gemm_row(YOLO_DIMS, YOLO_ALPHA, a, b, &mut c);
                        c
                    })
                    .collect(),
            ),
        }
    }
}

/// What one served round produced.
#[derive(Debug)]
pub struct Round {
    /// Trace index served.
    pub trace: usize,
    /// Set-up wall of this round's engine, nanoseconds.
    pub setup_ns: u64,
    /// `serve()` wall, nanoseconds.
    pub wall_ns: u64,
    /// Engine-adapter call times.
    pub calls: CallLog,
    /// Requests sent.
    pub requests: u64,
    /// Requests completed as served with every output matching the host
    /// reference.
    pub ok: u64,
    /// Requests with at least one output differing from the reference.
    pub mismatched: u64,
    /// Every request was either completed or rejected.
    pub accounted: bool,
    /// Simulated cycle of the last readback (arrivals start at cycle 0).
    pub vtime_cycles: u64,
    /// The run's `serve.*` metrics.
    pub metrics: MetricsRegistry,
    /// Digest of every simulated-time figure and count of the round.
    pub fingerprint: String,
}

#[allow(clippy::too_many_arguments)]
fn serve_round<E>(
    engine: E,
    pool: &[E::Item],
    expected: &[E::Output],
    shape: &Shape,
    seed: u64,
    spans: Option<&mut SpanLog>,
    trace: usize,
    setup_ns: u64,
) -> Result<Round, String>
where
    E: BatchEngine,
    E::Item: Clone,
    E::Output: Clone + PartialEq,
{
    let picks: RefCell<Vec<Vec<usize>>> = RefCell::new(Vec::new());
    let (lo, hi) = shape.items;
    let gen = |rng: &mut Rng64, _id: u64| -> Vec<E::Item> {
        let n = rng.range(lo, hi) as usize;
        let idx: Vec<usize> =
            (0..n).map(|_| rng.range(0, pool.len() as u64 - 1) as usize).collect();
        let items = idx.iter().map(|&i| pool[i].clone()).collect();
        picks.borrow_mut().push(idx);
        items
    };
    let mut traffic = OpenLoop::new(seed, shape.requests, shape.mean_gap, gen);
    let cfg = shape.serve_config();
    let traced = spans.map(|log| {
        let id = log.open("serve.round", None, trace as u64);
        (log, id)
    });
    let mut timed = Timed::new(engine, traced);
    let t0 = Instant::now();
    let report = serve(&mut timed, &mut traffic, &cfg).map_err(|e| e.to_string())?;
    let wall_ns = elapsed_ns(t0);
    let (calls, traced) = timed.into_parts();
    if let Some((log, id)) = traced {
        log.close(id);
    }

    let picks = picks.into_inner();
    let mut outputs: Vec<Option<&Vec<Option<E::Output>>>> = vec![None; picks.len()];
    for (id, outs) in &report.outputs {
        outputs[*id as usize] = Some(outs);
    }
    let mut mismatched = 0u64;
    let mut ok = 0u64;
    for c in &report.completions {
        let outs = outputs[c.id as usize].ok_or("completed request has no recorded outputs")?;
        let want = &picks[c.id as usize];
        let matches = outs.len() == want.len()
            && outs.iter().zip(want).all(|(o, &i)| o.as_ref().is_none_or(|o| *o == expected[i]));
        if !matches {
            mismatched += 1;
        } else if c.served && outs.iter().all(Option::is_some) {
            ok += 1;
        }
    }
    let requests = picks.len() as u64;
    let accounted = (report.completions.len() + report.rejections.len()) as u64 == requests;
    let body = format!(
        "{} ok={ok} mismatched={mismatched} requests={requests}",
        serde_json::to_string(&report.metrics.to_json()).map_err(|e| e.to_string())?
    );
    Ok(Round {
        trace,
        setup_ns,
        wall_ns,
        calls,
        requests,
        ok,
        mismatched,
        accounted,
        vtime_cycles: report.vtime_cycles,
        fingerprint: digest(body.as_bytes()),
        metrics: report.metrics,
    })
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A bare kernel engine for the probes: the same program and inputs the
/// serving adapter uses, driven through the public `Tier1Engine` /
/// `RowEngine` calls.
pub enum Kernel {
    /// eBNN tier-1 engine with the encoded pool.
    Ebnn {
        /// The engine.
        engine: Tier1Engine,
        /// Encoded pool slots.
        slots: Vec<Vec<u8>>,
    },
    /// YOLO row engine with the `A` row pool.
    Yolo {
        /// The engine.
        engine: RowEngine,
        /// Pool of `A` rows.
        rows: Vec<Vec<i16>>,
    },
}

impl Kernel {
    /// Items a full-capacity batch holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self {
            Kernel::Ebnn { engine, .. } => engine.capacity(),
            Kernel::Yolo { engine, .. } => engine.capacity(),
        }
    }

    /// Stage the first `n` pool items (cycling through the pool).
    ///
    /// # Errors
    /// Host-runtime failures.
    pub fn stage(&mut self, n: usize) -> Result<(), HostError> {
        match self {
            Kernel::Ebnn { engine, slots } => {
                let batch: Vec<Vec<u8>> = (0..n).map(|i| slots[i % slots.len()].clone()).collect();
                engine.stage_encoded(&batch, 0).map(drop)
            }
            Kernel::Yolo { engine, rows } => {
                let flat: Vec<i16> = (0..n).flat_map(|i| rows[i % rows.len()].clone()).collect();
                engine.stage(&flat).map(drop)
            }
        }
    }

    /// Launch the staged batch.
    ///
    /// # Errors
    /// The first DPU fault.
    pub fn launch(&mut self) -> Result<LaunchResult, HostError> {
        match self {
            Kernel::Ebnn { engine, .. } => engine.launch(),
            Kernel::Yolo { engine, .. } => engine.launch(),
        }
    }

    /// DPUs that hold work in an `n`-item batch (the rest idle).
    #[must_use]
    pub fn active_dpus(&self, n: usize) -> usize {
        match self {
            Kernel::Ebnn { .. } => n.div_ceil(EBNN_IMAGES_PER_DPU),
            Kernel::Yolo { .. } => n,
        }
    }

    /// Tasklets a launch of an `n`-item batch runs with.
    #[must_use]
    pub fn tasklets(&self, n: usize) -> usize {
        match self {
            Kernel::Ebnn { .. } => n.clamp(1, EBNN_IMAGES_PER_DPU),
            Kernel::Yolo { .. } => YOLO_TASKLETS,
        }
    }

    /// The underlying DPU set.
    pub fn set_mut(&mut self) -> &mut DpuSet {
        match self {
            Kernel::Ebnn { engine, .. } => engine.set_mut(),
            Kernel::Yolo { engine, .. } => engine.set_mut(),
        }
    }

    /// Arm or disarm the MRAM ECC sidecar.
    pub fn enable_ecc(&mut self, on: bool) {
        match self {
            Kernel::Ebnn { engine, .. } => engine.enable_ecc(on),
            Kernel::Yolo { engine, .. } => engine.set_mut().enable_ecc(on),
        }
    }
}
