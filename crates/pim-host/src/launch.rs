//! Launching Tier-1 programs on a DPU set.
//!
//! `dpu_launch` runs the loaded program on every DPU of a set; the DPUs
//! execute independently and the host synchronizes on completion (paper
//! §3.1: SIMD across DPUs, SIMT across tasklets). The simulator runs the
//! per-DPU interpreters on host threads (they share nothing), then reports
//! per-DPU statistics plus the set-level figures the paper quotes: the
//! *makespan* (slowest DPU — the batch completes "at the max time for one
//! DPU", §4.1.3) and a merged subroutine profile.

use crate::error::{HostError, Result};
use crate::pool::WorkerPool;
use crate::set::DpuSet;
use dpu_sim::{Engine, ExecProgram, PimSystem, Profiler, Program, RunResult};
use pim_trace::{MetricsRegistry, TraceBuffer};
use std::sync::Mutex;

/// Results of one launch across a DPU set.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Per-DPU run results, in DPU order.
    pub per_dpu: Vec<RunResult>,
    /// Tasklets the program ran with.
    pub tasklets: usize,
}

impl LaunchResult {
    /// Cycles until the slowest DPU finished (the set's completion time —
    /// all DPUs run concurrently).
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.per_dpu.iter().map(|r| r.cycles).max().unwrap_or(0)
    }

    /// Completion time in seconds for the given device parameters.
    #[must_use]
    pub fn makespan_seconds(&self, params: &dpu_sim::DpuParams) -> f64 {
        params.cycles_to_seconds(self.makespan_cycles())
    }

    /// Total instructions issued across all DPUs.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.per_dpu.iter().map(|r| r.instructions).sum()
    }

    /// Merged subroutine profile of all DPUs.
    #[must_use]
    pub fn merged_profile(&self) -> Profiler {
        let mut p = Profiler::new();
        for r in &self.per_dpu {
            p.merge(&r.profile);
        }
        p
    }

    /// Snapshot this launch into a [`MetricsRegistry`]: set-level counters
    /// (instructions, DMA traffic), gauges (makespan, IPC, shape) and
    /// per-DPU/per-tasklet distributions (cycles, instructions, tasklet
    /// occupancy — the load-balance picture behind Fig. 4.7(a)).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("launch.instructions", self.total_instructions());
        m.counter_add("launch.dma.bytes", self.per_dpu.iter().map(|r| r.dma_bytes).sum());
        m.counter_add("launch.dma.transfers", self.per_dpu.iter().map(|r| r.dma_transfers).sum());
        m.counter_add("launch.dma.cycles", self.per_dpu.iter().map(|r| r.dma_cycles).sum());
        m.gauge_set("launch.dpus", self.per_dpu.len() as f64);
        m.gauge_set("launch.tasklets", self.tasklets as f64);
        let makespan = self.makespan_cycles();
        m.gauge_set("launch.makespan_cycles", makespan as f64);
        if makespan > 0 {
            m.gauge_set("launch.ipc", self.total_instructions() as f64 / makespan as f64);
        }
        for r in &self.per_dpu {
            m.observe("dpu.cycles", r.cycles as f64);
            m.observe("dpu.instructions", r.instructions as f64);
            if r.cycles > 0 {
                m.observe("dpu.ipc", r.instructions as f64 / r.cycles as f64);
            }
            // Occupancy: each tasklet's share of the DPU's issue slots.
            // Perfect balance over T tasklets reads as a flat 1/T.
            if r.instructions > 0 {
                for &issued in &r.issue_per_tasklet {
                    m.observe("tasklet.occupancy", issued as f64 / r.instructions as f64);
                }
            }
        }
        m
    }
}

impl DpuSet {
    /// Run `program` with `tasklets` threads on every DPU of the set and
    /// wait for completion.
    ///
    /// DPUs are simulated in parallel on host threads when the set is large
    /// enough for the thread spawn to pay off.
    ///
    /// # Errors
    /// The first DPU fault encountered (in DPU order).
    pub fn launch(&mut self, program: &Program, tasklets: usize) -> Result<LaunchResult> {
        self.launch_impl(program, tasklets, false).map(|(res, _)| res)
    }

    /// Like [`DpuSet::launch`], but additionally collects one
    /// [`TraceBuffer`] of cycle-stamped simulator events per DPU (buffer
    /// `i` belongs to DPU `i`): kernel launch/complete, every MRAM DMA,
    /// subroutine entries and barrier arrivals. Tracing is observational —
    /// the returned [`LaunchResult`] is identical to an untraced launch.
    ///
    /// # Errors
    /// The first DPU fault encountered (in DPU order).
    pub fn launch_traced(
        &mut self,
        program: &Program,
        tasklets: usize,
    ) -> Result<(LaunchResult, Vec<TraceBuffer>)> {
        self.launch_impl(program, tasklets, true)
    }

    fn launch_impl(
        &mut self,
        program: &Program,
        tasklets: usize,
        trace: bool,
    ) -> Result<(LaunchResult, Vec<TraceBuffer>)> {
        let exec = ExecProgram::compile(program)?;
        let engine = self.engine();
        let (system, _, sched) = self.launch_parts();
        launch_on(system, &exec, tasklets, trace, engine, &sched).map(|(res, bufs, _)| (res, bufs))
    }
}

impl DpuSet {
    /// Launch the program previously installed with [`DpuSet::load`] —
    /// the second half of the SDK's load-once/launch-many pattern. Runs
    /// the stored execution form (decoded stream plus its memoized
    /// superblock decomposition) directly: no re-validation, no clone,
    /// no re-analysis.
    ///
    /// # Errors
    /// [`crate::HostError::Symbol`] when nothing is loaded; otherwise as
    /// [`DpuSet::launch`].
    pub fn launch_loaded(&mut self, tasklets: usize) -> Result<LaunchResult> {
        let engine = self.engine();
        let (system, loaded, sched) = self.launch_parts();
        let exec = loaded.ok_or(HostError::Symbol {
            name: "<program>".to_owned(),
            problem: "no program loaded; call DpuSet::load first",
        })?;
        launch_on(system, exec, tasklets, false, engine, &sched).map(|(res, _, _)| res)
    }

    /// [`DpuSet::launch_loaded`] with per-DPU tracing, as
    /// [`DpuSet::launch_traced`].
    ///
    /// # Errors
    /// [`crate::HostError::Symbol`] when nothing is loaded; otherwise as
    /// [`DpuSet::launch`].
    pub fn launch_loaded_traced(
        &mut self,
        tasklets: usize,
    ) -> Result<(LaunchResult, Vec<TraceBuffer>)> {
        let engine = self.engine();
        let (system, loaded, sched) = self.launch_parts();
        let exec = loaded.ok_or(HostError::Symbol {
            name: "<program>".to_owned(),
            problem: "no program loaded; call DpuSet::load first",
        })?;
        launch_on(system, exec, tasklets, true, engine, &sched).map(|(res, bufs, _)| (res, bufs))
    }
}

/// Below the threshold a launch runs on the calling thread: handing the
/// batch to the pool costs more than it saves on tiny sets. The effective
/// value is a per-set tunable ([`DpuSet::set_parallel_threshold`]) with a
/// process-wide environment override ([`DpuSet::PARALLEL_THRESHOLD_ENV`]),
/// mirroring [`Engine::effective`]; this constant is the fallback, picked
/// by the sweep recorded in `docs/PERFORMANCE.md`.
pub(crate) const DEFAULT_PARALLEL_THRESHOLD: usize = 4;

/// DPUs per rank — the natural shard size at rank scale (UPMEM allocates
/// whole ranks, and one rank is 64 DPUs on the evaluated server).
pub(crate) const RANK_DPUS: usize =
    dpu_sim::params::DPUS_PER_DIMM / dpu_sim::params::RANKS_PER_DIMM;

/// Shard size for an `n`-job batch: whole ranks once the set spans at
/// least two of them (so workers stay rank-affine), else an even split
/// over the pool's workers.
fn rank_shard_size(n: usize, workers: usize) -> usize {
    if n >= 2 * RANK_DPUS {
        RANK_DPUS
    } else {
        n.div_ceil(workers.max(1)).max(1)
    }
}

/// Scheduling context for one launch: the owning set's persistent worker
/// pool (when it has one) and its parallel threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sched<'a> {
    /// The set's persistent pool; `None` forces the sequential path.
    pub pool: Option<&'a WorkerPool>,
    /// Minimum set size that engages the pool.
    pub threshold: usize,
}

impl Sched<'_> {
    /// The pool `n` jobs should run on, or `None` for the sequential path.
    pub fn pool_for(&self, n: usize) -> Option<&WorkerPool> {
        if n >= self.threshold {
            self.pool
        } else {
            None
        }
    }
}

/// How the work-stealing scheduler distributed one launch's DPU jobs
/// over its worker threads.
///
/// Purely observational scheduling telemetry: which worker simulated
/// which DPU depends on host thread timing, so these numbers vary from
/// run to run (unlike every simulated figure) and are excluded from the
/// deterministic launch results. [`crate::LaunchObservation`] aggregates
/// them under `obs.steal.*`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Jobs claimed by each worker thread (index = worker).
    pub claims: Vec<u64>,
    /// Shards the batch was split into (one per rank at rank scale).
    pub shards: usize,
    /// Jobs handed to the pool (= DPUs simulated) — the launch's queue
    /// depth at enqueue time.
    pub queued: u64,
}

impl StealStats {
    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.claims.len()
    }

    /// Total jobs claimed (= DPUs simulated).
    #[must_use]
    pub fn total_claims(&self) -> u64 {
        self.claims.iter().sum()
    }
}

/// What happened to one DPU's simulation: the interpreter's verdict
/// (completion or a DPU fault), or the detail of the panic that killed
/// the worker thread while simulating it.
type DpuOutcome = std::result::Result<dpu_sim::Result<RunResult>, String>;

/// Run the decoded program on every DPU of `system` and collect per-DPU
/// results plus trace buffers, both in DPU order.
///
/// `engine` pins the execution tier for every DPU; `None` resolves the
/// ambient [`Engine::effective`] selection **once** here, so all DPUs of
/// one launch run the same tier even if the environment changes mid-launch.
pub(crate) fn launch_on(
    system: &mut PimSystem,
    exec: &ExecProgram,
    tasklets: usize,
    trace: bool,
    engine: Option<Engine>,
    sched: &Sched<'_>,
) -> Result<(LaunchResult, Vec<TraceBuffer>, Option<StealStats>)> {
    let engine = engine.unwrap_or_else(Engine::effective);
    let n = system.len();
    let mut buffers: Vec<TraceBuffer> = vec![TraceBuffer::new(); n];
    let (outcomes, steal) = match sched.pool_for(n) {
        None => (run_sequential(system, exec, tasklets, trace, engine, &mut buffers), None),
        Some(pool) => {
            let (outcomes, stats) =
                run_stealing(pool, system, exec, tasklets, trace, engine, &mut buffers);
            (outcomes, Some(stats))
        }
    };
    let mut per_dpu = Vec::with_capacity(n);
    for outcome in outcomes {
        match outcome {
            Ok(r) => per_dpu.push(r?),
            Err(detail) => return Err(HostError::WorkerPanic { detail }),
        }
    }
    Ok((LaunchResult { per_dpu, tasklets }, buffers, steal))
}

fn run_one(
    dpu: &mut dpu_sim::Machine,
    exec: &ExecProgram,
    tasklets: usize,
    trace: bool,
    engine: Engine,
    buf: &mut TraceBuffer,
) -> dpu_sim::Result<RunResult> {
    if trace {
        dpu.run_exec_traced_engine_with_budget(
            exec,
            tasklets,
            dpu_sim::machine::DEFAULT_CYCLE_BUDGET,
            buf,
            engine,
        )
    } else {
        dpu.run_exec_engine(exec, tasklets, engine)
    }
}

/// Calling-thread launch: DPUs run one after another, panics unwind
/// straight to the caller.
fn run_sequential(
    system: &mut PimSystem,
    exec: &ExecProgram,
    tasklets: usize,
    trace: bool,
    engine: Engine,
    buffers: &mut [TraceBuffer],
) -> Vec<DpuOutcome> {
    system
        .iter_mut()
        .zip(buffers.iter_mut())
        .map(|((_, dpu), buf)| Ok(run_one(dpu, exec, tasklets, trace, engine, buf)))
        .collect()
}

/// Work-stealing launch: pool workers claim DPUs one at a time off their
/// home shard's cursor (stealing from other shards once it drains), so a
/// few expensive DPUs cannot idle the rest of the pool the way static
/// chunking did.
fn run_stealing(
    pool: &WorkerPool,
    system: &mut PimSystem,
    exec: &ExecProgram,
    tasklets: usize,
    trace: bool,
    engine: Engine,
    buffers: &mut [TraceBuffer],
) -> (Vec<DpuOutcome>, StealStats) {
    run_stealing_with(pool, system, buffers, |_, dpu, buf| {
        run_one(dpu, exec, tasklets, trace, engine, buf)
    })
}

/// The scheduler core, generic over the per-DPU job so tests can inject
/// faulting or panicking work. `job` receives the DPU index; results and
/// buffers come back in DPU order regardless of which worker ran what.
fn run_stealing_with<F>(
    pool: &WorkerPool,
    system: &mut PimSystem,
    buffers: &mut [TraceBuffer],
    job: F,
) -> (Vec<DpuOutcome>, StealStats)
where
    F: Fn(usize, &mut dpu_sim::Machine, &mut TraceBuffer) -> dpu_sim::Result<RunResult> + Sync,
{
    // Catch panics per DPU (while not holding any shared state) so one
    // faulty simulation surfaces as a `HostError` instead of unwinding
    // out of the pool batch.
    steal_jobs(pool, system, buffers, |i, dpu, buf| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i, dpu, buf)))
            .map_err(|payload| panic_detail(payload.as_ref()))
    })
}

/// The work-stealing loop itself, generic over the per-DPU outcome type so
/// the resilient launch path can reuse it with richer per-DPU reports.
/// Jobs must not unwind (wrap them in `catch_unwind` when they might).
/// Alongside the per-DPU outcomes it reports how the jobs distributed
/// over the pool's workers.
pub(crate) fn steal_jobs<R, F>(
    pool: &WorkerPool,
    system: &mut PimSystem,
    buffers: &mut [TraceBuffer],
    job: F,
) -> (Vec<R>, StealStats)
where
    R: Send,
    F: Fn(usize, &mut dpu_sim::Machine, &mut TraceBuffer) -> R + Sync,
{
    struct Slot<'a, R> {
        dpu: &'a mut dpu_sim::Machine,
        buf: &'a mut TraceBuffer,
        outcome: Option<R>,
    }

    let n = system.len();
    let slots: Vec<Mutex<Slot<R>>> = system
        .iter_mut()
        .zip(buffers.iter_mut())
        .map(|((_, dpu), buf)| Mutex::new(Slot { dpu, buf, outcome: None }))
        .collect();
    let runner = |i: usize, _w: usize| {
        // Each index is claimed exactly once, so the lock is always
        // uncontended; it exists to hand the `&mut` state to whichever
        // worker drew the index.
        let mut slot = slots[i].lock().expect("job mutex poisoned");
        let Slot { dpu, buf, outcome } = &mut *slot;
        *outcome = Some(job(i, dpu, buf));
    };
    let stats = pool.run_batch(n, rank_shard_size(n, pool.workers()), &runner);
    let outcomes = slots
        .into_iter()
        .map(|m| {
            let slot = m.into_inner().expect("job mutex poisoned");
            slot.outcome.expect("every DPU index was claimed by a worker")
        })
        .collect();
    (outcomes, StealStats { claims: stats.claims, shards: stats.shards, queued: n as u64 })
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&str>().map(|s| (*s).to_owned()).unwrap_or_else(|| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "panic payload was not a string".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::asm::assemble;
    use dpu_sim::DpuId;

    /// Program: read scalar at MRAM symbol offset 0 (via DMA), double it,
    /// write it back.
    fn double_program() -> Program {
        assemble(
            "movi r1, 0      ; wram addr\n\
             movi r2, 0      ; mram addr\n\
             movi r3, 8      ; len\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    #[test]
    fn launch_runs_all_dpus() {
        let mut set = DpuSet::allocate(8).unwrap();
        set.define_symbol("x", 8).unwrap();
        for i in 0..8u32 {
            set.copy_to_dpu(DpuId(i), "x", 0, &u64::from(i + 1).to_le_bytes()).unwrap();
        }
        let res = set.launch(&double_program(), 1).unwrap();
        assert_eq!(res.per_dpu.len(), 8);
        for i in 0..8u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
        assert!(res.makespan_cycles() > 0);
        assert_eq!(res.makespan_cycles(), res.per_dpu[0].cycles); // identical work
    }

    #[test]
    fn small_sets_use_serial_path() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("x", 8).unwrap();
        set.copy_scalar_to("x", 21).unwrap();
        set.launch(&double_program(), 1).unwrap();
        assert_eq!(set.copy_scalar_from(DpuId(0), "x").unwrap(), 42);
        assert_eq!(set.copy_scalar_from(DpuId(1), "x").unwrap(), 42);
    }

    #[test]
    fn launch_propagates_dpu_faults() {
        let mut set = DpuSet::allocate(2).unwrap();
        let bad = assemble("jmp 99\n").unwrap();
        assert!(set.launch(&bad, 1).is_err());
    }

    #[test]
    fn load_then_launch_many_times() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("x", 8).unwrap();
        set.copy_scalar_to("x", 1).unwrap();
        set.load(&double_program()).unwrap();
        for expected in [2u64, 4, 8] {
            set.launch_loaded(1).unwrap();
            assert_eq!(set.copy_scalar_from(DpuId(0), "x").unwrap(), expected);
        }
    }

    #[test]
    fn launch_loaded_without_load_errors() {
        let mut set = DpuSet::allocate(1).unwrap();
        let err = set.launch_loaded(1).unwrap_err();
        assert!(err.to_string().contains("no program loaded"));
    }

    #[test]
    fn load_rejects_bad_programs_eagerly() {
        let mut set = DpuSet::allocate(1).unwrap();
        let bad = Program::new(vec![dpu_sim::Instr::Jump { target: 9 }]);
        assert!(set.load(&bad).is_err());
        let huge = Program::new(vec![dpu_sim::Instr::Nop; 4000]);
        assert!(set.load(&huge).is_err());
    }

    #[test]
    fn merged_profile_aggregates_dpus() {
        let mut set = DpuSet::allocate(4).unwrap();
        let p = assemble("movi r1, 6\nmovi r2, 7\ncall __mulsi3 r3, r1, r2\nhalt\n").unwrap();
        let res = set.launch(&p, 1).unwrap();
        let prof = res.merged_profile();
        assert_eq!(prof.occurrences(dpu_sim::Subroutine::Mulsi3), 4);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use dpu_sim::asm::assemble;
    use pim_trace::TraceEvent;

    /// DMA in, a multiply subroutine, a barrier, DMA out — every simulator
    /// event kind fires.
    fn traced_program() -> Program {
        assemble(
            "me r1\n\
             lsli r2, r1, 8\n\
             movi r3, 64\n\
             mram.read r2, r2, r3\n\
             call __mulsi3 r4, r3, r3\n\
             barrier\n\
             mram.write r2, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    #[test]
    fn traced_launch_matches_untraced_launch_exactly() {
        // Both the serial (<4 DPUs) and parallel (>=4 DPUs) paths.
        for dpus in [2usize, 6] {
            let mut plain_set = DpuSet::allocate(dpus).unwrap();
            let plain = plain_set.launch(&traced_program(), 3).unwrap();
            let mut traced_set = DpuSet::allocate(dpus).unwrap();
            let (traced, bufs) = traced_set.launch_traced(&traced_program(), 3).unwrap();
            assert_eq!(plain, traced, "{dpus} DPUs");
            assert_eq!(bufs.len(), dpus);
            assert!(bufs.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn untraced_launch_collects_no_events() {
        let mut set = DpuSet::allocate(2).unwrap();
        let (res, bufs) = set.launch_impl(&traced_program(), 2, false).unwrap();
        assert_eq!(res.per_dpu.len(), 2);
        assert!(bufs.iter().all(pim_trace::TraceBuffer::is_empty));
    }

    #[test]
    fn per_dpu_buffers_cover_all_dpus_in_order() {
        let mut set = DpuSet::allocate(5).unwrap();
        let (res, bufs) = set.launch_traced(&traced_program(), 2).unwrap();
        assert_eq!(bufs.len(), res.per_dpu.len());
        for (r, b) in res.per_dpu.iter().zip(&bufs) {
            // Identical work on every DPU: each buffer's end stamp is its
            // own DPU's cycle count.
            assert_eq!(b.max_end_cycle(), r.cycles);
            assert_eq!(b.dma_bytes(), r.dma_bytes);
            assert_eq!(b.count_matching(|e| matches!(e, TraceEvent::KernelLaunch { .. })), 1);
        }
    }

    #[test]
    fn metrics_snapshot_reflects_launch() {
        let mut set = DpuSet::allocate(4).unwrap();
        let res = set.launch(&traced_program(), 2).unwrap();
        let m = res.metrics();
        assert_eq!(m.counter("launch.instructions"), res.total_instructions());
        assert_eq!(
            m.counter("launch.dma.bytes"),
            res.per_dpu.iter().map(|r| r.dma_bytes).sum::<u64>()
        );
        assert_eq!(m.gauge("launch.dpus"), Some(4.0));
        assert_eq!(m.gauge("launch.makespan_cycles"), Some(res.makespan_cycles() as f64));
        let occ = m.histogram("tasklet.occupancy").expect("observed");
        assert_eq!(occ.count(), 4 * 2); // 4 DPUs x 2 tasklets
                                        // Shares within one DPU sum to 1; the mean over all is 1/tasklets.
        assert!((occ.mean().unwrap() - 0.5).abs() < 1e-9);
        let ipc = m.gauge("launch.ipc").expect("set");
        assert!(ipc > 0.0);
    }

    proptest::proptest! {
        /// The satellite invariant: the set's makespan equals the largest
        /// end stamp over every per-DPU trace span, at any set shape.
        #[test]
        fn makespan_equals_max_trace_end_cycle(
            dpus in 1usize..7,
            tasklets in 1usize..5,
        ) {
            let mut set = DpuSet::allocate(dpus).unwrap();
            let (res, bufs) = set.launch_traced(&traced_program(), tasklets).unwrap();
            let max_end = bufs.iter().map(pim_trace::TraceBuffer::max_end_cycle).max().unwrap();
            proptest::prop_assert_eq!(res.makespan_cycles(), max_end);
        }
    }
}

#[cfg(test)]
mod scheduler_equivalence_tests {
    use super::*;
    use dpu_sim::isa::{Cond, Width};
    use dpu_sim::{Instr as I, Reg};
    use proptest::prelude::*;

    /// A program with a random ALU/trace prefix followed by a countdown
    /// loop whose trip count comes from MRAM — so per-DPU cost is as skewed
    /// as the seeded counts, the worst case for scheduling order bugs.
    fn build_program(ops: &[(u8, i32)], barrier: bool) -> Program {
        let mut v = vec![
            I::Movi { rd: Reg(1), imm: 0 },
            I::Movi { rd: Reg(2), imm: 0 },
            I::Movi { rd: Reg(3), imm: 8 },
            I::MramRead { wram: Reg(1), mram: Reg(2), len: Reg(3) },
            I::Load { width: Width::W, rd: Reg(4), ra: Reg(1), off: 0 },
        ];
        for &(sel, imm) in ops {
            v.push(match sel % 5 {
                0 => I::Addi { rd: Reg(6), ra: Reg(6), imm },
                1 => I::Xor { rd: Reg(6), ra: Reg(6), rb: Reg(4) },
                2 => I::Lsli { rd: Reg(6), ra: Reg(6), sh: (imm as u8) & 7 },
                3 => I::Trace { ra: Reg(6) },
                _ => I::Mul8 { rd: Reg(6), ra: Reg(6), rb: Reg(4) },
            });
        }
        let loop_top = v.len() as u32;
        v.push(I::Addi { rd: Reg(4), ra: Reg(4), imm: -1 });
        v.push(I::Branch { cond: Cond::Ne, ra: Reg(4), rb: Reg(0), target: loop_top });
        if barrier {
            v.push(I::Barrier);
        }
        v.push(I::Trace { ra: Reg(6) });
        v.push(I::Halt);
        Program::new(v)
    }

    /// A set whose DPU `i` holds `counts[i]` at MRAM offset 0.
    fn skewed_set(dpus: usize, counts: &[u32]) -> DpuSet {
        let mut set = DpuSet::allocate(dpus).unwrap();
        for (i, (_, dpu)) in set.system_mut().iter_mut().enumerate() {
            dpu.mram.write(0, &u64::from(counts[i]).to_le_bytes()).unwrap();
        }
        set
    }

    fn unwrap_all(outcomes: Vec<DpuOutcome>) -> Vec<RunResult> {
        outcomes
            .into_iter()
            .map(|o| match o {
                Ok(r) => r.expect("program halts"),
                Err(d) => panic!("worker panicked: {d}"),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The satellite invariant: the work-stealing scheduler is
        /// observationally identical to the sequential path — per-DPU
        /// results and trace buffers, in DPU order — for random programs,
        /// skews and set sizes on both sides of the parallel threshold.
        #[test]
        fn work_stealing_matches_sequential_exactly(
            dpus in 1usize..9,
            tasklets in 1usize..4,
            ops in proptest::collection::vec((0u8..5, 1i32..64), 0..8),
            counts in proptest::collection::vec(1u32..60, 9),
            barrier_sel in 0u8..2,
        ) {
            let program = build_program(&ops, barrier_sel == 1);
            let exec = ExecProgram::compile(&program).unwrap();

            let mut seq_set = skewed_set(dpus, &counts);
            let mut seq_bufs = vec![TraceBuffer::new(); dpus];
            let seq =
                run_sequential(
                    seq_set.system_mut(),
                    &exec,
                    tasklets,
                    true,
                    Engine::default(),
                    &mut seq_bufs,
                );

            let pool = crate::pool::WorkerPool::for_dpus(dpus);
            let mut steal_set = skewed_set(dpus, &counts);
            let mut steal_bufs = vec![TraceBuffer::new(); dpus];
            let (steal, stats) =
                run_stealing(
                    &pool,
                    steal_set.system_mut(),
                    &exec,
                    tasklets,
                    true,
                    Engine::default(),
                    &mut steal_bufs,
                );

            prop_assert_eq!(seq_bufs, steal_bufs);
            prop_assert_eq!(unwrap_all(seq), unwrap_all(steal));
            prop_assert_eq!(stats.total_claims(), dpus as u64);
            prop_assert_eq!(stats.queued, dpus as u64);
            prop_assert!(stats.shards >= 1);
        }
    }

    #[test]
    fn worker_panic_is_captured_per_dpu_with_its_message() {
        let mut set = DpuSet::allocate(6).unwrap();
        let pool = crate::pool::WorkerPool::for_dpus(6);
        let mut bufs = vec![TraceBuffer::new(); 6];
        let exec = ExecProgram::compile(&Program::new(vec![I::Halt])).unwrap();
        let (outcomes, stats) =
            run_stealing_with(&pool, set.system_mut(), &mut bufs, |i, dpu, buf| {
                if i == 3 {
                    panic!("injected failure on DPU 3");
                }
                run_one(dpu, &exec, 1, false, Engine::default(), buf)
            });
        assert_eq!(outcomes.len(), 6);
        assert_eq!(stats.total_claims(), 6);
        assert!(stats.workers() >= 1);
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                Ok(r) => {
                    assert_ne!(i, 3);
                    assert!(r.is_ok());
                }
                Err(detail) => {
                    assert_eq!(i, 3);
                    assert!(detail.contains("injected failure"), "got {detail}");
                }
            }
        }
        let err = HostError::WorkerPanic { detail: "injected failure on DPU 3".to_owned() };
        assert!(err.to_string().contains("panicked"));
    }

    /// Regression: a worker panic mid-launch must not poison per-machine
    /// state for subsequent launches. The panicked wave here leaves every
    /// machine with an *armed* perf counter; before `run_code` reset the
    /// counter at run start, the next launch's `perf.read` would observe
    /// the stale armed epoch instead of its own.
    #[test]
    fn relaunch_after_worker_panic_reads_clean_state() {
        let mut set = DpuSet::allocate(6).unwrap();
        let pool = crate::pool::WorkerPool::for_dpus(6);
        let arming =
            ExecProgram::compile(&dpu_sim::asm::assemble("perf.config\nhalt\n").unwrap()).unwrap();
        let mut bufs = vec![TraceBuffer::new(); 6];
        let (outcomes, _) = run_stealing_with(&pool, set.system_mut(), &mut bufs, |i, dpu, buf| {
            let r = run_one(dpu, &arming, 1, false, Engine::default(), buf);
            if i == 2 {
                panic!("injected mid-launch failure");
            }
            r
        });
        assert!(outcomes.iter().enumerate().any(|(i, o)| i == 2 && o.is_err()));

        // Relaunch on the same (partly poisoned) set: every DPU's perf
        // read must start from zero, including the one whose worker died.
        let reader = dpu_sim::asm::assemble(
            "movi r1, 200\n\
             loop:\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             perf.read r4\n\
             halt\n",
        )
        .unwrap();
        set.load(&reader).unwrap();
        let res = set.launch_loaded(1).unwrap();
        assert_eq!(res.per_dpu.len(), 6);
        for (i, r) in res.per_dpu.iter().enumerate() {
            assert_eq!(r.perf_reads, vec![0], "DPU {i} leaked perf state across launches");
        }
    }
}
