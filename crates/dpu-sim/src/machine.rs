//! The DPU interpreter: executes [`Program`]s over the simulated memories
//! with exact pipeline timing.
//!
//! All tasklets run the *same* program (the DPU's SIMT model, paper §3.1),
//! distinguished only by [`crate::isa::Instr::TaskletId`]. The interpreter
//! asks the [`Pipeline`] which tasklet issues next, executes one instruction
//! for it, and reports total cycles, instruction count, DMA statistics, a
//! subroutine profile and every performance-counter reading.
//!
//! ## The Fig. 3.1 microbenchmark harness
//!
//! [`crate::asm::profile_harness`] reproduces the paper's
//! cycle-per-operation methodology: a program arms the perfcounter, executes
//! `-O0`-style code for one operation (operand loads from stack slots, the
//! operation, a store), reads the counter and halts. The harness carries 24
//! overhead issue slots (perfcounter library calls, operand setup with
//! `movi` pairs for 32-bit maxima, stack traffic) so that with the
//! single-tasklet issue rate of one instruction per 11 cycles the measured
//! totals reproduce Table 3.1 within ~1.5 % (see [`crate::subroutines`]).

use crate::compile::{Access, CompiledBlock, CompiledProgram, Link, Term};
use crate::error::{Error, Result};
use crate::exec::{self, ExecInstr, ExecProgram, Superblocks, OP_COUNT};
use crate::faults::{AttemptFaults, DmaFault, FaultKind};
use crate::isa::{Instr, Program, Reg, Width};
use crate::memory::{DmaEngine, Mram, Wram};
use crate::params::{DpuParams, REGS_PER_TASKLET};
use crate::perfcounter::PerfCounter;
use crate::pipeline::{Period, Pipeline};
use crate::profiler::{CycleAttribution, Profiler};
use pim_trace::{DmaDirection, NullSink, TraceEvent, TraceSink};

/// Default cycle budget for [`Machine::run`]; generous enough for every
/// kernel in the repository while still catching infinite loops.
pub const DEFAULT_CYCLE_BUDGET: u64 = 50_000_000_000;

/// Interpreter engine tiers, slowest first. Every tier produces
/// bit-identical observable results — cycles, histograms, traces, memory,
/// error sites — which the golden and proptest identity suites pin; the
/// selection only trades simplicity of the executing loop for speed.
///
/// Selection is explicit via [`Machine::run_exec_engine`] (and the
/// engine-aware `pim-host` launch APIs) or ambient via
/// [`Engine::effective`], which consults the `PIM_SIM_ENGINE` environment
/// variable and otherwise defaults to the compiled tier. Traced and
/// profiled runs always take the reference loop regardless of selection,
/// and armed fault injection deoptimizes the compiled tier onto the
/// superblock engine (see [`Machine::run_code`] internals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The per-instruction reference loop: one pick, one budget check,
    /// one fetch-dispatch per issue slot — the semantic source of truth
    /// every observable figure is defined by.
    Reference,
    /// The superblock engine: memoized straight-line blocks and
    /// schedule-replay windows (whole rounds of a periodic multi-tasklet
    /// schedule run tasklet-major) over the pre-decoded stream.
    Superblock,
    /// The compiled tier: hot superblocks as threaded-code closures
    /// chained by direct block ids (see [`crate::compile`]), deoptimizing
    /// onto the superblock engine at everything the compiled universe
    /// does not cover.
    #[default]
    Compiled,
}

impl Engine {
    /// Environment variable consulted by [`Engine::effective`]; valid
    /// values are the [`Engine::name`]s.
    pub const ENV_VAR: &'static str = "PIM_SIM_ENGINE";

    /// Parse an engine name as used by the env/config override.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(Self::Reference),
            "superblock" => Some(Self::Superblock),
            "compiled" => Some(Self::Compiled),
            _ => None,
        }
    }

    /// The canonical name: `reference`, `superblock` or `compiled`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Superblock => "superblock",
            Self::Compiled => "compiled",
        }
    }

    /// The ambient engine: `PIM_SIM_ENGINE` when set to a valid name, the
    /// default tier otherwise. Read fresh on every call — never cached —
    /// so the CI engine matrix and test harnesses can force a tier per
    /// process.
    #[must_use]
    pub fn effective() -> Self {
        std::env::var(Self::ENV_VAR).ok().and_then(|v| Self::from_name(&v)).unwrap_or_default()
    }
}

/// Statistics of one program run.
///
/// Equality compares every simulated figure and leaves out
/// [`RunResult::paths`], which records how the host executed the run:
/// the identity suites compare fast-tier results against the reference
/// loop, whose paths differ by design.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Total elapsed cycles including final pipeline drain.
    pub cycles: u64,
    /// Instructions issued (subroutine bodies included).
    pub instructions: u64,
    /// Issue slots left idle (pipeline under-utilisation).
    pub idle_cycles: u64,
    /// Cycles spent in MRAM DMA transfers.
    pub dma_cycles: u64,
    /// Number of DMA transfers.
    pub dma_transfers: u64,
    /// Bytes moved over DMA.
    pub dma_bytes: u64,
    /// Every value read through `perfcounter_get`, in execution order.
    pub perf_reads: Vec<u64>,
    /// DPU log: `(tasklet, value)` pairs emitted by `trace`, in execution
    /// order (the host-side `dpu_log_read` view).
    pub trace: Vec<(usize, u32)>,
    /// Executed-instruction histogram by mnemonic class (subroutine bodies
    /// count as one `call` plus their issue slots in `instructions`).
    pub op_histogram: std::collections::BTreeMap<&'static str, u64>,
    /// Subroutine occurrence profile of the run.
    pub profile: Profiler,
    /// Instructions issued by each tasklet (index = tasklet id); the basis
    /// of the tasklet-occupancy metric.
    pub issue_per_tasklet: Vec<u64>,
    /// How the engine tier retired the issue slots (not part of
    /// equality).
    pub paths: EnginePaths,
}

impl PartialEq for RunResult {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            cycles,
            instructions,
            idle_cycles,
            dma_cycles,
            dma_transfers,
            dma_bytes,
            perf_reads,
            trace,
            op_histogram,
            profile,
            issue_per_tasklet,
            paths: _,
        } = self;
        *cycles == other.cycles
            && *instructions == other.instructions
            && *idle_cycles == other.idle_cycles
            && *dma_cycles == other.dma_cycles
            && *dma_transfers == other.dma_transfers
            && *dma_bytes == other.dma_bytes
            && *perf_reads == other.perf_reads
            && *trace == other.trace
            && *op_histogram == other.op_histogram
            && *profile == other.profile
            && *issue_per_tasklet == other.issue_per_tasklet
    }
}

/// How the fast engine tiers retired the issue slots of one run.
///
/// Host-side execution detail, deterministic for a given tier and input
/// but not a simulated figure: on the fast tiers the three slot counts
/// sum to [`RunResult::instructions`] (`chain_slots` counts the share of
/// them that compiled chains retired), the reference loop leaves every
/// count at zero, and `RunResult` equality ignores it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePaths {
    /// Issue slots retired inside schedule-replay windows.
    pub window_slots: u64,
    /// Issue slots retired one at a time by the exact per-slot path.
    pub single_slots: u64,
    /// Issue slots retired in sole mode (one runnable tasklet).
    pub sole_slots: u64,
    /// Windows that retired at least one round.
    pub windows: u64,
    /// Window chunks discarded because two tasklets touched one WRAM
    /// word, at least one of them storing (at most one per run: stores
    /// leave windows after it).
    pub conflicts: u32,
    /// Window chunks rolled back because an instruction in them faulted
    /// (at most one per run: windows stop after it).
    pub fault_rollbacks: u32,
    /// Issue slots retired inside compiled threaded-code chains (a subset
    /// of the window and sole slots; zero off the compiled tier).
    pub chain_slots: u64,
}

impl EnginePaths {
    /// Add another run's counts to these.
    pub fn accumulate(&mut self, other: &Self) {
        self.window_slots += other.window_slots;
        self.single_slots += other.single_slots;
        self.sole_slots += other.sole_slots;
        self.windows += other.windows;
        self.conflicts += other.conflicts;
        self.fault_rollbacks += other.fault_rollbacks;
        self.chain_slots += other.chain_slots;
    }
}

impl RunResult {
    /// Wall-clock seconds at the device frequency in `params`.
    #[must_use]
    pub fn seconds(&self, params: &DpuParams) -> f64 {
        params.cycles_to_seconds(self.cycles)
    }
}

#[derive(Debug, Clone)]
struct Tasklet {
    pc: u32,
    regs: [u32; REGS_PER_TASKLET],
    /// Remaining pure-issue slots of an in-flight subroutine body.
    burst: u64,
}

impl Tasklet {
    fn new() -> Self {
        Self { pc: 0, regs: [0; REGS_PER_TASKLET], burst: 0 }
    }

    fn get(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn set(&mut self, r: Reg, v: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }
}

/// One simulated DPU: memories, DMA engine and pipeline-accurate interpreter.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Device parameters in force.
    pub params: DpuParams,
    /// Working RAM (shared by all tasklets).
    pub wram: Wram,
    /// Main RAM (host-visible).
    pub mram: Mram,
    /// DMA engine between MRAM and WRAM.
    pub dma: DmaEngine,
    perf: PerfCounter,
    /// Faults armed for the next run attempt, if any (see [`crate::faults`]).
    faults: Option<AttemptFaults>,
    /// Integrity events observed by the machine (monotone; the host
    /// reads per-launch deltas).
    pub integrity: IntegrityCounters,
}

/// Integrity events the machine itself observed and handled.
///
/// Populated only when MRAM ECC is enabled (see
/// [`crate::CowMemory::set_ecc`]); zero otherwise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Single-bit corrections applied at the DMA read site: MRAM source
    /// words repaired via SEC-DED, plus landed WRAM destinations
    /// re-copied after an in-flight corruption.
    pub dma_corrected: u64,
}

/// Full architectural state of one DPU, captured by [`Machine::snapshot`].
///
/// MRAM is held as an O(pages) copy-on-write snapshot
/// ([`crate::MemorySnapshot`]); WRAM, the DMA statistics and the perf
/// counter are small and copied outright. Restoring one of these onto its
/// machine and re-running the same program reproduces the original run
/// bit-for-bit — the unit of deterministic replay.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    wram: Wram,
    mram: crate::MemorySnapshot,
    dma: DmaEngine,
    perf: PerfCounter,
}

impl MachineSnapshot {
    /// Materialized MRAM pages this snapshot pins (shared pages count
    /// here once per snapshot; system-wide deduplication is
    /// [`crate::PimSystem::mram_residency`]'s job).
    #[must_use]
    pub fn mram_resident_pages(&self) -> usize {
        self.mram.resident_pages()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new(DpuParams::default())
    }
}

impl Machine {
    /// A machine with the given device parameters.
    #[must_use]
    pub fn new(params: DpuParams) -> Self {
        Self {
            params,
            wram: Wram::new(params.wram_bytes),
            mram: Mram::new(params.mram_bytes),
            dma: DmaEngine::new(
                params.dma_setup_cycles,
                params.dma_bytes_per_cycle,
                crate::params::DMA_MAX_TRANSFER_BYTES,
            ),
            perf: PerfCounter::new(),
            faults: None,
            integrity: IntegrityCounters::default(),
        }
    }

    /// Arm a set of injected faults for the next run. The machine consults
    /// them at launch (offline / hang clamp) and at every DMA transfer;
    /// everything that fires is logged inside the armed [`AttemptFaults`].
    pub fn arm_faults(&mut self, faults: AttemptFaults) {
        self.faults = Some(faults);
    }

    /// Disarm fault injection, returning the armed state with its log of
    /// what fired (if anything was armed).
    pub fn disarm_faults(&mut self) -> Option<AttemptFaults> {
        self.faults.take()
    }

    /// Capture the machine's full architectural state. WRAM is copied
    /// (64 KiB dense); MRAM costs O(pages) thanks to copy-on-write
    /// ([`crate::CowMemory::snapshot`]); DMA statistics and the perf
    /// counter ride along so a restored machine replays bit-identically.
    ///
    /// Armed faults are *not* captured: they are per-attempt transients
    /// armed by the host around each run.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            wram: self.wram.clone(),
            mram: self.mram.snapshot(),
            dma: self.dma,
            perf: self.perf,
        }
    }

    /// Restore the state captured by [`Machine::snapshot`]. Re-running the
    /// same program (and, for resilient launches, the same fault seed)
    /// from a restored snapshot reproduces results, cycle counts and
    /// traces exactly. Clears any armed faults.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the snapshot came from a machine with
    /// different memory capacities.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<()> {
        if snap.wram.len() != self.wram.len() {
            return Err(Error::OutOfBounds {
                kind: "WRAM",
                addr: 0,
                len: snap.wram.len(),
                size: self.wram.len(),
            });
        }
        self.mram.restore(&snap.mram)?;
        self.wram.clone_from(&snap.wram);
        self.dma = snap.dma;
        self.perf = snap.perf;
        self.faults = None;
        Ok(())
    }

    /// Run `program` on `tasklets` hardware threads until all halt.
    ///
    /// # Errors
    /// Any interpreter fault ([`Error::PcOutOfRange`], memory bounds,
    /// [`Error::CycleBudgetExceeded`] after [`DEFAULT_CYCLE_BUDGET`] cycles,
    /// …).
    pub fn run(&mut self, program: &Program, tasklets: usize) -> Result<RunResult> {
        self.run_with_budget(program, tasklets, DEFAULT_CYCLE_BUDGET)
    }

    /// Like [`Machine::run`] with an explicit cycle budget.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_with_budget(
        &mut self,
        program: &Program,
        tasklets: usize,
        budget: u64,
    ) -> Result<RunResult> {
        self.run_traced_with_budget(program, tasklets, budget, &mut NullSink)
    }

    /// Like [`Machine::run`], recording cycle-stamped [`TraceEvent`]s into
    /// `sink` as the kernel executes.
    ///
    /// Tracing is purely observational: with any sink (including the
    /// recording ones) the returned cycle counts are bit-identical to an
    /// untraced run.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_traced(
        &mut self,
        program: &Program,
        tasklets: usize,
        sink: &mut dyn TraceSink,
    ) -> Result<RunResult> {
        self.run_traced_with_budget(program, tasklets, DEFAULT_CYCLE_BUDGET, sink)
    }

    /// Like [`Machine::run_traced`] with an explicit cycle budget.
    ///
    /// Decodes `program` into its [`ExecProgram`] form on every call; hot
    /// launch-many callers should pre-decode once and use
    /// [`Machine::run_exec_traced_with_budget`] instead.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_traced_with_budget(
        &mut self,
        program: &Program,
        tasklets: usize,
        budget: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<RunResult> {
        // Decode without validating: `Machine::run*` has always left branch
        // targets runtime-checked (`PcOutOfRange` only if executed).
        let code: Vec<ExecInstr> = program
            .instrs
            .iter()
            .map(|&instr| ExecInstr { instr, op: exec::op_id(&instr) })
            .collect();
        let sb = Superblocks::analyze(&code);
        let engine = Engine::effective();
        // Threaded code is only built when this run can actually enter it
        // (traced runs take the reference loop regardless).
        let compiled = (engine == Engine::Compiled && !sink.is_enabled())
            .then(|| CompiledProgram::compile_all(&code, &sb));
        self.run_code(&code, &sb, compiled.as_ref(), tasklets, budget, sink, engine, None)
    }

    /// Run a pre-decoded program on `tasklets` hardware threads until all
    /// halt. Semantically identical to [`Machine::run`] on
    /// [`ExecProgram::source`], without the per-launch decode.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec(&mut self, exec: &ExecProgram, tasklets: usize) -> Result<RunResult> {
        self.run_exec_with_budget(exec, tasklets, DEFAULT_CYCLE_BUDGET)
    }

    /// Like [`Machine::run_exec`] with an explicit cycle budget.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
    ) -> Result<RunResult> {
        self.run_exec_engine_with_budget(exec, tasklets, budget, Engine::effective())
    }

    /// Like [`Machine::run_exec`] with an explicit engine tier instead of
    /// the ambient [`Engine::effective`] selection. All tiers are
    /// observationally identical; see [`Engine`].
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_engine(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        engine: Engine,
    ) -> Result<RunResult> {
        self.run_exec_engine_with_budget(exec, tasklets, DEFAULT_CYCLE_BUDGET, engine)
    }

    /// Like [`Machine::run_exec_engine`] with an explicit cycle budget.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_engine_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
        engine: Engine,
    ) -> Result<RunResult> {
        self.run_code(
            exec.code(),
            exec.superblocks(),
            Some(exec.compiled()),
            tasklets,
            budget,
            &mut NullSink,
            engine,
            None,
        )
    }

    /// Like [`Machine::run_exec_with_budget`] but forcing the
    /// per-instruction reference loop, with superblock fast-forwarding and
    /// event-driven skipping disabled. Equivalent to
    /// [`Machine::run_exec_engine_with_budget`] with [`Engine::Reference`];
    /// kept for the existing equivalence tests and benchmarks.
    ///
    /// # Errors
    /// See [`Machine::run`].
    #[doc(hidden)]
    pub fn run_exec_reference_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
    ) -> Result<RunResult> {
        self.run_exec_engine_with_budget(exec, tasklets, budget, Engine::Reference)
    }

    /// Like [`Machine::run_exec`], additionally attributing every elapsed
    /// cycle to its superblock-partition piece (and, for burst slots, the
    /// in-flight subroutine) in `attr`.
    ///
    /// Profiling is pay-for-what-you-use: it is purely observational — the
    /// returned [`RunResult`] (cycles, instructions, histograms, traces)
    /// is bit-identical to an unprofiled run, which the identity tests
    /// pin — and unprofiled runs share none of its bookkeeping. Profiled
    /// runs take the per-instruction reference loop, so they trade the
    /// superblock engine's speed for attribution.
    ///
    /// `attr` may accumulate multiple runs of the same program (it is
    /// prepared on first use and re-used across launches).
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_profiled(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        attr: &mut CycleAttribution,
    ) -> Result<RunResult> {
        self.run_exec_profiled_with_budget(exec, tasklets, DEFAULT_CYCLE_BUDGET, attr)
    }

    /// Like [`Machine::run_exec_profiled`] with an explicit cycle budget.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_profiled_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
        attr: &mut CycleAttribution,
    ) -> Result<RunResult> {
        self.run_code(
            exec.code(),
            exec.superblocks(),
            None,
            tasklets,
            budget,
            &mut NullSink,
            Engine::Reference,
            Some(attr),
        )
    }

    /// Like [`Machine::run_exec`], recording cycle-stamped [`TraceEvent`]s
    /// into `sink` as the kernel executes.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_traced(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        sink: &mut dyn TraceSink,
    ) -> Result<RunResult> {
        self.run_exec_traced_with_budget(exec, tasklets, DEFAULT_CYCLE_BUDGET, sink)
    }

    /// Like [`Machine::run_exec_traced`] with an explicit cycle budget.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_traced_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<RunResult> {
        self.run_exec_traced_engine_with_budget(exec, tasklets, budget, sink, Engine::effective())
    }

    /// Like [`Machine::run_exec_traced_with_budget`] with an explicit
    /// engine tier. An enabled sink forces the reference loop regardless
    /// of `engine` (trace emission needs per-slot dispatch), so the tier
    /// only affects untraced launches sharing this entry point.
    ///
    /// # Errors
    /// See [`Machine::run`].
    pub fn run_exec_traced_engine_with_budget(
        &mut self,
        exec: &ExecProgram,
        tasklets: usize,
        budget: u64,
        sink: &mut dyn TraceSink,
        engine: Engine,
    ) -> Result<RunResult> {
        self.run_code(
            exec.code(),
            exec.superblocks(),
            Some(exec.compiled()),
            tasklets,
            budget,
            sink,
            engine,
            None,
        )
    }

    /// The interpreter core over a decoded instruction stream.
    ///
    /// Sets up an [`Interp`] and runs the selected [`Engine`] over it:
    ///
    /// * the **reference loop** ([`Interp::run_reference`]) — one
    ///   `Pipeline::pick` per issue slot, exactly the semantics every
    ///   observable figure is defined by. Traced and profiled runs always
    ///   take it regardless of `engine`, so the existing
    ///   traced-vs-untraced equality tests double as fast-vs-reference
    ///   identity checks;
    /// * the **superblock engine** ([`Interp::run_fast`] with no compiled
    ///   program) — fast-forwards whole straight-line blocks and whole
    ///   rounds of periodic multi-tasklet schedules in one dispatch,
    ///   observationally invisible by construction (see the per-method
    ///   proofs and `docs/PERFORMANCE.md`);
    /// * the **compiled tier** (the same loop with `compiled` wired in) —
    ///   additionally executes threaded-code block chains
    ///   ([`Interp::run_compiled`]) inside the batched modes, deopting
    ///   onto the superblock paths everywhere else. Armed fault injection
    ///   downgrades this tier to the superblock engine so injected-fault
    ///   runs stay on the thoroughly-pinned paths.
    #[allow(clippy::too_many_arguments)]
    fn run_code(
        &mut self,
        code: &[ExecInstr],
        sb: &Superblocks,
        compiled: Option<&CompiledProgram>,
        tasklets: usize,
        budget: u64,
        sink: &mut dyn TraceSink,
        engine: Engine,
        profile: Option<&mut CycleAttribution>,
    ) -> Result<RunResult> {
        if tasklets == 0 || tasklets > self.params.max_tasklets {
            return Err(Error::BadTaskletCount {
                requested: tasklets,
                max: self.params.max_tasklets,
            });
        }
        let iram_bytes = code.len() * crate::isa::INSTR_BYTES;
        if iram_bytes > self.params.iram_bytes {
            return Err(Error::ProgramTooLarge {
                bytes: iram_bytes,
                iram_bytes: self.params.iram_bytes,
            });
        }

        // A launch resets the perf counter: state armed by a previous run
        // on this machine — including one that faulted or whose host
        // worker panicked mid-kernel — must not leak into this run's
        // `perfcounter_get` reads.
        self.perf = PerfCounter::new();

        let mut budget = budget;
        if let Some(f) = self.faults.as_mut() {
            if f.offline() {
                f.log(FaultKind::DpuOffline, 0);
                return Err(Error::DpuOffline);
            }
            if let Some(hang) = f.hang_after() {
                // An injected hang is a run that never halts; the clamped
                // budget is the watchdog cutting it off.
                budget = budget.min(hang);
            }
        }

        // Armed faults deoptimize the compiled tier onto the superblock
        // engine: injection is rare and every injection site (DMA, hang
        // clamp) lives on boundary instructions, so keeping armed runs off
        // the threaded code costs nothing while keeping fault logs and
        // error sites on the longest-pinned paths. An empty compilation
        // (nothing hot, or everything filtered) downgrades too — every
        // dispatch would probe and deopt, so skipping the probes makes the
        // uncompilable case exactly the superblock engine.
        let engine = if engine == Engine::Compiled
            && (self.faults.is_some() || compiled.is_none_or(CompiledProgram::is_empty))
        {
            Engine::Superblock
        } else {
            engine
        };

        let pipeline = Pipeline::with_stages(tasklets, u64::from(self.params.pipeline_stages));
        let live = if code.is_empty() { 0 } else { tasklets };
        let dma_cycles_before = self.dma.total_cycles;
        let dma_transfers_before = self.dma.transfers;
        let dma_bytes_before = self.dma.total_bytes;

        let mut interp = Interp {
            pipeline,
            threads: (0..tasklets).map(|_| Tasklet::new()).collect(),
            dma_stream_free: 0,
            single: tasklets == 1,
            runnable: vec![!code.is_empty(); tasklets],
            live,
            runnable_count: live,
            parked: 0,
            at_barrier: vec![false; tasklets],
            op_counts: [0; OP_COUNT],
            mutex_owner: vec![None; MUTEX_IDS],
            mutex_waiters: vec![std::collections::VecDeque::new(); MUTEX_IDS],
            result: RunResult::default(),
            paths: EnginePaths::default(),
            window_wait: 0,
            window_fails: 0,
            window_stores: true,
            near: Vec::new(),
            period: Period::default(),
            scratch: WindowScratch::default(),
            mem: WindowMemory::default(),
            mem_taken: false,
            active: if code.is_empty() { Vec::new() } else { (0..tasklets).collect() },
            sched_changed: false,
            code,
            sb,
            compiled: if engine == Engine::Compiled { compiled } else { None },
            budget,
            machine: self,
            sink,
        };
        if interp.sink.is_enabled() {
            interp.sink.record(TraceEvent::KernelLaunch { tasklets: tasklets as u8, cycle: 0 });
        }

        // Traced and profiled runs take the reference path:
        // per-instruction stepping trivially emits identical events and
        // per-slot attribution, and the traced-vs-untraced identity tests
        // then pin the fast engine against the reference.
        let outcome = if let Some(attr) = profile {
            attr.prepare(sb, tasklets);
            interp.run_reference_profiled(attr)
        } else if engine == Engine::Reference || interp.sink.is_enabled() {
            interp.run_reference()
        } else {
            let outcome = interp.run_fast();
            let windowed = interp.paths.window_slots + interp.paths.single_slots;
            interp.paths.sole_slots = interp.pipeline.issued() - windowed;
            outcome
        };
        if interp.mem_taken {
            let mem = std::mem::take(&mut interp.mem);
            WINDOW_MEMORY.with(|m| *m.borrow_mut() = mem);
        }
        if let Err(e) = outcome {
            if let Error::CycleBudgetExceeded { budget: hit } = e {
                if let Some(f) = interp.machine.faults.as_mut() {
                    if f.hang_after() == Some(hit) {
                        f.log(FaultKind::TaskletHang { budget: hit }, hit);
                    }
                }
            }
            return Err(e);
        }

        let mut result = interp.result;
        result.op_histogram = exec::fold_histogram(&interp.op_counts);
        result.cycles = interp.pipeline.elapsed();
        result.instructions = interp.pipeline.issued();
        result.idle_cycles = interp.pipeline.idle_cycles();
        result.issue_per_tasklet = interp.pipeline.issued_per_tasklet().to_vec();
        result.paths = interp.paths;
        result.dma_cycles = self.dma.total_cycles - dma_cycles_before;
        result.dma_transfers = self.dma.transfers - dma_transfers_before;
        result.dma_bytes = self.dma.total_bytes - dma_bytes_before;
        if sink.is_enabled() {
            sink.record(TraceEvent::KernelComplete {
                cycle: result.cycles,
                instructions: result.instructions,
            });
        }
        Ok(result)
    }
}

/// In-flight state of one kernel run.
///
/// Scheduling state is tracked incrementally — `live` (non-halted),
/// `parked` (at a barrier) and `runnable_count` are counters updated at
/// state transitions rather than flag vectors rescanned every issue slot —
/// and the op histogram is a fixed-size array indexed by opcode id, folded
/// into the public `BTreeMap` once at run end. With a single tasklet the
/// mutex/barrier machinery is bypassed entirely: a barrier releases
/// immediately and a lock can never block, so neither needs bookkeeping.
struct Interp<'a> {
    machine: &'a mut Machine,
    sink: &'a mut dyn TraceSink,
    code: &'a [ExecInstr],
    sb: &'a Superblocks,
    /// Threaded-code tier for this run; `None` on reference/superblock
    /// runs and under armed fault injection (see [`Machine::run_code`]).
    compiled: Option<&'a CompiledProgram>,
    budget: u64,
    pipeline: Pipeline,
    threads: Vec<Tasklet>,
    /// First cycle at which the DMA engine's shared streaming port
    /// (2 bytes/cycle) is free: concurrent transfers from different
    /// tasklets serialize their data movement, while the fixed setup
    /// latency overlaps.
    dma_stream_free: u64,
    single: bool,
    runnable: Vec<bool>,
    /// Non-halted tasklets. Every live, non-runnable tasklet is either
    /// parked at a barrier or blocked on a mutex, so `live - parked` is
    /// the mutex-blocked population.
    live: usize,
    runnable_count: usize,
    /// Tasklets waiting at a barrier. Parked tasklets are temporarily not
    /// runnable; when every live tasklet is parked, all release. Tasklets
    /// blocked on a mutex count as live, so a barrier cannot release past
    /// them (matching hardware semantics — and making a mutex held across
    /// a barrier a detectable deadlock).
    parked: usize,
    at_barrier: Vec<bool>,
    op_counts: [u64; OP_COUNT],
    /// Hardware mutexes: owner per id plus FIFO wait queues, flat arrays
    /// indexed by the 8-bit mutex id — lock/unlock sit on the scheduler
    /// hot path, where hashing would dominate the critical section.
    mutex_owner: Vec<Option<usize>>,
    mutex_waiters: Vec<std::collections::VecDeque<usize>>,
    result: RunResult,
    /// How the fast engine retired slots (see [`EnginePaths`]).
    paths: EnginePaths,
    /// Single slots to run before the next window attempt (`u64::MAX`
    /// once a fault rollback switched windows off).
    window_wait: u64,
    /// Consecutive window attempts that retired nothing (the backoff).
    window_fails: u32,
    /// Whether windows may contain stores (cleared by a WRAM conflict).
    window_stores: bool,
    /// Reused buffers of the window engine: the near set, its period,
    /// the chunk snapshots, and the thread's [`WindowMemory`] while this
    /// run holds it (`mem_taken`).
    near: Vec<usize>,
    period: Period,
    scratch: WindowScratch,
    mem: WindowMemory,
    mem_taken: bool,
    /// Ascending list of exactly the runnable tasklet indices, maintained
    /// incrementally at every transition so `Pipeline::pick_from` probes
    /// only live candidates instead of scanning every tasklet's flag.
    active: Vec<usize>,
    /// Set whenever the runnable set changes (halt, barrier park/release,
    /// mutex block/wake); cleared at the top of the fast engine's mode
    /// loop so the per-slot path knows when to re-evaluate its mode.
    sched_changed: bool,
}

/// How a compiled chain runs ([`Interp::run_compiled`]).
#[derive(Debug, Clone, Copy)]
struct ChainMode {
    /// Tasklets each executed slot stands for: the histogram and
    /// [`EnginePaths::chain_slots`] scale by it.
    replicas: u64,
    /// A replicated lockstep chain: tasklet-sensitive blocks stop it.
    replicate: bool,
    /// A tracked window run: every access is tagged and every store
    /// logged for undo.
    track: bool,
    /// Stores may run (false in lockstep chains and in windows once a
    /// conflict barred them).
    stores: bool,
}

impl ChainMode {
    /// Sole mode: one tasklet, accesses run untagged.
    const SOLE: Self = Self { replicas: 1, replicate: false, track: false, stores: true };
}

/// Issue-slot classification used by the batched fast paths.
enum SlotKind {
    /// An inline (schedule-neutral) instruction was dispatched; its pick
    /// is accounted to the current batch.
    Advanced,
    /// The instruction needs scheduler or timing machinery (it can change
    /// the runnable set, stall, burst, or read the clock) or ends a
    /// window; nothing was executed and no pick was consumed.
    Boundary,
    /// Inside a window only: the access touched a WRAM word another
    /// tasklet of the chunk touched, one of them storing; the chunk must
    /// be discarded.
    Conflict,
}

/// Number of addressable hardware mutexes (the id is a byte).
const MUTEX_IDS: usize = 256;

/// Opcode classes the batched fast paths may dispatch with a *deferred*
/// pipeline update: ops that always occupy exactly one issue slot and
/// cannot change the runnable set, stall, start a burst, or observe the
/// clock. Indexed by [`exec::op_id`]; kept in sync with the dispatch in
/// [`Interp::dispatch_inline`] (enforced by a unit test).
const INLINE_OP: [bool; OP_COUNT] = [
    true,  // nop
    false, // halt — ends the tasklet, changes the runnable set
    true,  // movi
    true,  // mov
    true,  // add (+ addi)
    true,  // sub
    true,  // and
    true,  // or
    true,  // xor
    true,  // lsl (+ lsli)
    true,  // lsr (+ lsri)
    true,  // asr (+ asri)
    true,  // mul8
    true,  // popcount
    true,  // load — may fault, but faults flush the batch first
    true,  // store
    false, // mram.read — stalls the tasklet on the DMA engine
    false, // mram.write
    true,  // branch — control flow is data, not scheduling
    true,  // jump (+ jal, jr)
    false, // call — starts a subroutine burst
    false, // perf — reads the pipeline clock at its own issue slot
    true,  // me (tasklet id)
    true,  // trace
    false, // barrier — parks the tasklet
    false, // mutex — may block or wake tasklets
];

impl Interp<'_> {
    /// Release a full barrier when every live tasklet is parked. (A lone
    /// tasklet never parks — its barriers release at the issue slot.)
    fn release_full_barrier(&mut self) {
        for (r, b) in self.runnable.iter_mut().zip(self.at_barrier.iter_mut()) {
            if *b {
                *b = false;
                *r = true;
            }
        }
        self.runnable_count += self.parked;
        self.parked = 0;
        self.active.clear();
        self.active.extend((0..self.runnable.len()).filter(|&t| self.runnable[t]));
        self.sched_changed = true;
    }

    /// Remove tasklet `t` from the compact runnable list (it halted,
    /// parked, or blocked).
    fn active_remove(&mut self, t: usize) {
        if let Ok(i) = self.active.binary_search(&t) {
            self.active.remove(i);
        }
        self.sched_changed = true;
    }

    /// Insert tasklet `t` into the compact runnable list (it woke).
    fn active_insert(&mut self, t: usize) {
        if let Err(i) = self.active.binary_search(&t) {
            self.active.insert(i, t);
        }
        self.sched_changed = true;
    }

    /// The per-instruction reference loop: one `Pipeline::pick`, one
    /// budget check, one fetch-dispatch per issue slot. Every observable
    /// figure (cycles, traces, histograms, Deadlock accounting) is defined
    /// by this loop; [`Interp::run_fast`] must match it bit-for-bit.
    // Kept out of `run_code`: inlined there, the loop's code placement
    // cost the reference tier ~20 % on the mutex-heavy microbenchmark.
    #[inline(never)]
    fn run_reference(&mut self) -> Result<()> {
        loop {
            if !self.single && self.parked > 0 && self.parked == self.live {
                self.release_full_barrier();
            }
            if self.runnable_count == 0 {
                if self.live == 0 {
                    return Ok(()); // clean completion
                }
                return Err(Error::Deadlock {
                    at_barrier: self.parked,
                    on_mutex: self.live - self.parked,
                });
            }
            let Some(t) = self.pipeline.pick(&self.runnable) else { return Ok(()) };
            if self.pipeline.elapsed() > self.budget {
                return Err(Error::CycleBudgetExceeded { budget: self.budget });
            }
            let th = &mut self.threads[t];
            if th.burst > 0 {
                th.burst -= 1;
                continue;
            }
            self.step(t)?;
        }
    }

    /// [`Interp::run_reference`] with per-slot cycle attribution.
    ///
    /// Identical control flow — one `pick`, one budget check, one
    /// fetch-dispatch per issue slot — plus, per slot, the makespan delta
    /// it advanced the pipeline by (`elapsed` is monotone across picks,
    /// so the deltas telescope exactly to the final cycle count). The
    /// delta lands on the issued instruction's partition piece, or on the
    /// in-flight subroutine for burst slots; idle and stall gaps are
    /// charged to the instruction that waited behind them. Attribution
    /// only *observes* the run: results stay bit-identical to
    /// [`Interp::run_reference`].
    fn run_reference_profiled(&mut self, attr: &mut CycleAttribution) -> Result<()> {
        // Hoist the per-slot call-site probe out of the loop: one table
        // lookup per slot instead of loading and matching the decoded
        // instruction (which `step` will load again anyway).
        let callsub: Vec<Option<&'static str>> = self
            .code
            .iter()
            .map(|c| match c.instr {
                Instr::CallSub { sub, .. } => Some(sub.symbol()),
                _ => None,
            })
            .collect();
        let mut last = self.pipeline.elapsed();
        loop {
            if !self.single && self.parked > 0 && self.parked == self.live {
                self.release_full_barrier();
            }
            if self.runnable_count == 0 {
                if self.live == 0 {
                    return Ok(());
                }
                return Err(Error::Deadlock {
                    at_barrier: self.parked,
                    on_mutex: self.live - self.parked,
                });
            }
            let Some(t) = self.pipeline.pick(&self.runnable) else { return Ok(()) };
            let now = self.pipeline.elapsed();
            if now > self.budget {
                return Err(Error::CycleBudgetExceeded { budget: self.budget });
            }
            let delta = now - last;
            last = now;
            let th = &mut self.threads[t];
            if th.burst > 0 {
                th.burst -= 1;
                attr.record_burst(t, delta);
                continue;
            }
            let pc = th.pc as usize;
            // An out-of-range pc is about to fault in `step`; leave its
            // slot unattributed rather than index past the partition.
            if pc < self.code.len() {
                attr.record_slot(t, pc, delta);
                if let Some(symbol) = callsub[pc] {
                    attr.begin_burst(t, pc, symbol);
                }
            }
            self.step(t)?;
        }
    }

    /// The superblock engine. Same observable semantics as
    /// [`Interp::run_reference`], reached through three paths:
    ///
    /// * **sole mode** — exactly one runnable tasklet (the other tasklets
    ///   halted, parked, or blocked; DMA-stalled tasklets stay runnable,
    ///   so one runnable truly means one issuer): inline instructions and
    ///   memoized superblocks dispatch in a batch whose picks flush as one
    ///   `fast_forward_sole`, and the `pick` probe is skipped entirely;
    /// * **schedule-replay windows** ([`Interp::run_window`]) — when the
    ///   dispatcher's next round of picks provably repeats, whole rounds
    ///   execute tasklet-major and the pipeline catches up in closed form;
    /// * otherwise one reference-identical slot executes via
    ///   `pick_from` over the compact runnable list.
    ///
    /// Windows are retried after a round of single slots, backing off
    /// exponentially while they keep failing to form, so scheduler-bound
    /// kernels (mutex convoys) do not pay for futile attempts. A fault
    /// rolled back out of a window switches windows off for the rest of
    /// the run: the single-slot path then surfaces it at its exact slot.
    ///
    /// Event-driven cycle skipping needs no extra code here:
    /// `Pipeline::pick` commits the minimum ready cycle directly, so the
    /// clock already jumps over windows where every runnable tasklet is
    /// DMA-stalled.
    ///
    /// With a compiled program wired in (the [`Engine::Compiled`] tier)
    /// sole mode and windows additionally dispatch whole threaded-code
    /// chains via [`Interp::run_compiled`]; everything the chains exit on
    /// deoptimizes to the superblock paths, so this loop *is* the deopt
    /// fallback.
    fn run_fast(&mut self) -> Result<()> {
        loop {
            if !self.single && self.parked > 0 && self.parked == self.live {
                self.release_full_barrier();
            }
            if self.runnable_count == 0 {
                if self.live == 0 {
                    return Ok(());
                }
                return Err(Error::Deadlock {
                    at_barrier: self.parked,
                    on_mutex: self.live - self.parked,
                });
            }
            self.sched_changed = false;
            if self.runnable_count == 1 {
                let t = self.active[0];
                self.run_sole(t)?;
                continue;
            }
            if self.window_wait == 0 {
                let round = self.runnable_count as u64;
                if self.run_window() >= WINDOW_PAYOFF_SLOTS {
                    self.window_fails = 0;
                } else {
                    self.window_fails = (self.window_fails + 1).min(WINDOW_MAX_BACKOFF);
                }
                // A fault rollback parks windows for good; keep it so.
                if self.window_wait == 0 {
                    self.window_wait = round << self.window_fails;
                }
            }
            // Reference-identical single slots. The scheduling predicates
            // above (barrier release, deadlock, mode choice) are functions
            // of the runnable set alone, so slots repeat without
            // re-evaluating them until a dispatch changes it or the next
            // window attempt is due.
            loop {
                let Some(t) = self.pipeline.pick_from(&self.active) else { return Ok(()) };
                if self.pipeline.elapsed() > self.budget {
                    return Err(Error::CycleBudgetExceeded { budget: self.budget });
                }
                self.paths.single_slots += 1;
                self.window_wait = self.window_wait.saturating_sub(1);
                let th = &mut self.threads[t];
                if th.burst > 0 {
                    th.burst -= 1;
                } else {
                    self.step(t)?;
                }
                if self.sched_changed || self.window_wait == 0 {
                    break;
                }
            }
        }
    }

    /// Sole-runnable mode: tasklet `t` is the only one the dispatcher can
    /// pick, so every issue lands exactly `stages` after the previous one
    /// and the pipeline update for a run of inline instructions is a
    /// closed form. The batch loop dispatches inline instructions (whole
    /// memoized superblocks at a time where possible) with the pipeline
    /// untouched, then flushes the accumulated `k` picks as one
    /// `fast_forward_sole`; boundary instructions flush first and take a
    /// reference-identical slot. Inline ops cannot change the runnable
    /// set, so the mode only needs re-checking after a boundary dispatch.
    ///
    /// Budget semantics match the reference exactly: after `k` issues the
    /// reference's post-pick check sees `elapsed = first + k*stages`, so
    /// the batch is capped so `first + k*stages` never leaves the budget,
    /// and once fewer than `stages` cycles of headroom remain the
    /// overrunning pick is issued singly so the error surfaces with
    /// identical partial state.
    fn run_sole(&mut self, t: usize) -> Result<()> {
        while self.runnable_count == 1 && self.runnable[t] {
            let stages = self.pipeline.stages();
            let first = self.pipeline.next_issue_at(t);
            let burst = self.threads[t].burst;
            if burst > 0 {
                if first.saturating_add(burst * stages) <= self.budget {
                    self.pipeline.fast_forward_sole(t, burst);
                    self.threads[t].burst = 0;
                } else {
                    self.pipeline.pick_sole(t);
                    if self.pipeline.elapsed() > self.budget {
                        return Err(Error::CycleBudgetExceeded { budget: self.budget });
                    }
                    self.threads[t].burst -= 1;
                }
                continue;
            }
            let headroom = self.budget.saturating_sub(first);
            if headroom < stages {
                // The next pick overruns the budget no matter what the
                // instruction is; issue it singly and surface the error.
                self.pipeline.pick_sole(t);
                return Err(Error::CycleBudgetExceeded { budget: self.budget });
            }
            // Largest batch whose final pick keeps `first + k*stages`
            // inside the budget. Far from the budget the division is
            // replaced by a safe underestimate (the batch just flushes
            // and re-enters); the exact quotient only matters close to
            // exhaustion.
            let k_cap = if headroom >= (1 << 32) && stages <= 64 {
                headroom >> 6
            } else {
                headroom / stages
            };
            let mut k: u64 = 0;
            loop {
                if k >= k_cap {
                    if k > 0 {
                        self.pipeline.fast_forward_sole(t, k);
                    }
                    break;
                }
                let pc = self.threads[t].pc as usize;
                // Threaded-code chains run first: whole block sequences
                // per dispatch, deopting back here (ran == 0 falls
                // through with pc unchanged, so progress is guaranteed by
                // the per-op paths below).
                if let Some(bid) = self.compiled.and_then(|cp| cp.block_id_at(pc)) {
                    let ran = self.run_compiled(t, bid, k_cap - k, ChainMode::SOLE);
                    if ran > 0 {
                        k += ran;
                        continue;
                    }
                }
                let len = u64::from(self.sb.len_at(pc));
                if len >= 2 && k + len <= k_cap {
                    self.apply_block(t, pc, len as usize);
                    k += len;
                    continue;
                }
                match self.dispatch_inline::<false, false>(t) {
                    Ok(SlotKind::Advanced) => k += 1,
                    Ok(SlotKind::Boundary | SlotKind::Conflict) => {
                        if k > 0 {
                            self.pipeline.fast_forward_sole(t, k);
                        }
                        self.pipeline.pick_sole(t);
                        if self.pipeline.elapsed() > self.budget {
                            return Err(Error::CycleBudgetExceeded { budget: self.budget });
                        }
                        self.step(t)?;
                        break;
                    }
                    Err(e) => {
                        // The faulting instruction consumed its pick before
                        // the dispatch failed, exactly as in the reference.
                        self.pipeline.fast_forward_sole(t, k + 1);
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Try one schedule-replay window; returns the slots it retired.
    ///
    /// The invariant it rests on: while every issued op is an
    /// [`INLINE_OP`], the dispatcher's pick sequence depends only on
    /// pipeline state, never on what the ops compute — an inline op takes
    /// one slot, stalls nothing, starts no burst and leaves the runnable
    /// set alone (burst slots are schedule-neutral too). So the window
    /// first schedules with the [`Pipeline`] alone:
    ///
    /// * the *near* tasklets (ready within `stages` of the clock) must
    ///   form a [`Period`]: one round of picks after which the cursor and
    ///   every clamped ready offset repeat, so every later round repeats
    ///   it too;
    /// * the rest (DMA-stalled) stay out, and the rounds stop before the
    ///   earliest of them wakes; the cycle budget caps them exactly where
    ///   the reference loop's per-pick check would fire.
    ///
    /// Then it executes R rounds — each near tasklet R slots — as a
    /// lockstep prefix ([`Interp::window_lockstep`]) followed by
    /// tasklet-major chunks ([`Interp::window_chunk`]) of geometrically
    /// growing size, until a tasklet reaches an op that ends the window,
    /// and commits all rounds with one [`Pipeline::replay_period`].
    /// Within a round the order in which tasklets run is unobservable:
    /// register effects are private, the histogram commutes, and the
    /// chunks keep WRAM order exact (see [`Interp::window_chunk`]).
    fn run_window(&mut self) -> u64 {
        if self.threads.len() > WINDOW_MAX_TASKLETS {
            self.window_wait = u64::MAX;
            return 0;
        }
        let stages = self.pipeline.stages();
        let now = self.pipeline.current_cycle();
        let mut near = std::mem::take(&mut self.near);
        near.clear();
        let mut wake = u64::MAX;
        for &t in &self.active {
            let ready = self.pipeline.next_ready_of(t);
            if ready < now + stages {
                near.push(t);
            } else {
                wake = wake.min(ready);
            }
        }
        let mut period = std::mem::take(&mut self.period);
        let rounds = if self.pipeline.find_period(&near, &mut period) {
            period.max_rounds(stages, self.budget, wake)
        } else {
            0
        };
        let mut done: u64 = 0;
        let mut chunk = WINDOW_MIN_CHUNK;
        while done < rounds {
            done += self.window_lockstep(period.order(), rounds - done);
            if done == rounds {
                break;
            }
            let cap = chunk.min(rounds - done);
            let ran = self.window_chunk(&near, cap);
            done += ran;
            if ran < cap {
                break;
            }
            chunk = (chunk * 2).min(WINDOW_MAX_CHUNK);
        }
        let slots = done * near.len() as u64;
        if done > 0 {
            self.pipeline.replay_period(&period, done);
            self.paths.windows += 1;
            self.paths.window_slots += slots;
        }
        self.near = near;
        self.period = period;
        slots
    }

    /// The lockstep prefix of a window: while every tasklet in `order`
    /// (one round's pick order) sits at the same pc with no burst, whole
    /// rounds dispatch from a single fetch, up to `cap` rounds; returns
    /// the rounds retired.
    ///
    /// * With identical register files, a threaded-code chain runs ONCE
    ///   on the lead tasklet and its end state is replicated to the rest:
    ///   without stores (they stop the chain) nothing writes WRAM during
    ///   the rounds, so compiled bodies are deterministic functions of the
    ///   private register file (tasklet-sensitive blocks stop the chain)
    ///   and identical inputs load identical words and give identical
    ///   per-tasklet traces.
    /// * Otherwise a memoized superblock replays for each tasklet in one
    ///   go ([`Interp::apply_block_all`]), or one schedule-neutral
    ///   instruction executes for all of them
    ///   ([`Interp::dispatch_round_uniform`], which emits `trace` entries
    ///   in pick order, exactly as the rounds issue them).
    ///
    /// On the compiled tier, divergent register files at a compiled head
    /// end the prefix: per-tasklet chains in the tasklet-major chunks beat
    /// interpreting the block for every tasklet.
    fn window_lockstep(&mut self, order: &[usize], cap: u64) -> u64 {
        let replicas = order.len() as u64;
        let mut done: u64 = 0;
        while done < cap {
            let pc0 = self.threads[order[0]].pc;
            if !order.iter().all(|&t| self.threads[t].pc == pc0 && self.threads[t].burst == 0) {
                break;
            }
            if let Some(bid) = self.compiled.and_then(|cp| cp.block_id_at(pc0 as usize)) {
                if !self.regs_identical(order) {
                    break;
                }
                let lead = order[0];
                let mode = ChainMode { replicas, replicate: true, track: false, stores: false };
                let ran = self.run_compiled(lead, bid, cap - done, mode);
                if ran > 0 {
                    let pc_after = self.threads[lead].pc;
                    let regs_after = self.threads[lead].regs;
                    for &t in &order[1..] {
                        let th = &mut self.threads[t];
                        th.regs = regs_after;
                        th.pc = pc_after;
                    }
                    done += ran;
                    continue;
                }
            }
            let len = u64::from(self.sb.len_at(pc0 as usize));
            if len >= 2 && done + len <= cap {
                self.apply_block_all(order, pc0 as usize, len as usize);
                done += len;
                continue;
            }
            if self.dispatch_round_uniform(order, pc0) {
                done += 1;
                continue;
            }
            break;
        }
        done
    }

    /// Run up to `cap` rounds of the window tasklet-major: each tasklet in
    /// `near` runs alone for its share of slots (burst slots, compiled
    /// chains, superblocks, then inline ops) before the next starts.
    /// Returns the rounds committed: the smallest share any tasklet ran
    /// before reaching an op that ends the window (a boundary, a `trace`,
    /// or a store once stores are barred). Tasklets that ran past it are
    /// rewound — register snapshot restored, their own undo-log segment
    /// replayed backwards, their op-count delta subtracted — and re-run
    /// up to it.
    ///
    /// Reordering WRAM accesses across tasklets is unobservable unless
    /// two tasklets touch one word and at least one of them stores to
    /// it, so the chunk tags every access in a word-granular map and, on
    /// such a conflict, discards itself: undo log, registers and op
    /// counts roll back to the chunk start, and no store is admitted into
    /// a window for the rest of the run. A fault rolls back the same way;
    /// the caller's single-slot path then surfaces it at its exact slot.
    /// Either way the undo log covers this chunk only.
    fn window_chunk(&mut self, near: &[usize], cap: u64) -> u64 {
        // A tasklet parked on an op that ends the window makes the chunk
        // empty; check before running anybody.
        for &t in near {
            if self.threads[t].burst == 0 && !self.window_admits(t) {
                return 0;
            }
        }
        if !self.mem_taken {
            self.mem = WINDOW_MEMORY.with(|m| m.take());
            self.mem_taken = true;
        }
        self.mem.begin(self.machine.wram.len().div_ceil(4));
        let ops_at_start = self.op_counts;
        let chain_at_start = self.paths.chain_slots;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.snap.clear();
        scratch.snap.extend(near.iter().map(|&t| self.threads[t].clone()));
        scratch.runs.clear();
        let mut cap = cap;
        let mut failed = None;
        for &t in near {
            let before = self.op_counts;
            let chain_before = self.paths.chain_slots;
            let log_start = self.mem.undo.len();
            match self.window_run::<true>(t, cap) {
                Ok(Some(ran)) => {
                    let mut delta = self.op_counts;
                    for (d, b) in delta.iter_mut().zip(&before) {
                        *d -= b;
                    }
                    scratch.runs.push(TaskletRun {
                        ran,
                        log: log_start..self.mem.undo.len(),
                        delta,
                        chain_slots: self.paths.chain_slots - chain_before,
                    });
                    cap = cap.min(ran);
                }
                Ok(None) => {
                    failed = Some(false);
                    break;
                }
                Err(_) => {
                    failed = Some(true);
                    break;
                }
            }
        }
        self.mem.end();
        if let Some(fault) = failed {
            for u in self.mem.undo.iter().rev() {
                u.restore(&mut self.machine.wram);
            }
            for (&t, snap) in near.iter().zip(&scratch.snap) {
                self.threads[t].clone_from(snap);
            }
            self.op_counts = ops_at_start;
            self.paths.chain_slots = chain_at_start;
            if fault {
                self.paths.fault_rollbacks += 1;
                self.window_wait = u64::MAX;
            } else {
                self.paths.conflicts += 1;
                self.window_stores = false;
            }
            self.scratch = scratch;
            return 0;
        }
        for ((&t, run), snap) in near.iter().zip(&scratch.runs).zip(&scratch.snap) {
            if run.ran <= cap {
                continue;
            }
            for u in self.mem.undo[run.log.clone()].iter().rev() {
                u.restore(&mut self.machine.wram);
            }
            self.threads[t].clone_from(snap);
            for (o, d) in self.op_counts.iter_mut().zip(&run.delta) {
                *o -= d;
            }
            self.paths.chain_slots -= run.chain_slots;
            // The prefix already ran once without conflict or fault, so
            // re-running it reads the same words and must stop at `cap`.
            let rerun = self.window_run::<false>(t, cap);
            debug_assert_eq!(rerun, Ok(Some(cap)), "window replay diverged");
        }
        self.scratch = scratch;
        cap
    }

    /// Can tasklet `t`'s next instruction run inside a window?
    fn window_admits(&self, t: usize) -> bool {
        match self.code.get(self.threads[t].pc as usize) {
            Some(&ExecInstr { instr, op }) => {
                INLINE_OP[op as usize]
                    && !matches!(instr, Instr::Trace { .. })
                    && (self.window_stores || !matches!(instr, Instr::Store { .. }))
            }
            None => false,
        }
    }

    /// Run tasklet `t` alone for up to `cap` window slots: burst slots
    /// first, then compiled chains, superblocks and single inline ops.
    /// Returns the slots retired (fewer than `cap` when the next op ends
    /// the window), `None` on a WRAM conflict, or the fault. `TRACK`
    /// tags accesses and logs stores; the rewind re-run skips both.
    fn window_run<const TRACK: bool>(&mut self, t: usize, cap: u64) -> Result<Option<u64>> {
        let burst = self.threads[t].burst.min(cap);
        self.threads[t].burst -= burst;
        let mut k = burst;
        while k < cap {
            let pc = self.threads[t].pc as usize;
            if let Some(bid) = self.compiled.and_then(|cp| cp.block_id_at(pc)) {
                let mode = ChainMode {
                    replicas: 1,
                    replicate: false,
                    track: TRACK,
                    stores: self.window_stores,
                };
                let ran = self.run_compiled(t, bid, cap - k, mode);
                if ran > 0 {
                    k += ran;
                    continue;
                }
            }
            let len = u64::from(self.sb.len_at(pc));
            if len >= 2 {
                let n = len.min(cap - k);
                if n == len {
                    self.apply_block(t, pc, len as usize);
                } else {
                    self.apply_seq(t, pc, n as usize);
                }
                k += n;
                continue;
            }
            match self.dispatch_inline::<true, TRACK>(t)? {
                SlotKind::Advanced => k += 1,
                SlotKind::Boundary => break,
                SlotKind::Conflict => return Ok(None),
            }
        }
        Ok(Some(k))
    }

    /// Replay `len` superblock instructions at `pc` for every tasklet in
    /// `order` (the lockstep bulk path), hoisting the memoized-head lookup
    /// and the histogram fold out of the per-tasklet loop.
    fn apply_block_all(&mut self, order: &[usize], pc: usize, len: usize) {
        let code = self.code;
        let slice = &code[pc..pc + len];
        let replicas = order.len() as u64;
        let memoized = match self.sb.head_meta(pc) {
            Some(meta) if meta.len as usize == len => {
                for &(op, c) in &meta.op_counts {
                    self.op_counts[op as usize] += u64::from(c) * replicas;
                }
                true
            }
            _ => false,
        };
        if !memoized {
            for slot in slice {
                self.op_counts[slot.op as usize] += replicas;
            }
        }
        for &t in order {
            let th = &mut self.threads[t];
            for slot in slice {
                apply_pure(th, t, &slot.instr);
            }
            th.pc = (pc + len) as u32;
        }
    }

    /// Dispatch the instruction at `pc0` once for every tasklet in `order`
    /// — all of them sit at that pc — from a single fetch and classify.
    /// Returns false (no state touched) for instructions that can fault or
    /// leave the inline class; the caller falls back to per-slot dispatch.
    fn dispatch_round_uniform(&mut self, order: &[usize], pc0: u32) -> bool {
        let Some(&ExecInstr { instr, op }) = self.code.get(pc0 as usize) else {
            return false;
        };
        match instr {
            Instr::Trace { ra } => {
                for &t in order {
                    let th = &mut self.threads[t];
                    self.result.trace.push((t, th.get(ra)));
                    th.pc = pc0.wrapping_add(1);
                }
            }
            Instr::Load { .. } | Instr::Store { .. } => return false,
            _ if INLINE_OP[op as usize] => {
                for &t in order {
                    apply_reg_op(&mut self.threads[t], t, &instr);
                }
            }
            _ => return false,
        }
        self.op_counts[op as usize] += order.len() as u64;
        true
    }

    /// Dispatch one instruction for tasklet `t` *without touching the
    /// pipeline*, for the batched fast paths: the caller has reserved the
    /// issue slot and will flush the pipeline update for the whole batch.
    /// Only [`INLINE_OP`] classes execute; anything else returns
    /// [`SlotKind::Boundary`] untouched. A fault (bad load/store address)
    /// leaves pc on the faulting instruction with its op counted, exactly
    /// like [`Interp::step`].
    ///
    /// `WINDOW` gives window semantics: `trace` is a boundary (its log
    /// order is the schedule's, which tasklet-major execution does not
    /// follow), so is a store once stores are barred, and with `TRACK`
    /// every WRAM access is tagged — a conflict returns
    /// [`SlotKind::Conflict`] with the access undone — and every store
    /// logged for undo.
    fn dispatch_inline<const WINDOW: bool, const TRACK: bool>(
        &mut self,
        t: usize,
    ) -> Result<SlotKind> {
        let pc = self.threads[t].pc as usize;
        let &ExecInstr { instr, op } =
            self.code.get(pc).ok_or(Error::PcOutOfRange { pc, len: self.code.len() })?;
        if !INLINE_OP[op as usize]
            || (WINDOW
                && match instr {
                    Instr::Trace { .. } => true,
                    Instr::Store { .. } => !self.window_stores,
                    _ => false,
                })
        {
            return Ok(SlotKind::Boundary);
        }
        self.op_counts[op as usize] += 1;
        let th = &mut self.threads[t];
        match instr {
            Instr::Load { width, rd, ra, off } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let v = wram_read(&self.machine.wram, width, addr)?;
                if TRACK && !self.mem.touch(addr, width, t, false) {
                    return Ok(SlotKind::Conflict);
                }
                th.set(rd, v);
            }
            Instr::Store { width, ra, off, rs } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                if TRACK {
                    let old = wram_read(&self.machine.wram, width, addr)?;
                    if !self.mem.touch(addr, width, t, true) {
                        return Ok(SlotKind::Conflict);
                    }
                    self.mem.undo.push(Undo { addr: addr as u32, width, old });
                }
                wram_write(&mut self.machine.wram, width, addr, th.get(rs))?;
            }
            Instr::Trace { ra } => self.result.trace.push((t, th.get(ra))),
            _ => {
                apply_reg_op(th, t, &instr);
                return Ok(SlotKind::Advanced);
            }
        }
        th.pc = th.pc.wrapping_add(1);
        Ok(SlotKind::Advanced)
    }

    /// Execute `count` superblock instructions for tasklet `t` starting at
    /// `pc`, using the memoized head histogram when the span is exactly a
    /// memoized block.
    fn apply_block(&mut self, t: usize, pc: usize, count: usize) {
        if let Some(meta) = self.sb.head_meta(pc) {
            if meta.len as usize == count {
                for &(op, c) in &meta.op_counts {
                    self.op_counts[op as usize] += u64::from(c);
                }
                let th = &mut self.threads[t];
                for slot in &self.code[pc..pc + count] {
                    apply_pure(th, t, &slot.instr);
                }
                th.pc = (pc + count) as u32;
                return;
            }
        }
        self.apply_seq(t, pc, count);
    }

    /// Execute `count` superblock instructions for tasklet `t` starting at
    /// `pc`, folding op counts inline (mid-block entry or partial span).
    fn apply_seq(&mut self, t: usize, pc: usize, count: usize) {
        let th = &mut self.threads[t];
        for slot in &self.code[pc..pc + count] {
            self.op_counts[slot.op as usize] += 1;
            apply_pure(th, t, &slot.instr);
        }
        th.pc = (pc + count) as u32;
    }

    /// Execute a threaded-code chain for tasklet `t` starting at compiled
    /// block `bid`, consuming at most `cap` issue slots; returns the
    /// slots consumed (the caller has reserved them and flushes the
    /// pipeline update for the whole batch, exactly as for the other
    /// batched dispatches).
    ///
    /// The chain runs block to block through compiled links — no fetch,
    /// no decode, no per-instruction classify — folding each block's
    /// memoized issue-slot and histogram counts per entry, and executing
    /// the WRAM accesses in the block bodies itself ([`Interp::chain_access`]).
    /// It stops with the tasklet's pc parked on the first instruction it
    /// did not execute, so any engine resumes exactly where the reference
    /// would be, and with exactly the ops before that pc counted:
    ///
    /// * when the next body segment, access or terminator would overrun
    ///   `cap` (budget exactness);
    /// * before an access the chain may not run (see `mode`): one that
    ///   would fault, a tracked one that conflicts, or a barred store —
    ///   the per-slot path then surfaces the fault, conflict or window
    ///   boundary at its exact slot;
    /// * when a link exits compiled code (a deopt: cold block, boundary
    ///   op, mid-block `jr` target, or end of IRAM — the out-of-range pc
    ///   then faults at the next fetch exactly like the reference).
    ///
    /// Between accesses, compiled bodies touch only the private register
    /// file, are deterministic and cannot observe scheduling, so the
    /// chain needs no budget or scheduler probes mid-flight.
    fn run_compiled(&mut self, t: usize, bid: u32, cap: u64, mode: ChainMode) -> u64 {
        let Some(cp) = self.compiled else { return 0 };
        let mut bid = bid;
        let mut k: u64 = 0;
        loop {
            let b = cp.block(bid);
            // Register-only blocks that fit run straight; the rest take the
            // step-by-step path.
            let fits = k + u64::from(b.slots()) <= cap;
            if fits && b.steps().is_empty() && !(mode.replicate && b.tasklet_sensitive()) {
                b.run_head(&mut self.threads[t].regs, t as u32);
            } else if let Some(used) = self.run_body(t, b, cap - k, mode) {
                // Part of the block ran: fold exactly its ops and park on
                // the first one that did not.
                let pc = b.start() as usize + used as usize;
                for slot in &self.code[b.start() as usize..pc] {
                    self.op_counts[slot.op as usize] += mode.replicas;
                }
                self.threads[t].pc = pc as u32;
                return self.chain_end(k + used, mode);
            }
            for &(op, c) in b.op_counts() {
                self.op_counts[op as usize] += u64::from(c) * mode.replicas;
            }
            k += u64::from(b.slots());
            let link = match *b.term() {
                Term::Next(link) | Term::Jump(link) => link,
                Term::Jal { rd, ret, link } => {
                    self.threads[t].set(rd, ret);
                    link
                }
                Term::Jr { ra } => cp.link_of(self.threads[t].get(ra)),
                Term::Branch { cond, ra, rb, taken, fall } => {
                    let th = &self.threads[t];
                    if cond.eval(th.get(ra), th.get(rb)) {
                        taken
                    } else {
                        fall
                    }
                }
            };
            match link {
                Link::Block(next) => bid = next,
                Link::Exit(pc) => {
                    self.threads[t].pc = pc;
                    return self.chain_end(k, mode);
                }
            }
        }
    }

    /// Run block `b`'s body for tasklet `t` with `room` slots left,
    /// checking every step against the room and every access against
    /// `mode`; `None` when the whole block (terminator slot included)
    /// fits and ran, otherwise the body instructions that ran before the
    /// chain had to stop.
    // Kept out of line: inlined, it slowed `run_compiled`'s loop over
    // register-only blocks (the ALU microbenchmarks) by ~10 %.
    #[inline(never)]
    fn run_body(&mut self, t: usize, b: &CompiledBlock, room: u64, mode: ChainMode) -> Option<u64> {
        let head = u64::from(b.head_len());
        if (mode.replicate && b.tasklet_sensitive()) || head > room {
            return Some(0);
        }
        b.run_head(&mut self.threads[t].regs, t as u32);
        let mut used = head;
        for step in b.steps() {
            if used == room || !self.chain_access(t, step.access(), mode) {
                return Some(used);
            }
            used += 1;
            let len = u64::from(step.len());
            if used + len > room {
                return Some(used);
            }
            step.run(&mut self.threads[t].regs, t as u32);
            used += len;
        }
        (u64::from(b.slots()) > room).then_some(used)
    }

    /// Account a chain that retired `k` slots per replica.
    fn chain_end(&mut self, k: u64, mode: ChainMode) -> u64 {
        self.paths.chain_slots += k * mode.replicas;
        k
    }

    /// Execute one WRAM access of a compiled chain for tasklet `t`, as
    /// [`Interp::dispatch_inline`] would (the caller counts its op);
    /// false, with no register or WRAM byte changed, when the chain must
    /// stop before it: the access would fault, a store is barred by
    /// `mode`, or a tracked access conflicts. (A conflicting access may
    /// leave its first word tagged; tagging is idempotent, so the
    /// per-slot re-dispatch finds the same conflict.)
    #[inline]
    fn chain_access(&mut self, t: usize, access: Access, mode: ChainMode) -> bool {
        let th = &mut self.threads[t];
        match access {
            Access::Load { width, rd, ra, off } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let Ok(v) = wram_read(&self.machine.wram, width, addr) else { return false };
                if mode.track && !self.mem.touch(addr, width, t, false) {
                    return false;
                }
                th.set(rd, v);
            }
            Access::Store { width, ra, off, rs } => {
                if !mode.stores {
                    return false;
                }
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                if mode.track {
                    let Ok(old) = wram_read(&self.machine.wram, width, addr) else { return false };
                    if !self.mem.touch(addr, width, t, true) {
                        return false;
                    }
                    self.mem.undo.push(Undo { addr: addr as u32, width, old });
                }
                // An out-of-range store writes nothing, so the chain can
                // stop before it with WRAM untouched.
                if wram_write(&mut self.machine.wram, width, addr, th.get(rs)).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Do all tasklets in `order` carry the lead tasklet's register file
    /// bit for bit? (The precondition for lockstep chain replication.)
    fn regs_identical(&self, order: &[usize]) -> bool {
        let lead = &self.threads[order[0]].regs;
        order[1..].iter().all(|&t| self.threads[t].regs == *lead)
    }

    /// Fetch and dispatch one instruction for tasklet `t`. The caller has
    /// already picked the issue slot and checked the budget.
    fn step(&mut self, t: usize) -> Result<()> {
        let pc = self.threads[t].pc as usize;
        let &ExecInstr { instr, op } =
            self.code.get(pc).ok_or(Error::PcOutOfRange { pc, len: self.code.len() })?;

        self.op_counts[op as usize] += 1;
        let th = &mut self.threads[t];
        let mut next_pc = th.pc.wrapping_add(1);
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                self.runnable[t] = false;
                self.runnable_count -= 1;
                self.live -= 1;
                self.active_remove(t);
            }
            Instr::Movi { rd, imm } => th.set(rd, imm as u32),
            Instr::Mov { rd, ra } => {
                let v = th.get(ra);
                th.set(rd, v);
            }
            Instr::Add { rd, ra, rb } => {
                let v = th.get(ra).wrapping_add(th.get(rb));
                th.set(rd, v);
            }
            Instr::Addi { rd, ra, imm } => {
                let v = th.get(ra).wrapping_add(imm as u32);
                th.set(rd, v);
            }
            Instr::Sub { rd, ra, rb } => {
                let v = th.get(ra).wrapping_sub(th.get(rb));
                th.set(rd, v);
            }
            Instr::And { rd, ra, rb } => {
                let v = th.get(ra) & th.get(rb);
                th.set(rd, v);
            }
            Instr::Or { rd, ra, rb } => {
                let v = th.get(ra) | th.get(rb);
                th.set(rd, v);
            }
            Instr::Xor { rd, ra, rb } => {
                let v = th.get(ra) ^ th.get(rb);
                th.set(rd, v);
            }
            Instr::Lsl { rd, ra, rb } => {
                let v = th.get(ra) << (th.get(rb) & 31);
                th.set(rd, v);
            }
            Instr::Lsr { rd, ra, rb } => {
                let v = th.get(ra) >> (th.get(rb) & 31);
                th.set(rd, v);
            }
            Instr::Asr { rd, ra, rb } => {
                let v = ((th.get(ra) as i32) >> (th.get(rb) & 31)) as u32;
                th.set(rd, v);
            }
            Instr::Lsli { rd, ra, sh } => {
                let v = th.get(ra) << (sh & 31);
                th.set(rd, v);
            }
            Instr::Lsri { rd, ra, sh } => {
                let v = th.get(ra) >> (sh & 31);
                th.set(rd, v);
            }
            Instr::Asri { rd, ra, sh } => {
                let v = ((th.get(ra) as i32) >> (sh & 31)) as u32;
                th.set(rd, v);
            }
            Instr::Mul8 { rd, ra, rb } => {
                let v = (th.get(ra) & 0xff) * (th.get(rb) & 0xff);
                th.set(rd, v);
            }
            Instr::Popcount { rd, ra } => {
                let v = th.get(ra).count_ones();
                th.set(rd, v);
            }
            Instr::Load { width, rd, ra, off } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let v = match width {
                    Width::B => self.machine.wram.read_u8(addr)?,
                    Width::H => self.machine.wram.read_u16(addr)?,
                    Width::W => self.machine.wram.read_u32(addr)?,
                };
                self.threads[t].set(rd, v);
            }
            Instr::Store { width, ra, off, rs } => {
                let addr = th.get(ra).wrapping_add(off as u32) as usize;
                let v = th.get(rs);
                match width {
                    Width::B => self.machine.wram.write_u8(addr, v)?,
                    Width::H => self.machine.wram.write_u16(addr, v)?,
                    Width::W => self.machine.wram.write_u32(addr, v)?,
                }
            }
            Instr::MramRead { wram, mram, len } | Instr::MramWrite { wram, mram, len } => {
                let w = th.get(wram) as usize;
                let m = th.get(mram) as usize;
                let l = th.get(len) as usize;
                let is_read = matches!(instr, Instr::MramRead { .. });
                // Both interpreter engines route every DMA through this
                // site (the op is a scheduling boundary), so one injection
                // hook covers all execution modes.
                let fault = self.machine.faults.as_mut().and_then(|f| f.on_dma(l));
                if fault == Some(DmaFault::Fail) {
                    let cycle = pipeline_issue_cycle(&self.pipeline);
                    if let Some(f) = self.machine.faults.as_mut() {
                        f.log(FaultKind::DmaFail, cycle);
                    }
                    return Err(Error::DmaFault { pc, bytes: l });
                }
                let cycles = if is_read {
                    self.machine.dma.read(&self.machine.mram, &mut self.machine.wram, m, w, l)?
                } else {
                    self.machine.dma.write(&mut self.machine.mram, &self.machine.wram, m, w, l)?
                };
                let setup = self.machine.params.dma_setup_cycles;
                let stream = cycles.saturating_sub(setup);
                let issue = pipeline_issue_cycle(&self.pipeline);
                let start = issue.max(self.dma_stream_free);
                self.dma_stream_free = start + stream;
                // The issuing tasklet blocks for queueing + setup + its
                // own streaming time.
                self.pipeline.stall(t, (start - issue) + setup + stream);
                if let Some(f @ (DmaFault::FlipBit { .. } | DmaFault::FlipBits2 { .. })) = fault {
                    let (byte, bits, n) = match f {
                        DmaFault::FlipBit { byte, bit } => (byte, [bit, 0], 1),
                        DmaFault::FlipBits2 { byte, bit_a, bit_b } => (byte, [bit_a, bit_b], 2),
                        DmaFault::Fail => unreachable!("Fail returned above"),
                    };
                    // The flip(s) land in the transfer's destination as
                    // the data arrives: WRAM for reads, MRAM for writes.
                    // MRAM flips are *storage* errors: they bypass the
                    // SEC-DED sidecar (and break COW first), so the
                    // scrubber sees a code/data mismatch to repair.
                    let done = start + setup + stream;
                    for &bit in &bits[..n] {
                        let kind = if is_read {
                            let addr = w + byte;
                            let v = self.machine.wram.read_u8(addr)?;
                            self.machine.wram.write_u8(addr, v ^ (1 << bit))?;
                            FaultKind::WramBitFlip { addr: addr as u32, bit }
                        } else {
                            let addr = m + byte;
                            self.machine.mram.flip_bit_raw(addr, bit)?;
                            FaultKind::MramBitFlip { addr: addr as u32, bit }
                        };
                        if let Some(f) = self.machine.faults.as_mut() {
                            f.log(kind, done);
                        }
                    }
                }
                if is_read && self.machine.mram.ecc_enabled() {
                    // Verify-on-read: repair single-bit storage errors in
                    // the source words (surface multi-bit ones), then
                    // re-check the landed bytes against the trusted
                    // source so in-flight corruption is caught too.
                    let repaired = self.machine.mram.verify_range(m, l)?;
                    self.machine.integrity.dma_corrected += repaired;
                    let src = self.machine.mram.to_vec(m, l)?;
                    if self.machine.wram.slice(w, l)? != src.as_slice() {
                        self.machine.wram.write(w, &src)?;
                        self.machine.integrity.dma_corrected += 1;
                    }
                }
                if self.sink.is_enabled() {
                    self.sink.record(TraceEvent::DmaTransfer {
                        tasklet: t as u8,
                        direction: if matches!(instr, Instr::MramRead { .. }) {
                            DmaDirection::MramToWram
                        } else {
                            DmaDirection::WramToMram
                        },
                        bytes: l as u32,
                        start_cycle: start,
                        cycles: setup + stream,
                    });
                }
            }
            Instr::Branch { cond, ra, rb, target } => {
                if cond.eval(th.get(ra), th.get(rb)) {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Jal { rd, target } => {
                th.set(rd, th.pc.wrapping_add(1));
                next_pc = target;
            }
            Instr::Jr { ra } => next_pc = th.get(ra),
            Instr::CallSub { sub, rd, ra, rb } => {
                let a = th.get(ra);
                let b = th.get(rb);
                if matches!(
                    sub,
                    crate::subroutines::Subroutine::Divsi3 | crate::subroutines::Subroutine::Modsi3
                ) && b == 0
                {
                    return Err(Error::DivisionByZero { pc });
                }
                th.set(rd, sub.eval(a, b));
                th.burst = sub.instruction_count().saturating_sub(1);
                self.result.profile.record(sub);
                if self.sink.is_enabled() {
                    self.sink.record(TraceEvent::SubroutineEnter {
                        tasklet: t as u8,
                        symbol: sub.symbol(),
                        cycle: pipeline_issue_cycle(&self.pipeline),
                        instructions: sub.instruction_count() as u32,
                    });
                }
            }
            Instr::PerfConfig => {
                // `pipeline.pick` already advanced time past this issue;
                // the counter bases on the issue cycle itself.
                self.machine.perf.config(pipeline_issue_cycle(&self.pipeline));
            }
            Instr::PerfRead { rd } => {
                let v = self.machine.perf.read(pipeline_issue_cycle(&self.pipeline));
                self.threads[t].set(rd, (v & 0xffff_ffff) as u32);
                self.result.perf_reads.push(v);
            }
            Instr::TaskletId { rd } => th.set(rd, t as u32),
            Instr::Trace { ra } => {
                let v = self.threads[t].get(ra);
                self.result.trace.push((t, v));
            }
            Instr::Barrier => {
                if self.single {
                    // A lone live tasklet satisfies the barrier at its
                    // own arrival: no park, immediate release.
                    if self.sink.is_enabled() {
                        self.sink.record(TraceEvent::TaskletBarrier {
                            tasklet: t as u8,
                            cycle: pipeline_issue_cycle(&self.pipeline),
                            released: true,
                        });
                    }
                } else {
                    self.at_barrier[t] = true;
                    self.runnable[t] = false;
                    self.runnable_count -= 1;
                    self.parked += 1;
                    self.active_remove(t);
                    if self.sink.is_enabled() {
                        self.sink.record(TraceEvent::TaskletBarrier {
                            tasklet: t as u8,
                            cycle: pipeline_issue_cycle(&self.pipeline),
                            released: self.parked == self.live,
                        });
                    }
                }
            }
            Instr::MutexLock { id } => {
                // A lone tasklet always acquires immediately; no state
                // to track since no other tasklet can observe the lock.
                if !self.single {
                    if let Some(owner) = self.mutex_owner[id as usize] {
                        if owner != t {
                            // Block until released; re-execute the lock on
                            // wake (pc stays on this instruction).
                            self.mutex_waiters[id as usize].push_back(t);
                            self.runnable[t] = false;
                            self.runnable_count -= 1;
                            self.active_remove(t);
                            next_pc = self.threads[t].pc;
                        }
                        // Re-locking an owned mutex is a no-op (the real
                        // hardware would deadlock; the simulator is lenient
                        // so generated code can be defensive).
                    } else {
                        self.mutex_owner[id as usize] = Some(t);
                    }
                }
            }
            Instr::MutexUnlock { id } => {
                if !self.single && self.mutex_owner[id as usize] == Some(t) {
                    self.mutex_owner[id as usize] = None;
                    if let Some(next) = self.mutex_waiters[id as usize].pop_front() {
                        self.runnable[next] = true;
                        self.runnable_count += 1;
                        self.active_insert(next);
                    }
                }
            }
        }
        self.threads[t].pc = next_pc;
        Ok(())
    }
}

/// Apply one superblock instruction to tasklet `th` (= tasklet index `t`).
/// Exactly the register-file arms of [`Interp::step`]; the superblock
/// classifier guarantees no other variant reaches here.
fn apply_pure(th: &mut Tasklet, t: usize, instr: &Instr) {
    match *instr {
        Instr::Nop => {}
        Instr::Movi { rd, imm } => th.set(rd, imm as u32),
        Instr::Mov { rd, ra } => {
            let v = th.get(ra);
            th.set(rd, v);
        }
        Instr::Add { rd, ra, rb } => {
            let v = th.get(ra).wrapping_add(th.get(rb));
            th.set(rd, v);
        }
        Instr::Addi { rd, ra, imm } => {
            let v = th.get(ra).wrapping_add(imm as u32);
            th.set(rd, v);
        }
        Instr::Sub { rd, ra, rb } => {
            let v = th.get(ra).wrapping_sub(th.get(rb));
            th.set(rd, v);
        }
        Instr::And { rd, ra, rb } => {
            let v = th.get(ra) & th.get(rb);
            th.set(rd, v);
        }
        Instr::Or { rd, ra, rb } => {
            let v = th.get(ra) | th.get(rb);
            th.set(rd, v);
        }
        Instr::Xor { rd, ra, rb } => {
            let v = th.get(ra) ^ th.get(rb);
            th.set(rd, v);
        }
        Instr::Lsl { rd, ra, rb } => {
            let v = th.get(ra) << (th.get(rb) & 31);
            th.set(rd, v);
        }
        Instr::Lsr { rd, ra, rb } => {
            let v = th.get(ra) >> (th.get(rb) & 31);
            th.set(rd, v);
        }
        Instr::Asr { rd, ra, rb } => {
            let v = ((th.get(ra) as i32) >> (th.get(rb) & 31)) as u32;
            th.set(rd, v);
        }
        Instr::Lsli { rd, ra, sh } => {
            let v = th.get(ra) << (sh & 31);
            th.set(rd, v);
        }
        Instr::Lsri { rd, ra, sh } => {
            let v = th.get(ra) >> (sh & 31);
            th.set(rd, v);
        }
        Instr::Asri { rd, ra, sh } => {
            let v = ((th.get(ra) as i32) >> (sh & 31)) as u32;
            th.set(rd, v);
        }
        Instr::Mul8 { rd, ra, rb } => {
            let v = (th.get(ra) & 0xff) * (th.get(rb) & 0xff);
            th.set(rd, v);
        }
        Instr::Popcount { rd, ra } => {
            let v = th.get(ra).count_ones();
            th.set(rd, v);
        }
        Instr::TaskletId { rd } => th.set(rd, t as u32),
        _ => debug_assert!(false, "non-superblock op {instr:?} in a superblock"),
    }
}

/// Apply a register-only inline instruction — a superblock op or a
/// `branch`/`jump`/`jal`/`jr` — to `th` (= tasklet `t`) and advance its pc.
fn apply_reg_op(th: &mut Tasklet, t: usize, instr: &Instr) {
    let next = th.pc.wrapping_add(1);
    th.pc = match *instr {
        Instr::Branch { cond, ra, rb, target } => {
            if cond.eval(th.get(ra), th.get(rb)) {
                target
            } else {
                next
            }
        }
        Instr::Jump { target } => target,
        Instr::Jal { rd, target } => {
            th.set(rd, next);
            target
        }
        Instr::Jr { ra } => th.get(ra),
        _ => {
            apply_pure(th, t, instr);
            next
        }
    };
}

/// A WRAM load of `width` at `addr`, zero-extended.
fn wram_read(wram: &Wram, width: Width, addr: usize) -> Result<u32> {
    match width {
        Width::B => wram.read_u8(addr),
        Width::H => wram.read_u16(addr),
        Width::W => wram.read_u32(addr),
    }
}

/// A WRAM store of the low `width` bytes of `v` at `addr`.
fn wram_write(wram: &mut Wram, width: Width, addr: usize, v: u32) -> Result<()> {
    match width {
        Width::B => wram.write_u8(addr, v),
        Width::H => wram.write_u16(addr, v),
        Width::W => wram.write_u32(addr, v),
    }
}

/// Undo-log entry: the bytes a window store overwrote.
#[derive(Debug, Clone, Copy)]
struct Undo {
    addr: u32,
    width: Width,
    old: u32,
}

impl Undo {
    fn restore(&self, wram: &mut Wram) {
        wram_write(wram, self.width, self.addr as usize, self.old)
            .expect("undo targets a word the store already wrote");
    }
}

/// Tag bits of a [`WindowMemory`] word: the low 5 bits hold the first
/// tasklet to touch it in the current chunk.
const TAG_OWNER: u8 = 0x1f;
const TAG_SHARED: u8 = 0x20;
const TAG_STORED: u8 = 0x40;
const TAG_LIVE: u8 = 0x80;

/// Word-granular WRAM access tags and the undo log of one window chunk.
///
/// Only the words a chunk touched carry a tag, and [`WindowMemory::end`]
/// clears exactly those, so the map stays one byte per WRAM word and a
/// chunk never pays for the words it did not touch. One instance lives
/// per host thread ([`WINDOW_MEMORY`]) and is lent to each run that
/// needs it, so a launch-many host allocates it once per worker thread.
#[derive(Debug, Default)]
struct WindowMemory {
    tags: Vec<u8>,
    touched: Vec<u32>,
    undo: Vec<Undo>,
}

impl WindowMemory {
    /// Start a chunk over a WRAM of `words` 4-byte words.
    fn begin(&mut self, words: usize) {
        if self.tags.len() < words {
            self.tags.resize(words, 0);
        }
        self.undo.clear();
    }

    /// End the chunk: untag every word it touched.
    fn end(&mut self) {
        for &w in &self.touched {
            self.tags[w as usize] = 0;
        }
        self.touched.clear();
    }

    /// Tag an access of `width` at `addr` by tasklet `t`; false when it
    /// conflicts with another tasklet's access in this chunk.
    fn touch(&mut self, addr: usize, width: Width, t: usize, store: bool) -> bool {
        let bytes = match width {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
        };
        (addr >> 2..=(addr + bytes - 1) >> 2).all(|w| self.touch_word(w, t as u8, store))
    }

    fn touch_word(&mut self, word: usize, t: u8, store: bool) -> bool {
        let tag = self.tags[word];
        let stored = if store { TAG_STORED } else { 0 };
        if tag == 0 {
            self.tags[word] = TAG_LIVE | t | stored;
            self.touched.push(word as u32);
            return true;
        }
        if tag & TAG_SHARED != 0 {
            return !store;
        }
        if tag & TAG_OWNER != t {
            if store || tag & TAG_STORED != 0 {
                return false;
            }
            self.tags[word] = tag | TAG_SHARED;
            return true;
        }
        self.tags[word] = tag | stored;
        true
    }
}

thread_local! {
    /// This thread's [`WindowMemory`], lent to one run at a time.
    static WINDOW_MEMORY: std::cell::RefCell<WindowMemory> =
        std::cell::RefCell::new(WindowMemory::default());
}

/// What one tasklet did in a window chunk, kept for its rewind.
#[derive(Debug, Clone)]
struct TaskletRun {
    /// Slots it retired.
    ran: u64,
    /// Its segment of the chunk's undo log.
    log: std::ops::Range<usize>,
    /// Its op-count contribution.
    delta: [u64; OP_COUNT],
    /// Its contribution to [`EnginePaths::chain_slots`].
    chain_slots: u64,
}

/// Reused per-run buffers of the window chunks.
#[derive(Debug, Default)]
struct WindowScratch {
    /// Register files at the chunk start, parallel to the near set.
    snap: Vec<Tasklet>,
    runs: Vec<TaskletRun>,
}

/// Rounds in a window's first tasklet-major chunk; each full chunk
/// doubles the next, up to [`WINDOW_MAX_CHUNK`]. Small first chunks keep
/// the rewind cost low when a tasklet is about to reach a boundary; large
/// ones amortize the per-chunk snapshot.
const WINDOW_MIN_CHUNK: u64 = 64;
const WINDOW_MAX_CHUNK: u64 = 1024;

/// Cap on the exponent of the single-slot wait between window attempts
/// that keep failing (the wait is `runnable << failures` slots).
const WINDOW_MAX_BACKOFF: u32 = 8;

/// Slots a window must retire to count as a success for the backoff:
/// smaller ones still commit, but retrying right after them (the mutex
/// convoy shape, where two runnable tasklets share a round or two
/// between lock ops) costs more than the single slots they save.
const WINDOW_PAYOFF_SLOTS: u64 = 16;

/// Tasklet ids must fit the tag's owner field.
const WINDOW_MAX_TASKLETS: usize = TAG_OWNER as usize + 1;

/// The cycle at which the most recent instruction issued.
fn pipeline_issue_cycle(p: &Pipeline) -> u64 {
    // `elapsed` = last_issue + stages.
    p.elapsed().saturating_sub(p.stages())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Instr as I, Reg};
    use crate::subroutines::Subroutine;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    #[test]
    fn inline_op_table_matches_classification() {
        use crate::isa::Width;
        // One instance of every instruction variant.
        let variants = [
            I::Nop,
            I::Halt,
            I::Movi { rd: r(1), imm: 0 },
            I::Mov { rd: r(1), ra: r(2) },
            I::Add { rd: r(1), ra: r(2), rb: r(3) },
            I::Addi { rd: r(1), ra: r(2), imm: 1 },
            I::Sub { rd: r(1), ra: r(2), rb: r(3) },
            I::And { rd: r(1), ra: r(2), rb: r(3) },
            I::Or { rd: r(1), ra: r(2), rb: r(3) },
            I::Xor { rd: r(1), ra: r(2), rb: r(3) },
            I::Lsl { rd: r(1), ra: r(2), rb: r(3) },
            I::Lsr { rd: r(1), ra: r(2), rb: r(3) },
            I::Asr { rd: r(1), ra: r(2), rb: r(3) },
            I::Lsli { rd: r(1), ra: r(2), sh: 1 },
            I::Lsri { rd: r(1), ra: r(2), sh: 1 },
            I::Asri { rd: r(1), ra: r(2), sh: 1 },
            I::Mul8 { rd: r(1), ra: r(2), rb: r(3) },
            I::Popcount { rd: r(1), ra: r(2) },
            I::Load { width: Width::W, rd: r(1), ra: r(2), off: 0 },
            I::Store { width: Width::W, ra: r(1), off: 0, rs: r(2) },
            I::MramRead { wram: r(1), mram: r(2), len: r(3) },
            I::MramWrite { wram: r(1), mram: r(2), len: r(3) },
            I::Branch { cond: Cond::Eq, ra: r(1), rb: r(2), target: 0 },
            I::Jump { target: 0 },
            I::Jal { rd: r(1), target: 0 },
            I::Jr { ra: r(1) },
            I::CallSub { sub: Subroutine::Mulsi3, rd: r(1), ra: r(2), rb: r(3) },
            I::PerfConfig,
            I::PerfRead { rd: r(1) },
            I::TaskletId { rd: r(1) },
            I::Trace { ra: r(1) },
            I::Barrier,
            I::MutexLock { id: 0 },
            I::MutexUnlock { id: 0 },
        ];
        for instr in &variants {
            let inline = exec::is_superblock_op(instr)
                || matches!(
                    instr,
                    I::Load { .. }
                        | I::Store { .. }
                        | I::Branch { .. }
                        | I::Jump { .. }
                        | I::Jal { .. }
                        | I::Jr { .. }
                        | I::Trace { .. }
                );
            assert_eq!(
                INLINE_OP[exec::op_id(instr) as usize],
                inline,
                "INLINE_OP disagrees with classification for {instr:?}"
            );
        }
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum 1..=10 into r2.
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 10 },
            I::Movi { rd: r(2), imm: 0 },
            I::Add { rd: r(2), ra: r(2), rb: r(1) },
            I::Addi { rd: r(1), ra: r(1), imm: -1 },
            I::Branch { cond: Cond::Ne, ra: r(1), rb: r(0), target: 2 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(2) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 55);
        // 2 setup + 10×3 loop + store + halt = 34 issue slots.
        assert_eq!(res.instructions, 34);
        assert_eq!(res.cycles, 33 * 11 + 11);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let p = Program::new(vec![
            I::Movi { rd: r(0), imm: 42 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(0) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.wram.write_u32(0, 7).unwrap();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 0);
    }

    #[test]
    fn tasklets_write_disjoint_slots() {
        // Each tasklet stores its id at wram[4*id].
        let p = Program::new(vec![
            I::TaskletId { rd: r(1) },
            I::Lsli { rd: r(2), ra: r(1), sh: 2 },
            I::Store { width: Width::W, ra: r(2), off: 0, rs: r(1) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 8).unwrap();
        for id in 0..8u32 {
            assert_eq!(m.wram.read_u32(4 * id as usize).unwrap(), id);
        }
    }

    #[test]
    fn subroutine_burst_costs_issue_slots() {
        let body = |with_sub: bool| {
            let op = if with_sub {
                I::CallSub { sub: Subroutine::Mulsf3, rd: r(3), ra: r(1), rb: r(2) }
            } else {
                I::Add { rd: r(3), ra: r(1), rb: r(2) }
            };
            Program::new(vec![
                I::Movi { rd: r(1), imm: 1067450368 }, // 1.5f32 bits... any value
                I::Movi { rd: r(2), imm: 1075838976 },
                op,
                I::Halt,
            ])
        };
        let mut m1 = Machine::default();
        let cheap = m1.run(&body(false), 1).unwrap();
        let mut m2 = Machine::default();
        let costly = m2.run(&body(true), 1).unwrap();
        let extra = Subroutine::Mulsf3.instruction_count() - 1;
        assert_eq!(costly.instructions, cheap.instructions + extra);
        assert_eq!(costly.cycles, cheap.cycles + extra * 11);
        assert_eq!(costly.profile.occurrences(Subroutine::Mulsf3), 1);
    }

    #[test]
    fn mul8_is_hardware_and_correct() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0x1_02 }, // low byte 0x02
            I::Movi { rd: r(2), imm: 0xff },
            I::Mul8 { rd: r(3), ra: r(1), rb: r(2) },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(3) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 2 * 255);
    }

    #[test]
    fn dma_round_trip_and_stall_accounting() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0 },    // wram addr
            I::Movi { rd: r(2), imm: 4096 }, // mram addr
            I::Movi { rd: r(3), imm: 2048 }, // len
            I::MramRead { wram: r(1), mram: r(2), len: r(3) },
            I::Load { width: Width::W, rd: r(4), ra: r(1), off: 0 },
            I::Addi { rd: r(4), ra: r(4), imm: 1 },
            I::Store { width: Width::W, ra: r(1), off: 0, rs: r(4) },
            I::MramWrite { wram: r(1), mram: r(2), len: r(3) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.mram.write_u32(4096, 41).unwrap();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(m.mram.read_u32(4096).unwrap(), 42);
        assert_eq!(res.dma_transfers, 2);
        assert_eq!(res.dma_bytes, 4096);
        assert_eq!(res.dma_cycles, 2 * 1049);
        // The two DMA stalls dominate: 9 instructions but > 2000 cycles.
        assert!(res.cycles > 2 * 1049);
    }

    #[test]
    fn perfcounter_measures_bracketed_region() {
        let p = Program::new(vec![
            I::PerfConfig,
            I::Nop,
            I::Nop,
            I::Nop,
            I::PerfRead { rd: r(5) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.perf_reads, vec![44]); // 4 instructions × 11 cycles
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let p = Program::new(vec![I::Jump { target: 0 }]);
        let mut m = Machine::default();
        let err = m.run_with_budget(&p, 1, 10_000).unwrap_err();
        assert!(matches!(err, Error::CycleBudgetExceeded { budget: 10_000 }));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 5 },
            I::CallSub { sub: Subroutine::Divsi3, rd: r(2), ra: r(1), rb: r(0) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 1), Err(Error::DivisionByZero { pc: 1 })));
    }

    #[test]
    fn bad_tasklet_count_rejected() {
        let p = Program::new(vec![I::Halt]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 0), Err(Error::BadTaskletCount { .. })));
        assert!(matches!(m.run(&p, 25), Err(Error::BadTaskletCount { .. })));
        assert!(m.run(&p, 24).is_ok());
    }

    #[test]
    fn program_too_large_for_iram() {
        let p = Program::new(vec![I::Nop; 24 * 1024 / 8 + 1]);
        let mut m = Machine::default();
        assert!(matches!(m.run(&p, 1), Err(Error::ProgramTooLarge { .. })));
    }

    #[test]
    fn jal_jr_subroutine_linkage() {
        // main: jal r31, func; store r9; halt. func: movi r9, 99; jr r31.
        let p = Program::new(vec![
            I::Jal { rd: r(31), target: 3 },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(9) },
            I::Halt,
            I::Movi { rd: r(9), imm: 99 },
            I::Jr { ra: r(31) },
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 99);
    }

    #[test]
    fn popcount_counts_bits() {
        let p = Program::new(vec![
            I::Movi { rd: r(1), imm: 0b1011_0110 },
            I::Popcount { rd: r(2), ra: r(1) },
            I::Store { width: Width::W, ra: r(0), off: 0, rs: r(2) },
            I::Halt,
        ]);
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 5);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn trace_records_values_in_execution_order() {
        let p = assemble(
            "movi r1, 10\n\
             loop: trace r1\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        let values: Vec<u32> = res.trace.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=10).rev().collect::<Vec<u32>>());
        assert!(res.trace.iter().all(|&(t, _)| t == 0));
    }

    #[test]
    fn trace_tags_the_emitting_tasklet() {
        let p = assemble("me r1\ntrace r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 4).unwrap();
        let mut pairs = res.trace.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }
}

#[cfg(test)]
mod trace_sink_tests {
    use super::*;
    use crate::asm::assemble;
    use pim_trace::TraceBuffer;

    fn dma_heavy_program() -> Program {
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
    fn traced_run_records_all_event_kinds() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        let res = m.run_traced(&p, 4, &mut buf).unwrap();
        let launches = buf.count_matching(|e| matches!(e, TraceEvent::KernelLaunch { .. }));
        let completes = buf.count_matching(|e| matches!(e, TraceEvent::KernelComplete { .. }));
        let dmas = buf.count_matching(|e| matches!(e, TraceEvent::DmaTransfer { .. }));
        let subs = buf.count_matching(|e| matches!(e, TraceEvent::SubroutineEnter { .. }));
        let barriers = buf.count_matching(|e| matches!(e, TraceEvent::TaskletBarrier { .. }));
        assert_eq!(launches, 1);
        assert_eq!(completes, 1);
        assert_eq!(dmas, 8, "4 tasklets × (read + write)");
        assert_eq!(subs, 4);
        assert_eq!(barriers, 4);
        assert_eq!(buf.dma_bytes(), res.dma_bytes);
        assert_eq!(buf.dma_cycles(), res.dma_cycles);
    }

    #[test]
    fn null_sink_run_is_bit_identical_to_untraced() {
        let p = dma_heavy_program();
        let mut m1 = Machine::default();
        let untraced = m1.run(&p, 4).unwrap();
        let mut m2 = Machine::default();
        let nulled = m2.run_traced(&p, 4, &mut NullSink).unwrap();
        let mut m3 = Machine::default();
        let mut buf = TraceBuffer::new();
        let recorded = m3.run_traced(&p, 4, &mut buf).unwrap();
        assert_eq!(untraced, nulled);
        assert_eq!(untraced, recorded, "recording must not perturb timing");
    }

    #[test]
    fn trace_max_end_cycle_equals_run_cycles() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        let res = m.run_traced(&p, 3, &mut buf).unwrap();
        assert_eq!(buf.max_end_cycle(), res.cycles);
    }

    #[test]
    fn exactly_one_barrier_arrival_releases() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let mut buf = TraceBuffer::new();
        m.run_traced(&p, 4, &mut buf).unwrap();
        let released =
            buf.count_matching(|e| matches!(e, TraceEvent::TaskletBarrier { released: true, .. }));
        assert_eq!(released, 1);
    }

    #[test]
    fn per_tasklet_issue_counts_cover_all_instructions() {
        let p = dma_heavy_program();
        let mut m = Machine::default();
        let res = m.run(&p, 4).unwrap();
        assert_eq!(res.issue_per_tasklet.len(), 4);
        assert_eq!(res.issue_per_tasklet.iter().sum::<u64>(), res.instructions);
        assert!(res.issue_per_tasklet.iter().all(|&n| n > 0));
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn barrier_orders_producer_before_consumers() {
        // Tasklet 0 writes a value, everyone barriers, all read it.
        // Without the barrier the consumers would race ahead (tasklet 0's
        // store happens thousands of cycles into its long setup loop).
        let p = assemble(
            "me r1\n\
             bne r1, r0, wait\n\
             movi r2, 500        ; producer: long setup loop\n\
             spin: addi r2, r2, -1\n\
             bne r2, r0, spin\n\
             movi r3, 77\n\
             sw r0, 0x40, r3     ; publish\n\
             wait: barrier\n\
             lw r4, r0, 0x40     ; every tasklet reads after the barrier\n\
             lsli r5, r1, 2\n\
             addi r5, r5, 0x80\n\
             sw r5, 0, r4\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 8).unwrap();
        for t in 0..8 {
            assert_eq!(m.wram.read_u32(0x80 + 4 * t).unwrap(), 77, "tasklet {t}");
        }
    }

    #[test]
    fn single_tasklet_barrier_is_a_noop() {
        let p = assemble("movi r1, 5\nbarrier\naddi r1, r1, 1\nsw r0, 0, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 6);
    }

    #[test]
    fn halted_tasklets_do_not_block_a_barrier() {
        // Odd tasklets halt immediately; even ones barrier and proceed.
        let p = assemble(
            "me r1\n\
             movi r2, 1\n\
             and r3, r1, r2\n\
             bne r3, r0, out\n\
             barrier\n\
             movi r4, 9\n\
             lsli r5, r1, 2\n\
             sw r5, 0x40, r4\n\
             out: halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 4).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 9);
        assert_eq!(m.wram.read_u32(0x48).unwrap(), 9);
        assert_eq!(m.wram.read_u32(0x44).unwrap(), 0); // tasklet 1 halted
    }

    #[test]
    fn consecutive_barriers_work() {
        let p = assemble(
            "me r1\n\
             barrier\n\
             barrier\n\
             barrier\n\
             lsli r2, r1, 2\n\
             movi r3, 1\n\
             sw r2, 0, r3\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 6).unwrap();
        for t in 0..6 {
            assert_eq!(m.wram.read_u32(4 * t).unwrap(), 1);
        }
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn histogram_counts_executed_not_static_instructions() {
        let p = assemble(
            "movi r1, 5\n\
             loop: addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.op_histogram["movi"], 1);
        assert_eq!(res.op_histogram["add"], 5); // addi executes 5 times
        assert_eq!(res.op_histogram["branch"], 5);
        assert_eq!(res.op_histogram["halt"], 1);
    }

    #[test]
    fn histogram_counts_subroutine_calls_once() {
        let p = assemble("movi r1, 3\ncall __mulsf3 r2, r1, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        let res = m.run(&p, 1).unwrap();
        assert_eq!(res.op_histogram["call"], 1);
        // ...while the issue-slot count reflects the full body.
        assert!(res.instructions > 200);
    }
}

#[cfg(test)]
mod mutex_tests {
    use super::*;
    use crate::asm::assemble;

    /// The classic race: N tasklets each add 1 to a shared counter 50
    /// times with a load-add-store sequence. Without the mutex the
    /// interleaved sequences lose updates; with it, the count is exact.
    fn counter_program(locked: bool) -> Program {
        let (lock, unlock) = if locked { ("mutex.lock 3\n", "mutex.unlock 3\n") } else { ("", "") };
        assemble(&format!(
            "movi r2, 50\n\
             loop:\n\
             {lock}\
             lw r3, r0, 0x40\n\
             addi r3, r3, 1\n\
             sw r0, 0x40, r3\n\
             {unlock}\
             addi r2, r2, -1\n\
             bne r2, r0, loop\n\
             halt\n"
        ))
        .unwrap()
    }

    #[test]
    fn mutex_makes_shared_counter_exact() {
        let mut m = Machine::default();
        m.run(&counter_program(true), 8).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 8 * 50);
    }

    #[test]
    fn without_mutex_updates_are_lost() {
        let mut m = Machine::default();
        m.run(&counter_program(false), 8).unwrap();
        let got = m.wram.read_u32(0x40).unwrap();
        assert!(got < 8 * 50, "race must lose updates, got {got}");
        assert!(got >= 50, "at least one tasklet's worth survives");
    }

    #[test]
    fn waiters_wake_fifo_and_all_finish() {
        // Every tasklet takes the same mutex once; completion proves no
        // lost wakeups.
        let p = assemble(
            "me r1\n\
             mutex.lock 0\n\
             lw r3, r0, 0x40\n\
             addi r3, r3, 1\n\
             sw r0, 0x40, r3\n\
             mutex.unlock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 24).unwrap();
        assert_eq!(m.wram.read_u32(0x40).unwrap(), 24);
    }

    #[test]
    fn relock_by_owner_is_lenient() {
        let p = assemble(
            "mutex.lock 1\nmutex.lock 1\nmutex.unlock 1\nmovi r1, 7\nsw r0, 0, r1\nhalt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 1).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 7);
    }

    #[test]
    fn unlock_of_unowned_mutex_is_ignored() {
        let p = assemble("mutex.unlock 9\nmovi r1, 5\nsw r0, 0, r1\nhalt\n").unwrap();
        let mut m = Machine::default();
        m.run(&p, 2).unwrap();
        assert_eq!(m.wram.read_u32(0).unwrap(), 5);
    }
}

#[cfg(test)]
mod barrier_mutex_interaction_tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn barrier_waits_for_mutex_blocked_tasklets() {
        // Tasklet 0 grabs the mutex, spins, releases, then barriers.
        // Tasklets 1.. must first take the mutex (blocking on t0), then
        // barrier. If the barrier released while they were mutex-blocked,
        // the final store would be unordered.
        let p = assemble(
            "me r1\n\
             bne r1, r0, others\n\
             mutex.lock 0\n\
             movi r2, 300\n\
             spin: addi r2, r2, -1\n\
             bne r2, r0, spin\n\
             movi r3, 1\n\
             sw r0, 0x40, r3      ; publish inside the lock\n\
             mutex.unlock 0\n\
             jmp sync\n\
             others:\n\
             mutex.lock 0\n\
             lw r4, r0, 0x40      ; must see t0's publish\n\
             lsli r5, r1, 2\n\
             sw r5, 0x80, r4\n\
             mutex.unlock 0\n\
             sync: barrier\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&p, 6).unwrap();
        for t in 1..6 {
            assert_eq!(m.wram.read_u32(0x80 + 4 * t).unwrap(), 1, "tasklet {t}");
        }
    }

    #[test]
    fn mutex_held_across_barrier_deadlocks_detectably() {
        // Tasklet 0 locks and goes to the barrier while holding the mutex;
        // the others need the mutex before their barrier → deadlock, which
        // must surface as a budget error rather than a hang or bogus
        // release.
        let p = assemble(
            "me r1\n\
             bne r1, r0, others\n\
             mutex.lock 0\n\
             barrier\n\
             mutex.unlock 0\n\
             halt\n\
             others:\n\
             mutex.lock 0\n\
             mutex.unlock 0\n\
             barrier\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m.run_with_budget(&p, 3, 50_000).unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 1, on_mutex: 2 }), "got {err}");
    }
}

#[cfg(test)]
mod deadlock_accounting_tests {
    //! Regression tests that the `Error::Deadlock` populations derived from
    //! the incremental live/parked counters stay exact.

    use super::*;
    use crate::asm::assemble;

    #[test]
    fn cross_mutex_deadlock_counts_only_mutex_blockers() {
        // Tasklet 0: lock 0, spin, lock 1. Tasklet 1: lock 1, spin, lock 0.
        // Both spins overlap, so each tasklet holds its first mutex when it
        // requests the other's → pure mutex deadlock, nobody at a barrier.
        let p = assemble(
            "me r1\n\
             bne r1, r0, second\n\
             mutex.lock 0\n\
             movi r2, 20\n\
             s0: addi r2, r2, -1\n\
             bne r2, r0, s0\n\
             mutex.lock 1\n\
             halt\n\
             second:\n\
             mutex.lock 1\n\
             movi r2, 20\n\
             s1: addi r2, r2, -1\n\
             bne r2, r0, s1\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m.run_with_budget(&p, 2, 100_000).unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 0, on_mutex: 2 }), "got {err}");
    }

    #[test]
    fn mixed_barrier_and_mutex_deadlock_splits_populations() {
        // Tasklet 0 parks at the barrier holding mutex 0; tasklets 1 and 2
        // block on that mutex; tasklet 3 parks at the barrier. The barrier
        // can never fill (two live tasklets are mutex-blocked) → deadlock
        // with two parked and two blocked.
        let p = assemble(
            "me r1\n\
             movi r2, 3\n\
             bne r1, r2, not3\n\
             barrier\n\
             halt\n\
             not3:\n\
             bne r1, r0, waiters\n\
             mutex.lock 0\n\
             barrier\n\
             halt\n\
             waiters:\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m.run_with_budget(&p, 4, 100_000).unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 2, on_mutex: 2 }), "got {err}");
    }

    #[test]
    fn deadlock_counts_ignore_halted_tasklets() {
        // Of four tasklets, two halt immediately. Tasklet 0 parks at the
        // barrier holding mutex 0 and tasklet 1 blocks on that mutex: the
        // deadlock populations must count only the two live tasklets.
        let p = assemble(
            "me r1\n\
             movi r2, 2\n\
             blt r1, r2, low\n\
             halt\n\
             low:\n\
             bne r1, r0, waiter\n\
             mutex.lock 0\n\
             barrier\n\
             halt\n\
             waiter:\n\
             mutex.lock 0\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        let err = m.run_with_budget(&p, 4, 100_000).unwrap_err();
        assert!(matches!(err, Error::Deadlock { at_barrier: 1, on_mutex: 1 }), "got {err}");
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::faults::{FaultConfig, FaultPlan};

    /// DMA a word in, double it, DMA it back out.
    fn dma_program() -> Program {
        assemble(
            "movi r1, 0\n\
             movi r2, 0\n\
             movi r3, 8\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config)
    }

    #[test]
    fn offline_fault_fails_the_launch_and_logs() {
        let mut m = Machine::default();
        m.arm_faults(
            plan(FaultConfig { forced_offline: vec![0], ..Default::default() }).attempt(0, 0),
        );
        let err = m.run(&dma_program(), 1).unwrap_err();
        assert_eq!(err, Error::DpuOffline);
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected().len(), 1);
        assert_eq!(log.injected()[0].kind.label(), "dpu_offline");
    }

    #[test]
    fn dma_fail_aborts_with_site_and_logs() {
        let mut m = Machine::default();
        m.arm_faults(
            plan(FaultConfig { seed: 1, dma_fail_prob: 1.0, ..Default::default() }).attempt(0, 0),
        );
        let err = m.run(&dma_program(), 1).unwrap_err();
        assert!(matches!(err, Error::DmaFault { bytes: 8, .. }), "got {err}");
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected()[0].kind.label(), "dma_fail");
    }

    #[test]
    fn bit_flip_corrupts_the_result_and_logs_the_site() {
        // Clean run: 21 doubles to 42.
        let mut clean = Machine::default();
        clean.mram.write(0, &21u64.to_le_bytes()).unwrap();
        clean.run(&dma_program(), 1).unwrap();
        let mut out = [0u8; 8];
        clean.mram.read(0, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out), 42);

        // Same run with every DMA flipping one destination bit.
        let mut faulty = Machine::default();
        faulty.mram.write(0, &21u64.to_le_bytes()).unwrap();
        faulty.arm_faults(
            plan(FaultConfig { seed: 9, bit_flip_prob: 1.0, ..Default::default() }).attempt(0, 0),
        );
        faulty.run(&dma_program(), 1).unwrap();
        let log = faulty.disarm_faults().unwrap();
        assert_eq!(log.injected().len(), 2, "one flip per DMA transfer");
        let labels: Vec<&str> = log.injected().iter().map(|f| f.kind.label()).collect();
        assert_eq!(labels, vec!["wram_bit_flip", "mram_bit_flip"]);
        assert!(log.injected()[0].cycle > 0, "flip is stamped at DMA completion");
        faulty.mram.read(0, &mut out).unwrap();
        assert_ne!(u64::from_le_bytes(out), 42, "corruption must be observable");
    }

    #[test]
    fn injected_hang_surfaces_as_clamped_budget_exhaustion() {
        // An endless loop would normally run to the caller's budget; with a
        // hang injected the run is cut off at the drawn cycle instead.
        let p = assemble("top:\njmp top\n").unwrap();
        let mut m = Machine::default();
        let armed =
            plan(FaultConfig { seed: 3, hang_prob: 1.0, ..Default::default() }).attempt(0, 0);
        let hang_at = armed.hang_after().unwrap();
        m.arm_faults(armed);
        let err = m.run_with_budget(&p, 1, 10_000_000).unwrap_err();
        assert_eq!(err, Error::CycleBudgetExceeded { budget: hang_at });
        let log = m.disarm_faults().unwrap();
        assert_eq!(log.injected()[0].kind.label(), "tasklet_hang");
    }

    #[test]
    fn hang_does_not_fire_when_the_kernel_finishes_first() {
        let mut m = Machine::default();
        let armed =
            plan(FaultConfig { seed: 5, hang_prob: 1.0, ..Default::default() }).attempt(0, 0);
        m.arm_faults(armed);
        // The DMA program halts within a few hundred cycles, below any
        // drawn hang cutoff >= 500.
        let r = m.run(&dma_program(), 1);
        if let Ok(res) = &r {
            assert!(res.cycles < 500);
            assert!(m.disarm_faults().unwrap().injected().is_empty());
        } else {
            // A cutoff below the kernel's runtime would hang it instead —
            // not possible here, but keep the assertion honest.
            panic!("kernel should finish before the minimum hang cutoff: {r:?}");
        }
    }

    #[test]
    fn zero_plan_armed_is_bit_identical_to_unarmed() {
        let run = |arm: bool| {
            let mut m = Machine::default();
            m.mram.write(0, &7u64.to_le_bytes()).unwrap();
            if arm {
                m.arm_faults(FaultPlan::none().attempt(0, 0));
            }
            let r = m.run(&dma_program(), 1).unwrap();
            match m.disarm_faults() {
                Some(log) => {
                    assert!(arm);
                    assert!(log.injected().is_empty());
                }
                None => assert!(!arm),
            }
            r
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn compiled_tier_deopts_under_armed_faults_with_identical_results() {
        // A zero plan armed forces the Compiled→Superblock downgrade in
        // `run_code` without injecting anything, so the downgraded run
        // must stay bit-identical to the compiled tier proper.
        let p = dma_program();
        let exec = ExecProgram::compile(&p).unwrap();
        let mut plain = Machine::default();
        plain.mram.write(0, &21u64.to_le_bytes()).unwrap();
        let unarmed = plain.run_exec_engine(&exec, 3, Engine::Compiled).unwrap();
        let mut armed = Machine::default();
        armed.mram.write(0, &21u64.to_le_bytes()).unwrap();
        armed.arm_faults(FaultPlan::none().attempt(0, 0));
        let downgraded = armed.run_exec_engine(&exec, 3, Engine::Compiled).unwrap();
        assert_eq!(unarmed, downgraded);
        let wram = plain.params.wram_bytes;
        assert_eq!(plain.wram.slice(0, wram).unwrap(), armed.wram.slice(0, wram).unwrap());
        assert_eq!(plain.mram, armed.mram);
    }

    #[test]
    fn perf_counter_does_not_leak_across_runs() {
        // Run 1 arms the perf counter early and never reads it.
        let arm = assemble("perf.config\nhalt\n").unwrap();
        // Run 2 burns cycles, then reads the counter without arming it:
        // a fresh launch must read 0, not the elapsed time since run 1's
        // stale arming.
        let read_late = assemble(
            "movi r1, 200\n\
             top:\n\
             addi r1, r1, -1\n\
             bne r1, r0, top\n\
             perf.read r4\n\
             halt\n",
        )
        .unwrap();
        let mut m = Machine::default();
        m.run(&arm, 1).unwrap();
        let r = m.run(&read_late, 1).unwrap();
        assert_eq!(r.perf_reads, vec![0], "perf state leaked across launches");
    }
}
