//! Tier-1 code generation for the GEMM row kernel: Algorithm 2's inner
//! loops as a complete DPU program with tasklet-strided columns, executed
//! across a multi-DPU set under the Fig. 4.6 mapping.
//!
//! Together with `ebnn::codegen` this closes the loop on both CNN paths:
//! the exact orchestration the paper describes — row-of-`A` scatter,
//! whole-`B` broadcast, per-DPU row kernels, `C`-row gather — runs at
//! instruction level and is checked bit-for-bit against the host GEMM.
//!
//! ## WRAM layout
//!
//! ```text
//! 0x0000  params     n, k, alpha, tasklet stride (4 × u32)
//! 0x0040  A row      K × i16 (chunk-DMA'd by tasklet 0)
//! ....    C row      N × i16 (written by all tasklets, strided)
//! ....    staging    8 bytes per tasklet for B-element DMAs
//! ```

use crate::gemm::GemmDims;
use dpu_sim::asm::assemble;
use dpu_sim::{DpuId, Program};
use pim_host::{DpuSet, HostError, LaunchResult};
use pim_trace::TraceBuffer;

/// MRAM symbol offsets (sequential `define_symbol` order).
pub mod mram {
    /// `n, k, alpha, stride` (4 × u32).
    pub const PARAMS: u32 = 0;
    /// The DPU's row of `A`.
    pub const A_ROW: u32 = 16;
    /// Start of `B` for capacity `a_cap` (computed at runtime).
    #[must_use]
    pub fn b_base(a_cap: u32) -> u32 {
        A_ROW + a_cap
    }
}

/// WRAM addresses for the given dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmWramLayout {
    /// Params block.
    pub params: u32,
    /// A-row base.
    pub a_row: u32,
    /// C-row base.
    pub c_row: u32,
    /// Per-tasklet staging slots.
    pub staging: u32,
}

impl GemmWramLayout {
    /// Layout for one GEMM row kernel.
    ///
    /// # Panics
    /// When `A` + `C` rows overflow the WRAM data region.
    #[must_use]
    pub fn new(dims: GemmDims) -> Self {
        let params = 0u32;
        let a_row = 0x40u32;
        let a_bytes = ((dims.k * 2).div_ceil(8) * 8) as u32;
        let c_row = a_row + a_bytes;
        let c_bytes = ((dims.n * 2).div_ceil(8) * 8) as u32;
        let staging = c_row + c_bytes;
        let end = staging + 24 * 8;
        assert!(end <= 48 * 1024, "A+C rows overflow WRAM: {end:#x}");
        Self { params, a_row, c_row, staging }
    }
}

/// Generate the strided GEMM row program for the given dimensions.
///
/// Tasklet `t` computes columns `t, t+T, t+2T, …` (the paper's "one column
/// index and subsequent multiples"). `B` stays in MRAM — every element is
/// an 8-byte-granule DMA, reproducing the memory-bound behaviour §4.3.3
/// describes.
///
/// # Panics
/// When the WRAM layout overflows (use small layers; see
/// [`GemmWramLayout::new`]).
#[must_use]
pub fn gemm_row_program(dims: GemmDims) -> Program {
    let l = GemmWramLayout::new(dims);
    let s = format!(
        "\
        me r1\n\
        bne r1, r0, wait0\n\
        ; tasklet 0: params, then the A row in 2048-byte chunks\n\
        movi r3, {par_w}\n\
        movi r4, {par_m}\n\
        movi r5, 16\n\
        mram.read r3, r4, r5\n\
        movi r6, 0              ; offset\n\
        movi r7, {a_bytes}\n\
        aloop: bge r6, r7, adone\n\
        sub r8, r7, r6\n\
        movi r9, 2048\n\
        blt r8, r9, asmall\n\
        mov r8, r9\n\
        asmall:\n\
        movi r3, {a_w}\n\
        add r3, r3, r6\n\
        movi r4, {a_m}\n\
        add r4, r4, r6\n\
        mram.read r3, r4, r8\n\
        add r6, r6, r8\n\
        jmp aloop\n\
        adone:\n\
        wait0: barrier\n\
        lw r2, r0, {par_w}      ; n\n\
        lw r3, r0, {par_w_k}    ; k\n\
        lw r14, r0, {par_w_al}  ; alpha\n\
        lw r18, r0, {par_w_st}  ; stride\n\
        ; staging slot for my B-element DMAs\n\
        lsli r19, r1, 3\n\
        addi r19, r19, {stage}\n\
        mov r6, r1              ; j = id\n\
        jloop: bge r6, r2, jend\n\
        movi r7, 0              ; acc\n\
        movi r8, 0              ; kk\n\
        kloop: bge r8, r3, kend\n\
        ; A[kk] from WRAM, sign-extended\n\
        lsli r10, r8, 1\n\
        addi r10, r10, {a_w}\n\
        lh r11, r10, 0\n\
        lsli r11, r11, 16\n\
        asri r11, r11, 16\n\
        call __mulsi3 r11, r11, r14   ; APART = alpha * A[kk]\n\
        ; B[kk*n + j]: one 2-byte DMA from MRAM\n\
        call __mulsi3 r12, r8, r2\n\
        add r12, r12, r6\n\
        lsli r12, r12, 1\n\
        addi r12, r12, {b_m}\n\
        movi r13, 2\n\
        mram.read r19, r12, r13\n\
        lh r13, r19, 0\n\
        lsli r13, r13, 16\n\
        asri r13, r13, 16\n\
        call __mulsi3 r13, r13, r11\n\
        add r7, r7, r13\n\
        addi r8, r8, 1\n\
        jmp kloop\n\
        kend:\n\
        ; C[j] = absolutemax(acc / 32, 32767)\n\
        movi r10, 32\n\
        call __divsi3 r7, r7, r10\n\
        movi r11, 32767\n\
        blt r7, r11, nohi\n\
        mov r7, r11\n\
        nohi:\n\
        movi r12, -32767\n\
        bge r7, r12, nolo\n\
        mov r7, r12\n\
        nolo:\n\
        lsli r10, r6, 1\n\
        addi r10, r10, {c_w}\n\
        sh r10, 0, r7\n\
        add r6, r6, r18\n\
        jmp jloop\n\
        jend: barrier\n\
        bne r1, r0, done\n\
        ; tasklet 0: write C back in chunks\n\
        movi r6, 0\n\
        movi r7, {c_bytes}\n\
        movi r9, 2048\n\
        closet: bge r6, r7, done\n\
        sub r8, r7, r6\n\
        blt r8, r9, csmall\n\
        mov r8, r9\n\
        csmall:\n\
        movi r3, {c_w}\n\
        add r3, r3, r6\n\
        movi r4, {c_m}\n\
        add r4, r4, r6\n\
        mram.write r3, r4, r8\n\
        add r6, r6, r8\n\
        jmp closet\n\
        done: halt\n",
        par_w = l.params,
        par_w_k = l.params + 4,
        par_w_al = l.params + 8,
        par_w_st = l.params + 12,
        par_m = mram::PARAMS,
        a_w = l.a_row,
        a_m = mram::A_ROW,
        a_bytes = (dims.k * 2).div_ceil(8) * 8,
        b_m = mram::b_base(((dims.k * 2).div_ceil(8) * 8) as u32),
        stage = l.staging,
        c_w = l.c_row,
        c_m = mram::b_base(((dims.k * 2).div_ceil(8) * 8) as u32)
            + ((dims.k * dims.n * 2).div_ceil(8) * 8) as u32,
        c_bytes = (dims.n * 2).div_ceil(8) * 8,
    );
    let program = assemble(&s).expect("generated GEMM program assembles");
    program.validate().expect("generated GEMM program has valid control flow");
    program
}

/// Execute one conv layer's GEMM at instruction level under the Fig. 4.6
/// mapping: `dims.m` DPUs, each loaded with its `A` row and the whole `B`,
/// running [`gemm_row_program`] with `tasklets` threads.
///
/// # Errors
/// Host-runtime failures.
///
/// # Panics
/// When slice shapes don't match `dims` or the layout overflows WRAM.
pub fn run_tier1_layer(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
) -> Result<(Vec<i16>, LaunchResult), HostError> {
    tier1_layer_impl(dims, alpha, a, b, tasklets, false).map(|t| (t.c, t.launch))
}

/// A Tier-1 GEMM layer run with full tracing enabled.
#[derive(Debug)]
pub struct TracedLayer {
    /// The `M×N` output matrix, row-major.
    pub c: Vec<i16>,
    /// The launch result (identical to an untraced run).
    pub launch: LaunchResult,
    /// One cycle-stamped simulator trace per DPU (= per `A` row).
    pub dpu_traces: Vec<TraceBuffer>,
    /// Host↔MRAM transfers: `B` broadcast, `A`-row scatter, `C`-row gather.
    pub host_trace: TraceBuffer,
    /// COW MRAM arena accounting after the gather: the broadcast `B`
    /// matrix's whole pages are stored once across the row-per-DPU set.
    pub mram_residency: dpu_sim::MramResidency,
}

/// [`run_tier1_layer`] with tracing: per-DPU simulator traces plus the
/// host-transfer log of the Fig. 4.6 orchestration.
///
/// # Errors
/// Host-runtime failures.
///
/// # Panics
/// See [`run_tier1_layer`].
pub fn run_tier1_layer_traced(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
) -> Result<TracedLayer, HostError> {
    tier1_layer_impl(dims, alpha, a, b, tasklets, true)
}

/// [`run_tier1_layer`] with the execution engine tier pinned instead of
/// the ambient selection — the hook the cross-tier identity tests use to
/// prove the tier cannot be observed from the host side.
///
/// # Errors
/// Host-runtime failures.
///
/// # Panics
/// See [`run_tier1_layer`].
pub fn run_tier1_layer_with_engine(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
    engine: dpu_sim::Engine,
) -> Result<(Vec<i16>, LaunchResult), HostError> {
    let mut set = tier1_layer_stage(dims, alpha, a, b, tasklets, false)?;
    set.set_engine(Some(engine));
    let launch = set.launch_loaded(tasklets)?;
    let c = gather_c(&set, dims)?;
    Ok((c, launch))
}

fn tier1_layer_stage(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
    trace: bool,
) -> Result<DpuSet, HostError> {
    assert_eq!(a.len(), dims.m * dims.k, "A shape mismatch");
    assert_eq!(b.len(), dims.k * dims.n, "B shape mismatch");
    assert!((1..=24).contains(&tasklets), "tasklets must be 1..=24");
    let a_cap = (dims.k * 2).div_ceil(8) * 8;
    let b_cap = (dims.k * dims.n * 2).div_ceil(8) * 8;
    let c_cap = (dims.n * 2).div_ceil(8) * 8;

    let mut set = DpuSet::allocate(dims.m)?;
    if trace {
        set.enable_host_tracing();
    }
    set.define_symbol("params", 16)?;
    set.define_symbol("a_row", a_cap)?;
    set.define_symbol("b", b_cap)?;
    set.define_symbol("c_row", c_cap)?;

    let mut params = Vec::with_capacity(16);
    for v in [dims.n as u32, dims.k as u32, alpha as u32, tasklets as u32] {
        params.extend_from_slice(&v.to_le_bytes());
    }
    set.copy_to("params", 0, &params)?;
    set.copy_values_to("b", b)?;
    let mut batch = pim_host::XferBatch::new();
    for i in 0..dims.m {
        batch.prepare(pim_host::to_wire(&a[i * dims.k..(i + 1) * dims.k]).data);
    }
    batch.push(&mut set, "a_row", 0, a_cap)?;

    set.load(&gemm_row_program(dims))?;
    Ok(set)
}

/// Gather the `M×N` output matrix after a launch (row `i` from DPU `i`).
fn gather_c(set: &DpuSet, dims: GemmDims) -> Result<Vec<i16>, HostError> {
    let mut c = vec![0i16; dims.m * dims.n];
    for i in 0..dims.m {
        let row: Vec<i16> = set.copy_values_from_dpu(DpuId(i as u32), "c_row", 0, dims.n)?;
        c[i * dims.n..(i + 1) * dims.n].copy_from_slice(&row);
    }
    Ok(c)
}

/// A persistent row-GEMM executor: the DPU set is allocated once, the
/// shared `B` matrix and params are broadcast once (COW pages shared
/// across the set), and the program is loaded once — each batch then only
/// scatters its `A` rows, launches, and gathers `C` rows. This is the
/// batch-slicing entry point the `pim-serve` runtime builds on; unlike
/// the eBNN-side `Tier1Engine` it has a single A/C buffer pair (the
/// GEMM program bakes its MRAM bases), so the serving pipeline schedules
/// it serially.
#[derive(Debug)]
pub struct RowEngine {
    set: DpuSet,
    dims: GemmDims,
    dpus: usize,
    tasklets: usize,
    staged_rows: usize,
    golden: pim_host::SetSnapshot,
}

impl RowEngine {
    /// Build an engine over `dpus` DPUs computing rows of `A × B` (shapes
    /// from `dims`; `dims.m` is ignored — the batch size is `dpus`).
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `dpus` is zero, `b` doesn't match `dims`, `tasklets` is
    /// outside `1..=24`, or the WRAM layout overflows.
    pub fn new(
        dims: GemmDims,
        alpha: i32,
        b: &[i16],
        dpus: usize,
        tasklets: usize,
    ) -> Result<Self, HostError> {
        assert!(dpus > 0, "engine needs at least one DPU");
        assert_eq!(b.len(), dims.k * dims.n, "B shape mismatch");
        assert!((1..=24).contains(&tasklets), "tasklets must be 1..=24");
        let a_cap = (dims.k * 2).div_ceil(8) * 8;
        let b_cap = (dims.k * dims.n * 2).div_ceil(8) * 8;
        let c_cap = (dims.n * 2).div_ceil(8) * 8;

        let mut set = DpuSet::allocate(dpus)?;
        set.define_symbol("params", 16)?;
        set.define_symbol("a_row", a_cap)?;
        set.define_symbol("b", b_cap)?;
        set.define_symbol("c_row", c_cap)?;

        let mut params = Vec::with_capacity(16);
        for v in [dims.n as u32, dims.k as u32, alpha as u32, tasklets as u32] {
            params.extend_from_slice(&v.to_le_bytes());
        }
        set.copy_to("params", 0, &params)?;
        set.copy_values_to("b", b)?;
        set.load(&gemm_row_program(dims))?;
        let golden = set.snapshot();
        Ok(Self { set, dims, dpus, tasklets, staged_rows: 0, golden })
    }

    /// Rows one batch can hold (= DPUs).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.dpus
    }

    /// The GEMM dimensions this engine was generated for.
    #[must_use]
    pub fn dims(&self) -> GemmDims {
        self.dims
    }

    /// The underlying set (engine pin, parallel threshold).
    #[must_use]
    pub fn set(&self) -> &DpuSet {
        &self.set
    }

    /// Mutable access to the underlying set.
    pub fn set_mut(&mut self) -> &mut DpuSet {
        &mut self.set
    }

    /// Restore the pristine `B`-loaded state captured at build time (see
    /// the eBNN engine's golden-snapshot rationale: fault-armed launches
    /// can leave quarantined DPUs' MRAM corrupted).
    ///
    /// # Errors
    /// Never in practice (the snapshot matches the set by construction).
    pub fn restore_golden(&mut self) -> Result<(), HostError> {
        self.set.restore(&self.golden)?;
        self.staged_rows = 0;
        Ok(())
    }

    /// Scatter up to [`RowEngine::capacity`] `A` rows (`rows.len()` must
    /// be a multiple of `dims.k`). DPUs beyond the staged rows are
    /// padded with an all-zero `A` row, so every launch still runs the
    /// kernel on all DPUs; their `C` rows are not gathered (this padded
    /// work is what `perfbench` reports as `host.idle_instr_frac`).
    /// Returns the bytes written over the host link, padding included.
    ///
    /// # Errors
    /// Host-runtime failures.
    ///
    /// # Panics
    /// When `rows` is empty, not a whole number of rows, or oversized.
    pub fn stage(&mut self, rows: &[i16]) -> Result<u64, HostError> {
        assert!(!rows.is_empty(), "empty batch");
        assert_eq!(rows.len() % self.dims.k, 0, "A rows must be whole");
        let n_rows = rows.len() / self.dims.k;
        assert!(n_rows <= self.dpus, "batch exceeds engine capacity");
        let a_cap = (self.dims.k * 2).div_ceil(8) * 8;
        let mut batch = pim_host::XferBatch::new();
        for i in 0..n_rows {
            batch.prepare(pim_host::to_wire(&rows[i * self.dims.k..(i + 1) * self.dims.k]).data);
        }
        for _ in n_rows..self.dpus {
            batch.prepare(vec![0u8; a_cap]);
        }
        batch.push(&mut self.set, "a_row", 0, a_cap)?;
        self.staged_rows = n_rows;
        Ok((a_cap * self.dpus) as u64)
    }

    /// Launch the staged batch.
    ///
    /// # Errors
    /// The first DPU fault encountered.
    pub fn launch(&mut self) -> Result<LaunchResult, HostError> {
        self.set.launch_loaded(self.tasklets)
    }

    /// Launch under a fault-tolerance policy.
    ///
    /// # Errors
    /// Host-runtime staging failures (injected faults are reported, not
    /// returned as errors).
    pub fn launch_resilient(
        &mut self,
        policy: &pim_host::ResilientLaunchPolicy,
    ) -> Result<pim_host::LaunchReport, HostError> {
        self.set.launch_loaded_resilient(self.tasklets, policy)
    }

    /// Profile-guided warmup: see the eBNN engine's `recompile_hot`.
    /// Returns the number of blocks hot enough to compile.
    ///
    /// # Errors
    /// Simulator faults during the profiling replay.
    pub fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        self.set.recompile_hot_loaded(DpuId(0), self.tasklets, min_entries)
    }

    /// Gather the staged rows' `C` outputs (row `i` from DPU `i`), plus
    /// the bytes read over the host link.
    ///
    /// # Errors
    /// Host-runtime failures.
    pub fn gather(&self) -> Result<(Vec<i16>, u64), HostError> {
        let mut c = vec![0i16; self.staged_rows * self.dims.n];
        for i in 0..self.staged_rows {
            let row: Vec<i16> =
                self.set.copy_values_from_dpu(DpuId(i as u32), "c_row", 0, self.dims.n)?;
            c[i * self.dims.n..(i + 1) * self.dims.n].copy_from_slice(&row);
        }
        let bytes = (self.staged_rows * ((self.dims.n * 2).div_ceil(8) * 8)) as u64;
        Ok((c, bytes))
    }

    /// Rows staged for the next launch.
    #[must_use]
    pub fn staged_rows(&self) -> usize {
        self.staged_rows
    }
}

fn tier1_layer_impl(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
    trace: bool,
) -> Result<TracedLayer, HostError> {
    let mut set = tier1_layer_stage(dims, alpha, a, b, tasklets, trace)?;
    let (launch, dpu_traces) = if trace {
        set.launch_loaded_traced(tasklets)?
    } else {
        (set.launch_loaded(tasklets)?, Vec::new())
    };
    let c = gather_c(&set, dims)?;
    let host_trace = set.take_host_trace().unwrap_or_default();
    let mram_residency = set.system().mram_residency();
    Ok(TracedLayer { c, launch, dpu_traces, host_trace, mram_residency })
}

/// Outcome of a fault-tolerant Tier-1 GEMM layer (see
/// [`run_tier1_layer_resilient`]).
#[derive(Debug, Clone)]
pub struct ResilientLayer {
    /// The `M×N` output matrix, row-major — identical to what
    /// [`run_tier1_layer`] returns, even when some rows were computed on
    /// a stand-in DPU.
    pub c: Vec<i16>,
    /// The full fault-tolerance record for the launch.
    pub report: pim_host::LaunchReport,
    /// Output rows whose home DPU was quarantined and whose values
    /// therefore came from a surviving DPU.
    pub redispatched_rows: Vec<usize>,
}

/// Fault-tolerant variant of [`run_tier1_layer`]: one DPU per `A` row, run
/// under a [`pim_host::ResilientLaunchPolicy`]. A quarantined DPU's row is
/// recomputed on a survivor, so `c` is complete and correct as long as at
/// least one DPU survives.
///
/// # Errors
/// Host-runtime staging failures, or — when even re-dispatch could not
/// serve some row — the last per-DPU error from the report.
///
/// # Panics
/// See [`run_tier1_layer`].
pub fn run_tier1_layer_resilient(
    dims: GemmDims,
    alpha: i32,
    a: &[i16],
    b: &[i16],
    tasklets: usize,
    policy: &pim_host::ResilientLaunchPolicy,
) -> Result<ResilientLayer, HostError> {
    let mut set = tier1_layer_stage(dims, alpha, a, b, tasklets, false)?;
    let report = set.launch_loaded_resilient(tasklets, policy)?;
    if !report.fully_served() {
        return Err(report
            .per_dpu
            .iter()
            .find_map(|r| if r.result.is_none() { r.last_error.clone() } else { None })
            .unwrap_or(HostError::WorkerPanic {
                detail: "unserved DPU carried no error".to_owned(),
            }));
    }
    let c = gather_c(&set, dims)?;
    let redispatched_rows = report.degraded.iter().map(|d| d.from.0 as usize).collect();
    Ok(ResilientLayer { c, report, redispatched_rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn pseudo(seed: &mut u64) -> i16 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 33) % 401) as i16 - 200
    }

    #[test]
    fn tier1_layer_matches_host_gemm() {
        let dims = GemmDims { m: 3, n: 10, k: 6 };
        let mut s = 7u64;
        let a: Vec<i16> = (0..dims.m * dims.k).map(|_| pseudo(&mut s)).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|_| pseudo(&mut s)).collect();
        let mut want = vec![0i16; dims.m * dims.n];
        gemm(dims, 2, &a, &b, &mut want);
        let (got, result) = run_tier1_layer(dims, 2, &a, &b, 4).unwrap();
        assert_eq!(got, want);
        assert_eq!(result.per_dpu.len(), 3);
    }

    #[test]
    fn tier1_layer_correct_at_every_tasklet_count() {
        let dims = GemmDims { m: 2, n: 7, k: 4 };
        let mut s = 13u64;
        let a: Vec<i16> = (0..dims.m * dims.k).map(|_| pseudo(&mut s)).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|_| pseudo(&mut s)).collect();
        let mut want = vec![0i16; dims.m * dims.n];
        gemm(dims, 1, &a, &b, &mut want);
        for t in [1usize, 2, 3, 7, 11] {
            let (got, _) = run_tier1_layer(dims, 1, &a, &b, t).unwrap();
            assert_eq!(got, want, "tasklets = {t}");
        }
    }

    #[test]
    fn tier1_layer_is_memory_bound_like_the_model_says() {
        // The per-element B DMAs dominate: DMA stall cycles exceed a third
        // of total cycles even with the pipeline busy.
        let dims = GemmDims { m: 1, n: 64, k: 32 };
        let a: Vec<i16> = (0..dims.k).map(|i| (i as i16 % 20) - 10).collect();
        let b: Vec<i16> = (0..dims.k * dims.n).map(|i| (i as i16 % 30) - 15).collect();
        let (_, result) = run_tier1_layer(dims, 1, &a, &b, 11).unwrap();
        let r = &result.per_dpu[0];
        assert!(r.dma_transfers as usize >= dims.k * dims.n, "per-element B DMAs");
    }

    #[test]
    fn program_fits_iram_for_real_layer_shapes() {
        // The head layers (13x13) are the ones small enough for Tier-1 runs.
        let p = gemm_row_program(GemmDims { m: 1, n: 169, k: 1024 });
        assert!(p.iram_bytes() <= dpu_sim::params::IRAM_BYTES);
    }
}

#[cfg(test)]
mod traced_tests {
    use super::*;
    use pim_trace::TraceEvent;

    #[test]
    fn traced_layer_is_identical_and_records_per_dpu_traces() {
        let dims = GemmDims { m: 2, k: 4, n: 3 };
        let a: Vec<i16> = (0..8).map(|v| v - 3).collect();
        let b: Vec<i16> = (0..12).map(|v| 2 - v).collect();
        let (c, launch) = run_tier1_layer(dims, 1, &a, &b, 2).unwrap();
        let traced = run_tier1_layer_traced(dims, 1, &a, &b, 2).unwrap();
        assert_eq!(traced.c, c);
        assert_eq!(traced.launch, launch);
        assert_eq!(traced.dpu_traces.len(), dims.m);
        for (d, buf) in traced.dpu_traces.iter().enumerate() {
            assert_eq!(buf.max_end_cycle(), launch.per_dpu[d].cycles, "DPU {d}");
            assert!(
                buf.count_matching(|e| matches!(e, TraceEvent::DmaTransfer { .. })) > 0,
                "DPU {d}"
            );
        }
        assert!(!traced.host_trace.is_empty());
    }
}
