//! Edge tests for the schedule-replay window engine: the superblock and
//! compiled tiers run multi-tasklet schedules tasklet-major inside
//! windows, and each case here must stay bit-identical to the reference
//! loop (`Machine::run_exec_reference_with_budget`) — same `RunResult`
//! or error, same WRAM and MRAM images — while the engine-path counters
//! prove the case really exercised the path it is named after.

use dpu_sim::asm::assemble;
use dpu_sim::exec::ExecProgram;
use dpu_sim::isa::{Cond, Instr, Program, Reg, Width};
use dpu_sim::{DpuId, Engine, EnginePaths, Machine, RunResult};
use ebnn::codegen::{encode_slot, Tier1Engine};
use ebnn::{EbnnModel, ModelConfig};
use proptest::prelude::*;

const FAST_TIERS: [Engine; 2] = [Engine::Superblock, Engine::Compiled];

/// Run `exec` from `start` on the reference loop and on `engine`, assert
/// full observable equality, and return the fast tier's engine paths
/// (zeroed when the run errors) with the reference outcome.
fn assert_tier_matches_reference(
    start: &Machine,
    exec: &ExecProgram,
    tasklets: usize,
    budget: u64,
    engine: Engine,
    label: &str,
) -> (EnginePaths, Result<RunResult, dpu_sim::Error>) {
    let mut reference_machine = start.clone();
    let reference = reference_machine.run_exec_reference_with_budget(exec, tasklets, budget);
    let mut machine = start.clone();
    let outcome = machine.run_exec_engine_with_budget(exec, tasklets, budget, engine);
    let label = format!("{label} on {}", engine.name());
    assert_eq!(outcome, reference, "{label}: outcome diverged");
    let wram = machine.params.wram_bytes;
    assert_eq!(
        machine.wram.slice(0, wram).unwrap(),
        reference_machine.wram.slice(0, wram).unwrap(),
        "{label}: WRAM images diverged"
    );
    assert_eq!(machine.mram, reference_machine.mram, "{label}: MRAM images diverged");
    let paths = outcome.as_ref().map(|r| r.paths).unwrap_or_default();
    (paths, reference)
}

/// The eBNN tier-1 kernel, staged with `images` images on one DPU the
/// way the serving engine stages a partially filled batch.
fn staged_ebnn(images: usize) -> (Machine, ExecProgram) {
    let model = EbnnModel::generate(ModelConfig { filters: 1, ..ModelConfig::default() });
    let slots: Vec<Vec<u8>> = (0..images)
        .map(|i| encode_slot(&model, &ebnn::mnist::synth_digit(i % 10, i as u64)))
        .collect();
    let mut engine = Tier1Engine::new(&model, 1).expect("engine builds");
    engine.stage_encoded(&slots, 0).expect("stages");
    let set = engine.set();
    let exec = ExecProgram::compile(set.loaded_program().expect("loaded")).expect("compiles");
    (set.system().dpu(DpuId(0)).clone(), exec)
}

#[test]
fn ebnn_kernel_matches_reference_at_every_image_count() {
    for images in 1..=16 {
        let (machine, exec) = staged_ebnn(images);
        for engine in FAST_TIERS {
            let label = format!("eBNN with {images} images");
            let (paths, reference) =
                assert_tier_matches_reference(&machine, &exec, images, u64::MAX, engine, &label);
            let reference = reference.expect("kernel completes");
            assert_eq!(paths.conflicts + paths.fault_rollbacks, 0, "{label}: {paths:?}");
            if images >= 2 {
                // Most multi-tasklet slots retire inside windows.
                assert!(
                    paths.window_slots * 2 > reference.instructions,
                    "{label} on {}: windows retired too little: {paths:?} of {}",
                    engine.name(),
                    reference.instructions
                );
            }
        }
    }
}

/// Twelve tasklets bump one WRAM counter without a mutex (a race the
/// windows must not reorder), then run a private ALU loop, then one
/// tasklet loads from past the end of WRAM.
#[test]
fn shared_word_conflict_then_fault_rolls_back_exactly() {
    let program = assemble(
        "me r1\n\
         movi r2, 40\n\
         race: lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         sw r0, 0x40, r3\n\
         addi r2, r2, -1\n\
         bne r2, r0, race\n\
         movi r2, 300\n\
         lsli r7, r1, 2\n\
         work: lw r4, r7, 0x100\n\
         add r5, r5, r4\n\
         xor r5, r5, r2\n\
         addi r2, r2, -1\n\
         bne r2, r0, work\n\
         movi r6, 7\n\
         bne r1, r6, out\n\
         movi r6, 0x7fff0\n\
         lw r4, r6, 0\n\
         out: sw r7, 0x200, r5\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let mut start = Machine::default();
    for i in 0..64u32 {
        start.wram.write_u32(0x100 + 4 * i as usize, i.wrapping_mul(2_654_435_761)).unwrap();
    }
    for engine in FAST_TIERS {
        let (_, reference) =
            assert_tier_matches_reference(&start, &exec, 12, u64::MAX, engine, "race+fault");
        assert!(matches!(reference, Err(dpu_sim::Error::OutOfBounds { .. })), "{reference:?}");
    }
    // Engine paths come back with successful runs only: the race alone
    // shows the conflict fallback.
    let clean = assemble(
        "movi r2, 40\n\
         race: lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         sw r0, 0x40, r3\n\
         addi r2, r2, -1\n\
         bne r2, r0, race\n\
         halt\n",
    )
    .unwrap();
    let clean = ExecProgram::compile(&clean).unwrap();
    for engine in FAST_TIERS {
        let (paths, reference) =
            assert_tier_matches_reference(&start, &clean, 12, u64::MAX, engine, "race");
        assert!(paths.conflicts >= 1, "{paths:?}");
        assert!(reference.unwrap().instructions > 0);
    }
}

/// A fault inside a window rolls the window back and the single-slot
/// path surfaces it at the reference's slot, with the memory image the
/// reference had at that slot.
#[test]
fn fault_inside_window_is_surfaced_at_its_exact_slot() {
    // Tasklet 5 computes an out-of-range address inside a hot loop.
    let program = assemble(
        "me r1\n\
         movi r2, 200\n\
         lsli r7, r1, 2\n\
         loop: lw r4, r7, 0x100\n\
         add r5, r5, r4\n\
         sw r7, 0x300, r5\n\
         addi r2, r2, -1\n\
         movi r6, 5\n\
         bne r1, r6, skip\n\
         movi r6, 120\n\
         bne r2, r6, skip\n\
         movi r7, 0x7fff0\n\
         skip: bne r2, r0, loop\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let start = Machine::default();
    for tasklets in [6usize, 11, 16] {
        for engine in FAST_TIERS {
            let (_, reference) = assert_tier_matches_reference(
                &start,
                &exec,
                tasklets,
                u64::MAX,
                engine,
                &format!("{tasklets} tasklets, fault"),
            );
            assert!(matches!(reference, Err(dpu_sim::Error::OutOfBounds { .. })));
        }
    }
}

/// Budget cutoffs landing inside windows: every cutoff must surface at
/// the identical pick with identical memory, for saturated, permuted
/// and unsaturated tasklet counts.
#[test]
fn budget_running_out_mid_window_matches_reference() {
    let program = assemble(
        "me r1\n\
         movi r2, 60\n\
         lsli r7, r1, 2\n\
         loop: lw r4, r7, 0x100\n\
         add r5, r5, r4\n\
         addi r5, r5, 3\n\
         sw r7, 0x300, r5\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let start = Machine::default();
    for tasklets in [2usize, 5, 11, 13, 16] {
        for engine in FAST_TIERS {
            let (paths, full) = assert_tier_matches_reference(
                &start,
                &exec,
                tasklets,
                u64::MAX,
                engine,
                "full run",
            );
            let full = full.expect("completes");
            assert!(paths.windows > 0, "{tasklets} tasklets: no window formed: {paths:?}");
            for budget in (0..full.cycles + 12).step_by(7) {
                let label = format!("{tasklets} tasklets, budget {budget}");
                let _ =
                    assert_tier_matches_reference(&start, &exec, tasklets, budget, engine, &label);
            }
        }
    }
}

/// One tasklet waits on a long DMA while the others compute; it wakes in
/// the middle of what would otherwise be one long window, which must end
/// before the wake-up and let the tasklet rejoin the schedule.
#[test]
fn tasklet_waking_from_dma_mid_window_matches_reference() {
    let program = assemble(
        "me r1\n\
         movi r2, 0\n\
         bne r1, r2, compute\n\
         movi r3, 0x1000\n\
         movi r4, 0\n\
         movi r5, 2048\n\
         mram.read r3, r4, r5\n\
         compute: movi r2, 150\n\
         lsli r7, r1, 2\n\
         loop: lw r4, r7, 0x1000\n\
         add r6, r6, r4\n\
         sw r7, 0x3000, r6\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let mut start = Machine::default();
    for i in 0..512u32 {
        start.mram.write_u32(4 * i as usize, i ^ 0x5a5a).unwrap();
    }
    for tasklets in [3usize, 12, 16] {
        for engine in FAST_TIERS {
            let (paths, reference) = assert_tier_matches_reference(
                &start,
                &exec,
                tasklets,
                u64::MAX,
                engine,
                &format!("{tasklets} tasklets, DMA wake"),
            );
            let reference = reference.expect("completes");
            assert!(paths.windows > 1, "{tasklets} tasklets: {paths:?}");
            assert!(reference.dma_transfers == 1);
        }
    }
}

/// Tasklets with different trip counts (fewer for higher ids, so the
/// lower ids that a chunk runs first overrun) over private
/// read-modify-write counters: whenever a tasklet halts inside a window
/// chunk, the tasklets that already ran past that round must be rewound
/// — their own stores undone — and re-run, or their counters run ahead.
#[test]
fn overrunning_tasklets_rewind_their_own_stores() {
    let program = assemble(
        "me r1\n\
         lsli r7, r1, 2\n\
         movi r8, 3\n\
         and r8, r1, r8\n\
         mul8 r8, r8, r8\n\
         movi r9, 60\n\
         sub r8, r9, r8\n\
         loop: lw r2, r7, 0x200\n\
         lw r3, r0, 0x100\n\
         add r2, r2, r3\n\
         sw r7, 0x200, r2\n\
         addi r8, r8, -1\n\
         bne r8, r0, loop\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let mut start = Machine::default();
    start.wram.write_u32(0x100, 3).unwrap();
    for tasklets in [2usize, 5, 11, 16] {
        for engine in FAST_TIERS {
            let (paths, reference) = assert_tier_matches_reference(
                &start,
                &exec,
                tasklets,
                u64::MAX,
                engine,
                &format!("{tasklets} tasklets, uneven trip counts"),
            );
            reference.expect("completes");
            assert!(paths.window_slots > 0, "{paths:?}");
            assert_eq!(paths.conflicts, 0, "{paths:?}");
        }
    }
}

/// Window-friendly loop bodies: ALU ops plus loads and stores of every
/// width, based either on `r0` (words every tasklet shares) or on `r7`
/// (the tasklet's private stripe), so windows form with and without
/// cross-tasklet conflicts.
fn body_op() -> impl Strategy<Value = Instr> {
    let reg = || (1u8..7).prop_map(Reg);
    let base = || prop_oneof![Just(Reg(0)), Just(Reg(7))];
    let width = || prop_oneof![Just(Width::B), Just(Width::H), Just(Width::W)];
    prop_oneof![
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg(), reg(), -9i32..9).prop_map(|(rd, ra, imm)| Instr::Addi { rd, ra, imm }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Xor { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instr::Mul8 { rd, ra, rb }),
        (width(), reg(), base(), 0i32..24).prop_map(|(width, rd, ra, off)| Instr::Load {
            width,
            rd,
            ra,
            off: 0x100 + off * 2,
        }),
        (width(), base(), 0i32..24, reg()).prop_map(|(width, ra, off, rs)| Instr::Store {
            width,
            ra,
            off: 0x100 + off * 2,
            rs,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random boundary-free loops over shared and private WRAM words:
    /// every fast tier must match the reference — the conflict rule,
    /// undo log and rewinds are what keep the racy ones exact.
    #[test]
    fn random_window_loops_match_reference(
        body in prop::collection::vec(body_op(), 1..12),
        iterations in 4i32..40,
        tasklets in 2usize..17,
    ) {
        // Trip counts differ by tasklet (iterations ^ (id & 3)), so
        // tasklets halt at different rounds and earlier-run tasklets must
        // be rewound past their private read-modify-writes.
        let mut instrs = vec![
            Instr::TaskletId { rd: Reg(1) },
            Instr::Lsli { rd: Reg(7), ra: Reg(1), sh: 6 },
            Instr::Movi { rd: Reg(8), imm: iterations },
            Instr::Movi { rd: Reg(9), imm: 3 },
            Instr::And { rd: Reg(9), ra: Reg(1), rb: Reg(9) },
            Instr::Xor { rd: Reg(8), ra: Reg(8), rb: Reg(9) },
        ];
        let top = instrs.len() as u32;
        instrs.extend(body);
        instrs.push(Instr::Addi { rd: Reg(8), ra: Reg(8), imm: -1 });
        instrs.push(Instr::Branch { cond: Cond::Ne, ra: Reg(8), rb: Reg(0), target: top });
        instrs.push(Instr::Halt);
        let exec = ExecProgram::compile(&Program::new(instrs)).unwrap();
        let mut start = Machine::default();
        for i in 0..1024u32 {
            start.wram.write_u32(0x100 + 4 * i as usize, i.wrapping_mul(0x9e37_79b9)).unwrap();
        }
        for engine in FAST_TIERS {
            let _ = assert_tier_matches_reference(
                &start, &exec, tasklets, u64::MAX, engine, "random loop",
            );
        }
    }
}

/// `assert_tier_matches_reference` on both fast tiers; returns the
/// superblock and compiled engine paths.
fn both_tiers(
    start: &Machine,
    exec: &ExecProgram,
    tasklets: usize,
    budget: u64,
    label: &str,
) -> (EnginePaths, EnginePaths, Result<RunResult, dpu_sim::Error>) {
    let (superblock, _) =
        assert_tier_matches_reference(start, exec, tasklets, budget, Engine::Superblock, label);
    let (compiled, reference) =
        assert_tier_matches_reference(start, exec, tasklets, budget, Engine::Compiled, label);
    (superblock, compiled, reference)
}

/// A racy shared counter whose load and store both sit in the middle of
/// one compiled block body, followed by a loop of private stores: the
/// cross-tasklet conflict is first seen inside a compiled chain, the
/// chunk rolls back (undoing the stores the chains made), and from then
/// on stores leave chains and windows, so exactly one conflict is ever
/// counted.
#[test]
fn conflict_first_seen_inside_a_compiled_chain_bars_stores() {
    let program = assemble(
        "me r1\n\
         movi r2, 40\n\
         lsli r7, r1, 2\n\
         race: addi r5, r5, 1\n\
         xor r6, r5, r2\n\
         lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         sw r0, 0x40, r3\n\
         add r6, r6, r3\n\
         sw r7, 0x100, r6\n\
         addi r2, r2, -1\n\
         bne r2, r0, race\n\
         movi r2, 40\n\
         private: lw r4, r7, 0x100\n\
         addi r4, r4, 3\n\
         sw r7, 0x100, r4\n\
         xor r5, r5, r4\n\
         addi r2, r2, -1\n\
         bne r2, r0, private\n\
         sw r7, 0x200, r5\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let start = Machine::default();
    for tasklets in [2usize, 5, 12, 16] {
        let label = format!("{tasklets} tasklets, conflict in a chain");
        let (superblock, compiled, reference) =
            both_tiers(&start, &exec, tasklets, u64::MAX, &label);
        reference.expect("completes");
        for paths in [superblock, compiled] {
            assert_eq!(paths.conflicts, 1, "{label}: {paths:?}");
            assert!(paths.window_slots > 0, "{label}: {paths:?}");
        }
        assert_eq!(superblock.chain_slots, 0, "{label}: {superblock:?}");
        assert!(compiled.chain_slots > 0, "{label}: {compiled:?}");
    }
}

/// Every tasklet loads a shared word inside a compiled block; tasklet 1
/// also stores to it. Tasklet-major chunks run tasklet 0's loads before
/// tasklet 1's stores, so only the load tags laid down inside tasklet
/// 0's chains reveal the conflict.
#[test]
fn load_tags_inside_a_chain_catch_a_later_writer() {
    let program = assemble(
        "me r1\n\
         lsli r7, r1, 2\n\
         addi r7, r7, 0x100\n\
         movi r6, 1\n\
         bne r1, r6, go\n\
         movi r7, 0x40\n\
         go: movi r2, 40\n\
         loop: addi r5, r5, 7\n\
         lw r3, r0, 0x40\n\
         add r4, r4, r3\n\
         sw r7, 0, r5\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         lsli r8, r1, 2\n\
         sw r8, 0x200, r4\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let start = Machine::default();
    for tasklets in [2usize, 7, 16] {
        let label = format!("{tasklets} tasklets, reader before writer");
        let (superblock, compiled, reference) =
            both_tiers(&start, &exec, tasklets, u64::MAX, &label);
        reference.expect("completes");
        for paths in [superblock, compiled] {
            assert_eq!(paths.conflicts, 1, "{label}: {paths:?}");
        }
        assert!(compiled.chain_slots > 0, "{label}: {compiled:?}");
    }
}

/// A loop of `iterations` whose one compiled block carries three WRAM
/// accesses; the access at `fault_at` (0, 1 or 2: first, middle, last)
/// goes through a base register that grows by 0x800 per iteration and
/// leaves the 64 KiB WRAM in iteration 32.
/// `fault_store` makes that access a store, otherwise a load. With
/// `identical`, every tasklet starts with the same register file (a
/// replicated lockstep prefix); otherwise each tasklet gets its own
/// stripe (tasklet-major window chunks).
fn faulting_block(
    fault_at: usize,
    fault_store: bool,
    identical: bool,
    iterations: u32,
) -> ExecProgram {
    let mut accesses =
        ["lw r3, r7, 0x100", "sw r7, 0x180, r9", "lw r4, r7, 0x104"].map(String::from);
    accesses[fault_at] =
        if fault_store { "sw r8, 0, r9".to_string() } else { "lw r3, r8, 0".to_string() };
    let stripe = if identical { "movi r7, 0\n" } else { "me r1\nlsli r7, r1, 3\n" };
    let source = format!(
        "{stripe}\
         add r8, r7, r0\n\
         addi r8, r8, 0x400\n\
         movi r2, {iterations}\n\
         loop: addi r8, r8, 0x800\n\
         addi r9, r9, 1\n\
         {}\n\
         add r10, r10, r3\n\
         {}\n\
         xor r11, r11, r4\n\
         {}\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         halt\n",
        accesses[0], accesses[1], accesses[2]
    );
    ExecProgram::compile(&assemble(&source).unwrap()).unwrap()
}

/// Faulting loads and stores at the first, middle and last access of a
/// compiled block, in sole mode, in window chunks and in a replicated
/// lockstep prefix: the chain parks on the access with exactly the ops
/// before it counted, and the fault surfaces at the reference's slot
/// with the reference's memory image.
#[test]
fn faulting_access_inside_a_compiled_block_matches_reference() {
    let start = Machine::default();
    for fault_at in 0..3 {
        for fault_store in [false, true] {
            for identical in [false, true] {
                let exec = faulting_block(fault_at, fault_store, identical, 60);
                for tasklets in [1usize, 4, 11] {
                    let kind = if fault_store { "store" } else { "load" };
                    let label = format!(
                        "{kind} fault at access {fault_at}, {tasklets} tasklets, identical \
                         registers: {identical}"
                    );
                    let (_, _, reference) = both_tiers(&start, &exec, tasklets, u64::MAX, &label);
                    assert!(
                        matches!(reference, Err(dpu_sim::Error::OutOfBounds { .. })),
                        "{label}: {reference:?}"
                    );
                }
            }
        }
    }
}

/// Cycle budgets running out inside chains that hold loads and stores,
/// at every slot of the first iterations and then sparsely, in sole
/// mode, lockstep and window chunks.
#[test]
fn budget_running_out_in_a_chain_with_accesses_matches_reference() {
    let start = Machine::default();
    for identical in [false, true] {
        // Twenty iterations end before the growing store leaves WRAM.
        let clean = faulting_block(2, true, identical, 20);
        for tasklets in [1usize, 3, 16] {
            let label = format!("{tasklets} tasklets, identical registers: {identical}");
            let (_, compiled, full) = both_tiers(&start, &clean, tasklets, u64::MAX, &label);
            let full = full.expect("completes");
            assert!(compiled.chain_slots > 0, "{label}: {compiled:?}");
            if !identical {
                assert!(compiled.chain_slots * 2 > full.instructions, "{label}: {compiled:?}");
            }
            let dense = (0..400).step_by(1);
            let sparse = (400..full.cycles + 12).step_by(61);
            for budget in dense.chain(sparse) {
                let label = format!("{label}, budget {budget}");
                let _ = both_tiers(&start, &clean, tasklets, budget, &label);
            }
        }
    }
}

/// Tasklets with identical register files reach a store on a shared word
/// through a replicated lockstep chain that carries loads: the chain
/// stops before the store, the chunks that follow find the store-store
/// conflict, and the result stays the reference's.
#[test]
fn store_reached_by_a_lockstep_chain_matches_reference() {
    let program = assemble(
        "movi r2, 50\n\
         loop: lw r3, r0, 0x40\n\
         addi r3, r3, 1\n\
         lw r4, r0, 0x80\n\
         xor r5, r5, r4\n\
         add r5, r5, r3\n\
         sw r0, 0x40, r3\n\
         addi r2, r2, -1\n\
         bne r2, r0, loop\n\
         sw r0, 0x44, r5\n\
         halt\n",
    )
    .unwrap();
    let exec = ExecProgram::compile(&program).unwrap();
    let mut start = Machine::default();
    start.wram.write_u32(0x80, 0x1234_5678).unwrap();
    for tasklets in [2usize, 6, 16] {
        let label = format!("{tasklets} identical tasklets");
        let (superblock, compiled, reference) =
            both_tiers(&start, &exec, tasklets, u64::MAX, &label);
        reference.expect("completes");
        for paths in [superblock, compiled] {
            assert_eq!(paths.conflicts, 1, "{label}: {paths:?}");
        }
        assert!(compiled.chain_slots > 0, "{label}: {compiled:?}");
    }
}
