use super::*;
use crate::engine::{EngineStats, NullSink};
use crate::oracle::{reference, EndState};
use crate::translate::ChainPolicy;
use alpha_isa::{Assembler, Reg};
use ildp_isa::IsaForm;

fn loop_program(iters: i16) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let buf = asm.zero_block(4096);
    asm.li32(Reg::A1, buf as u32);
    asm.lda_imm(Reg::A0, iters);
    asm.clr(Reg::V0);
    let top = asm.here("top");
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.and_imm(Reg::A0, 0x3f, Reg::new(3));
    asm.s8addq(Reg::new(3), Reg::A1, Reg::new(3));
    asm.stq(Reg::V0, 0, Reg::new(3));
    asm.ldq(Reg::new(4), 0, Reg::new(3));
    asm.addq(Reg::V0, Reg::new(4), Reg::V0);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    asm.finish().unwrap()
}

/// Panics with the first difference unless `vm`, stopped with `exit`,
/// passes the oracle against an interpreter run of `program`.
fn assert_oracle(program: &Program, vm: &Vm, exit: VmExit) {
    let expected = reference(program, 1_000_000).unwrap();
    if let Err(e) = expected.check(&EndState::of(vm, &exit)) {
        panic!("{e}");
    }
}

fn final_state_matches(form: IsaForm, chain: ChainPolicy) {
    let program = loop_program(500);
    let expected = reference(&program, 100_000).unwrap();

    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        ..VmConfig::default()
    };
    let mut vm = Vm::new(config, &program);
    let exit = vm.run(100_000, &mut NullSink);
    if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
        panic!("translated execution diverged ({form:?}, {chain:?}): {e}");
    }
    assert!(
        vm.stats().fragments > 0,
        "hot loop must have been translated ({form:?}, {chain:?})"
    );
    assert!(
        vm.stats().engine.v_insts > 1_000,
        "most iterations must run translated ({form:?}, {chain:?}): {}",
        vm.stats().engine.v_insts
    );
}

#[test]
fn modified_form_preserves_architecture() {
    final_state_matches(IsaForm::Modified, ChainPolicy::SwPredDualRas);
}

#[test]
fn basic_form_preserves_architecture() {
    final_state_matches(IsaForm::Basic, ChainPolicy::SwPredDualRas);
}

#[test]
fn no_pred_chaining_preserves_architecture() {
    final_state_matches(IsaForm::Modified, ChainPolicy::NoPred);
}

#[test]
fn sw_pred_chaining_preserves_architecture() {
    final_state_matches(IsaForm::Basic, ChainPolicy::SwPred);
}

#[test]
fn basic_executes_more_instructions_than_modified() {
    let program = loop_program(2000);
    let run = |form| {
        let config = VmConfig {
            translator: Translator {
                form,
                ..Translator::default()
            },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(config, &program);
        vm.run(1_000_000, &mut NullSink);
        vm.stats().clone()
    };
    let basic = run(IsaForm::Basic);
    let modified = run(IsaForm::Modified);
    assert!(
        basic.dynamic_expansion() > modified.dynamic_expansion(),
        "basic {} vs modified {}",
        basic.dynamic_expansion(),
        modified.dynamic_expansion()
    );
    assert!(basic.copy_pct() > modified.copy_pct());
    assert!(basic.dynamic_expansion() > 1.0);
}

#[test]
fn overhead_model_reports_per_inst_cost() {
    let program = loop_program(500);
    let mut vm = Vm::new(VmConfig::default(), &program);
    vm.run(100_000, &mut NullSink);
    let per = vm.stats().overhead_per_translated_inst();
    assert!(
        (500.0..2500.0).contains(&per),
        "per-instruction DBT cost {per} out of plausible range"
    );
}

#[test]
fn trace_original_halts_and_counts() {
    let program = loop_program(100);
    let (exit, n) = trace_original(&program, 1_000_000, &mut NullSink);
    assert_eq!(exit, VmExit::Halted);
    assert!(n > 800);
}

#[test]
fn snapshot_restore_continues_identically() {
    let program = loop_program(500);
    // Uninterrupted run.
    let mut vm1 = Vm::new(VmConfig::default(), &program);
    assert_eq!(vm1.run(100_000, &mut NullSink), VmExit::Halted);
    // Interrupted at a mid-run boundary, snapshotted, restored cold.
    let mut vm2 = Vm::new(VmConfig::default(), &program);
    let mid = vm1.v_instructions() / 2;
    assert_eq!(vm2.run(mid, &mut NullSink), VmExit::Budget);
    let snap = vm2.snapshot();
    assert!(!snap.translated.is_empty(), "hot loop must be captured");
    let mut vm3 = Vm::restore(VmConfig::default(), &program, &snap).unwrap();
    assert_eq!(vm3.v_instructions(), snap.v_insts);
    let exit = vm3.run(100_000, &mut NullSink);
    assert_oracle(&program, &vm3, exit);
    // Stats continue cumulatively: the resumed run retranslates the
    // loop, so fragment counts only grow past the snapshot's.
    assert!(vm3.stats().fragments > snap.stats.fragments);
    assert!(vm3.stats().translated_code_bytes > snap.stats.translated_code_bytes);
    // Restoring onto a different program is refused.
    let other = loop_program(501);
    assert!(matches!(
        Vm::restore(VmConfig::default(), &other, &snap),
        Err(SnapshotError::ProgramMismatch { .. })
    ));
}

#[test]
fn budget_exhaustion() {
    let program = loop_program(10_000);
    let mut vm = Vm::new(VmConfig::default(), &program);
    let exit = vm.run(5_000, &mut NullSink);
    assert_eq!(exit, VmExit::Budget);
}

fn sync_config() -> VmConfig {
    VmConfig {
        async_translate: false,
        ..VmConfig::default()
    }
}

#[test]
fn async_pipeline_matches_sync_architecturally() {
    let program = loop_program(800);
    let mut sync_vm = Vm::new(sync_config(), &program);
    let exit = sync_vm.run(100_000, &mut NullSink);
    assert_oracle(&program, &sync_vm, exit);
    let mut async_vm = Vm::new(VmConfig::default(), &program);
    let exit = async_vm.run(100_000, &mut NullSink);
    assert_oracle(&program, &async_vm, exit);
    assert!(
        async_vm.stats().fragments > 0,
        "the hot loop must still get translated in the background"
    );
    assert_eq!(
        async_vm.stats().async_installs,
        async_vm.stats().fragments,
        "every async fragment installs through the safe-point path"
    );
}

#[test]
fn delayed_install_parks_translations_until_anchor() {
    let program = loop_program(800);
    let config = VmConfig {
        install_delay: Some(200),
        ..sync_config()
    };
    let mut vm = Vm::new(config, &program);
    let exit = vm.run(100_000, &mut NullSink);
    assert_oracle(&program, &vm, exit);
    assert!(vm.stats().fragments > 0, "delayed installs must land");
    assert_eq!(vm.stats().async_installs, vm.stats().fragments);
}

#[test]
fn warm_start_reuses_published_fragments() {
    let program = loop_program(800);
    let store = Arc::new(FragmentStore::new());
    let mut cold = Vm::new(sync_config(), &program);
    cold.attach_store(Arc::clone(&store));
    let exit = cold.run(100_000, &mut NullSink);
    assert_oracle(&program, &cold, exit);
    assert!(cold.stats().warm_stores > 0, "cold VM must publish");
    assert_eq!(cold.stats().warm_hits, 0);

    let mut warm = Vm::new(sync_config(), &program);
    warm.attach_store(Arc::clone(&store));
    let exit = warm.run(100_000, &mut NullSink);
    assert_oracle(&program, &warm, exit);
    assert!(warm.stats().fragments > 0);
    assert_eq!(
        warm.stats().warm_hits,
        warm.stats().fragments,
        "every warm fragment must come from the store"
    );
    assert_eq!(warm.stats().warm_misses, 0);
    assert_eq!(
        warm.stats().translation_overhead,
        0,
        "warm start must not pay translation overhead"
    );
}

/// Three loops run one after another, each a straight-line body (one
/// NOP included) closed by a backward branch; with `calls`, each body
/// also calls a leaf through `bsr`/`ret`.
fn phased_program(calls: bool) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let buf = asm.zero_block(512);
    let leaf = asm.label("leaf");
    asm.li32(Reg::A1, buf as u32);
    asm.clr(Reg::V0);
    for phase in 0..3u8 {
        asm.lda_imm(Reg::A0, 120);
        let top = asm.here(format!("loop{phase}"));
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.and_imm(Reg::A0, 0x3f, Reg::new(3));
        asm.nop();
        asm.s8addq(Reg::new(3), Reg::A1, Reg::new(3));
        asm.stq(Reg::V0, 0, Reg::new(3));
        if calls {
            asm.bsr(leaf);
        }
        asm.ldq(Reg::new(4), 0, Reg::new(3));
        asm.addq_imm(Reg::V0, phase + 1, Reg::V0);
        asm.xor(Reg::V0, Reg::new(4), Reg::V0);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
    }
    asm.halt();
    asm.bind(leaf);
    asm.addq_imm(Reg::V0, 3, Reg::V0);
    asm.ret();
    asm.finish().unwrap()
}

fn interp_only_config() -> VmConfig {
    VmConfig {
        max_demotions: 0,
        ..sync_config()
    }
}

/// `stats` with every wall-clock field zeroed.
fn without_clocks(stats: &VmStats) -> VmStats {
    VmStats {
        verify_nanos: 0,
        translate_stall_nanos: 0,
        translate_wall_nanos: 0,
        pool_await_max_nanos: 0,
        ..stats.clone()
    }
}

/// Steps `vm` to the halt one retired instruction per `run` call and
/// returns the counts `b` whose `b`-th instruction the interpreter
/// retired on its own (no engine execution, no collection in that
/// call): a budget of `b` lands in interpreted code.
fn interpreted_positions(vm: &mut Vm) -> HashSet<u64> {
    let mut positions = HashSet::new();
    loop {
        let (v, engine, fragments) = (
            vm.v_instructions(),
            vm.engine.stats.v_insts,
            vm.stats.fragments,
        );
        let exit = vm.run(v + 1, &mut NullSink);
        if vm.engine.stats.v_insts == engine && vm.stats.fragments == fragments {
            positions.insert(vm.v_instructions());
        }
        if exit != VmExit::Budget {
            assert_eq!(exit, VmExit::Halted);
            return positions;
        }
    }
}

#[test]
fn budgets_landing_in_interpreted_code_stop_exactly() {
    for (config, calls) in [
        (interp_only_config(), true),
        (sync_config(), true),
        (sync_config(), false),
    ] {
        let program = phased_program(calls);
        let interpreted = interpreted_positions(&mut Vm::new(config, &program));
        let mut reference = Vm::new(config, &program);
        assert_eq!(reference.run(u64::MAX, &mut NullSink), VmExit::Halted);
        let total = reference.v_instructions();
        if config.max_demotions == 0 {
            assert_eq!(
                interpreted.len() as u64,
                total,
                "every count is interpreted"
            );
        } else {
            assert!(reference.stats().engine.v_insts > total / 2);
        }
        let mut exact = 0;
        for b in (1..total).step_by(3) {
            let mut vm = Vm::new(config, &program);
            assert_eq!(vm.run(b, &mut NullSink), VmExit::Budget, "budget {b}");
            assert!(vm.v_instructions() >= b);
            if interpreted.contains(&b) {
                assert_eq!(vm.v_instructions(), b, "budget {b} overshot");
                exact += 1;
            }
        }
        assert!(
            exact >= 100,
            "only {exact} budgets landed in interpreted code"
        );
    }
}

#[test]
fn chained_budgeted_runs_match_a_single_run() {
    const STRIDES: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
    for config in [interp_only_config(), sync_config()] {
        let program = phased_program(true);
        let mut single = Vm::new(config, &program);
        let exit = single.run(u64::MAX, &mut NullSink);
        assert_oracle(&program, &single, exit);
        let mut chained = Vm::new(config, &program);
        let mut calls = 0;
        loop {
            let budget = chained.v_instructions() + STRIDES[calls % STRIDES.len()];
            calls += 1;
            match chained.run(budget, &mut NullSink) {
                VmExit::Budget => {}
                exit => {
                    assert_oracle(&program, &chained, exit);
                    break;
                }
            }
        }
        assert!(calls > 100);
        assert_eq!(
            without_clocks(chained.stats()),
            without_clocks(single.stats())
        );
    }
}

#[test]
fn delayed_installs_land_exactly_on_mid_block_anchors() {
    let program = phased_program(false);
    for delay in [1, 3, 7] {
        let config = VmConfig {
            install_delay: Some(delay),
            ..sync_config()
        };
        // Stepping one instruction per call reveals every parked
        // translation and its anchor before the anchor arrives, and every
        // install at the count it lands on.
        let mut stepped = Vm::new(config, &program);
        let mut anchors = Vec::new();
        let mut installs = Vec::new();
        loop {
            let live = |vm: &Vm| {
                vm.cache
                    .fragments()
                    .map(|f| f.vstart)
                    .collect::<HashSet<_>>()
            };
            let before = live(&stepped);
            let exit = stepped.run(stepped.v_instructions() + 1, &mut NullSink);
            for &vstart in live(&stepped).difference(&before) {
                installs.push((vstart, stepped.v_instructions()));
            }
            for s in &stepped.staged {
                if !anchors.contains(&(s.vstart(), s.anchor)) {
                    anchors.push((s.vstart(), s.anchor));
                }
            }
            if exit != VmExit::Budget {
                assert_eq!(exit, VmExit::Halted);
                break;
            }
        }
        assert_eq!(anchors.len(), 3, "one install per loop");
        assert_eq!(installs, anchors, "delay {delay}");

        let mut vm = Vm::new(config, &program);
        let exit = vm.run(u64::MAX, &mut NullSink);
        assert_oracle(&program, &vm, exit);
        // The unbroken run installs at the same anchors: it interprets
        // exactly as much. (Budget pauses split fragment executions, so
        // the engine's executed-instruction count is not compared.)
        assert_eq!(vm.stats().interpreted, stepped.stats().interpreted);
        assert_eq!(vm.stats().engine.v_insts, stepped.stats().engine.v_insts);
    }
}

#[test]
fn engine_counters_are_pause_invariant_but_executed() {
    for calls in [false, true] {
        let program = phased_program(calls);
        let mut single = Vm::new(sync_config(), &program);
        assert_eq!(single.run(u64::MAX, &mut NullSink), VmExit::Halted);
        let mut stepped = Vm::new(sync_config(), &program);
        while stepped.run(stepped.v_instructions() + 1, &mut NullSink) == VmExit::Budget {}
        let (unbroken, paused) = (&single.stats().engine, &stepped.stats().engine);
        // A self-transfer inside one engine run resumes past the entry
        // `set-vpc-base`; a pause ends the run, and the resumed entry
        // executes it again (on the self-looping program, 2,487 stepped
        // against 2,283 unbroken).
        assert!(paused.executed >= unbroken.executed, "calls {calls}");
        let without_executed = |s: &EngineStats| EngineStats {
            executed: 0,
            ..s.clone()
        };
        assert_eq!(
            without_executed(paused),
            without_executed(unbroken),
            "calls {calls}"
        );
    }
}

/// Steps a reference interpreter to exactly `count` retired instructions
/// and panics with the first difference unless `vm`, stopped with
/// `exit`, is at the same place in the same state.
fn assert_at_reference(program: &Program, vm: &Vm, exit: VmExit, count: u64) {
    let mut r = crate::oracle::RefInterp::from_start(program);
    r.advance_to(count);
    if let Err(e) = r.state().check(&EndState::of(vm, &exit)) {
        panic!("at {count}: {e}");
    }
}

/// The address of the label `name` in `program`.
fn label(program: &Program, name: &str) -> u64 {
    program.symbols().find(|&(_, n)| n == name).unwrap().0
}

#[test]
fn a_fragment_installed_inside_an_interpreted_block_cuts_it() {
    let program = phased_program(false);
    let config = interp_only_config();
    // `mid` is the first loop's fourth instruction, strictly inside the
    // block the interpreter runs for each iteration.
    let top = label(&program, "loop0");
    let mid = top + 12;
    let mut vm = Vm::new(config, &program);
    // Ten iterations interpreted, each body one block; stop at the top
    // of the eleventh.
    let mut passes = 0;
    while passes < 11 {
        assert_eq!(
            vm.run(vm.v_instructions() + 1, &mut NullSink),
            VmExit::Budget
        );
        passes += u64::from(vm.cpu.pc == top);
    }
    // A translation of the path from `mid`, collected on a scratch copy
    // of the machine: every path it did not follow leaves through an
    // exit guard, so it is valid for any state at `mid`.
    let (mut cpu, mut mem) = program.load();
    cpu.pc = mid;
    let sb =
        crate::profile::collect_superblock(&mut cpu, &mut mem, &program, &config.profile).unwrap();
    let code = config.translator.translate(&sb);
    vm.install(code, config.translator.form, None, true);
    let exit = vm.run(u64::MAX, &mut NullSink);
    assert_oracle(&program, &vm, exit);
    // Each of the 110 remaining passes ends its interpreted block at
    // `mid` and enters the fragment there.
    assert_eq!(vm.stats().engine.fragment_entries, 110);
}

#[test]
fn budgets_inside_a_lowered_run_stop_on_the_count() {
    for config in [interp_only_config(), sync_config()] {
        let program = phased_program(false);
        // Every count through the first loop's first forty iterations,
        // all interpreted (the loop turns hot at its fiftieth), in one
        // budget each.
        for b in 1..360 {
            let mut vm = Vm::new(config, &program);
            let exit = vm.run(b, &mut NullSink);
            assert_eq!(exit, VmExit::Budget);
            assert_eq!(vm.v_instructions(), b, "budget {b} overshot");
            assert_at_reference(&program, &vm, exit, b);
        }
    }
}

#[test]
fn anchors_inside_a_lowered_run_stop_on_the_count() {
    let program = phased_program(false);
    for delay in 1..=12 {
        let config = VmConfig {
            install_delay: Some(delay),
            ..sync_config()
        };
        let mut vm = Vm::new(config, &program);
        // Run to each anchor as it is parked, and check the install
        // happens exactly there.
        let mut installs = 0;
        loop {
            let exit = vm.run(vm.v_instructions() + 1, &mut NullSink);
            if let Some(s) = vm.staged.first() {
                let (vstart, anchor) = (s.vstart(), s.anchor);
                let exit = vm.run(anchor, &mut NullSink);
                assert_eq!(exit, VmExit::Budget);
                assert_eq!(vm.v_instructions(), anchor, "delay {delay}");
                assert_at_reference(&program, &vm, exit, anchor);
                // The anchor is serviced at the next safe point.
                vm.run(anchor, &mut NullSink);
                assert!(vm.cache.lookup(vstart).is_some(), "delay {delay}");
                installs += 1;
            } else if exit != VmExit::Budget {
                assert_oracle(&program, &vm, exit);
                break;
            }
        }
        assert_eq!(installs, 3, "delay {delay}");
    }
}

#[test]
fn a_trapping_load_inside_a_run_is_precise() {
    // Ten iterations of a straight-line run whose load address turns
    // unaligned on the fourth.
    let mut asm = Assembler::new(0x1_0000);
    let buf = asm.zero_block(64);
    asm.li32(Reg::A1, buf as u32);
    asm.lda_imm(Reg::A0, 10);
    let top = asm.here("top");
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.cmpeq_imm(Reg::A0, 6, Reg::new(3));
    asm.addq(Reg::A1, Reg::new(3), Reg::new(3));
    asm.ldq(Reg::new(4), 0, Reg::new(3));
    asm.addq(Reg::V0, Reg::new(4), Reg::V0);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    let program = asm.finish().unwrap();
    let load = label(&program, "top") + 12;
    for config in [interp_only_config(), sync_config()] {
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(u64::MAX, &mut NullSink);
        let VmExit::Trapped { vaddr, .. } = exit else {
            panic!("expected a trap, got {exit:?}");
        };
        assert_eq!((vaddr, vm.cpu().pc), (load, load));
        // The oracle checks the precise registers and that the load did
        // not retire.
        assert_oracle(&program, &vm, exit);
    }
}

#[test]
fn an_interpreted_store_into_a_code_page_reports_smc_after_the_write() {
    // The first loop turns hot and translates; then interpreted code
    // stores into the code page the fragment was translated from.
    let mut asm = Assembler::new(0x1_0000);
    asm.lda_imm(Reg::A0, 120);
    let top = asm.here("top");
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.li32(Reg::A1, 0x1_0800);
    asm.stq(Reg::V0, 0, Reg::A1);
    asm.ldq(Reg::new(4), 0, Reg::A1);
    asm.halt();
    let program = asm.finish().unwrap();
    let mut vm = Vm::new(sync_config(), &program);
    let exit = vm.run(u64::MAX, &mut NullSink);
    assert_oracle(&program, &vm, exit);
    assert_eq!(vm.stats().fragments, 1);
    assert_eq!(vm.stats().smc_invalidations, 1);
    assert_eq!(vm.cache().live_fragments(), 0);
    // The store completed before the invalidation: the load behind it
    // reads the stored value.
    assert_eq!(vm.cpu().read(Reg::new(4)), vm.cpu().read(Reg::V0));
    assert_eq!(vm.memory().read_u64(0x1_0800), vm.cpu().read(Reg::V0));
}
