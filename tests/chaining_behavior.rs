//! Integration tests of fragment-chaining mechanics (paper §3.2): patch
//! application, dual-RAS hit rates, dispatch frequencies, and the oracle
//! (console output and trap ends included) across the chaining policies —
//! in the accumulator forms and in the code-straightening-only form
//! (§4.1), whose executed-instruction counts order the policies as
//! Figure 5 does.

use alpha_isa::{Assembler, Program, Reg};
use ildp_core::oracle::{reference, End, EndState};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};

/// Panics with the first difference unless `actual` ended exactly like
/// `expected`.
fn assert_passes(expected: &EndState, actual: &EndState, what: &str) {
    if let Err(e) = expected.check(actual) {
        panic!("{what}: {e}");
    }
}
use ildp_isa::IsaForm;

fn vm_config(chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form: IsaForm::Modified,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 5,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    }
}

/// A loop calling two functions alternately — plenty of returns and
/// cross-fragment exits.
fn call_program(iters: i16) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let main = asm.label("main");
    asm.br(main);
    let f1 = asm.here("f1");
    asm.addq_imm(Reg::A0, 3, Reg::V0);
    asm.ret();
    let f2 = asm.here("f2");
    asm.s8addq(Reg::A0, Reg::A0, Reg::V0);
    asm.ret();
    asm.bind(main);
    asm.entry_here();
    asm.lda_imm(Reg::A1, iters);
    asm.clr(Reg::new(9));
    let top = asm.here("top");
    let odd = asm.label("odd");
    let joined = asm.label("joined");
    asm.mov(Reg::A1, Reg::A0);
    asm.and_imm(Reg::A1, 1, Reg::new(1));
    asm.bne(Reg::new(1), odd);
    asm.bsr(f1);
    asm.br(joined);
    asm.bind(odd);
    asm.bsr(f2);
    asm.bind(joined);
    asm.addq(Reg::new(9), Reg::V0, Reg::new(9));
    asm.subq_imm(Reg::A1, 1, Reg::A1);
    asm.bne(Reg::A1, top);
    asm.mov(Reg::new(9), Reg::V0);
    asm.halt();
    asm.finish().unwrap()
}

#[test]
fn patching_links_hot_fragments() {
    let program = call_program(500);
    let expected = reference(&program, 100_000).unwrap();
    let mut vm = Vm::new(vm_config(ChainPolicy::SwPredDualRas), &program);
    let exit = vm.run(100_000, &mut NullSink);
    assert_passes(&expected, &EndState::of(&vm, &exit), "patched");
    // Exits between the loop body, both functions and the join point get
    // patched into direct branches once their targets are translated.
    assert!(
        vm.cache().patches_applied() >= 3,
        "only {} patches",
        vm.cache().patches_applied()
    );
    // Once chained, control flows fragment-to-fragment without the
    // translator: far more fragment entries than fragments.
    let entries: u64 = vm.cache().fragments().map(|f| f.entries).sum();
    assert!(entries > 500, "only {entries} fragment entries");
}

#[test]
fn dual_ras_predicts_almost_all_returns() {
    let program = call_program(500);
    let mut vm = Vm::new(vm_config(ChainPolicy::SwPredDualRas), &program);
    vm.run(100_000, &mut NullSink);
    let s = &vm.stats().engine;
    let total = s.ras_hits + s.ras_misses;
    assert!(total > 400, "returns must run translated: {total}");
    let hit_rate = s.ras_hits as f64 / total as f64;
    assert!(
        hit_rate > 0.95,
        "dual-RAS hit rate {hit_rate:.3} ({} / {total})",
        s.ras_hits
    );
}

#[test]
fn no_pred_dispatches_every_indirect_transfer() {
    let program = call_program(500);
    let expected = reference(&program, 100_000).unwrap();
    let mut no_pred = Vm::new(vm_config(ChainPolicy::NoPred), &program);
    let exit = no_pred.run(100_000, &mut NullSink);
    assert_passes(&expected, &EndState::of(&no_pred, &exit), "no_pred");
    let mut ras = Vm::new(vm_config(ChainPolicy::SwPredDualRas), &program);
    let exit = ras.run(100_000, &mut NullSink);
    assert_passes(&expected, &EndState::of(&ras, &exit), "ras");
    assert!(
        no_pred.stats().engine.dispatches > ras.stats().engine.dispatches * 5,
        "no_pred {} vs ras {} dispatches",
        no_pred.stats().engine.dispatches,
        ras.stats().engine.dispatches
    );
}

#[test]
fn console_output_is_preserved_by_translation() {
    // Print the alphabet from translated code.
    let mut asm = Assembler::new(0x1_0000);
    asm.lda_imm(Reg::A1, 26 * 8); // repeats to get the loop hot
    asm.clr(Reg::new(9));
    let top = asm.here("top");
    asm.and_imm(Reg::new(9), 31, Reg::A0);
    let skip = asm.label("skip");
    asm.cmplt_imm(Reg::A0, 26, Reg::new(1));
    asm.beq(Reg::new(1), skip);
    asm.addq_imm(Reg::A0, 97, Reg::A0); // 'a' + i
    asm.putchar();
    asm.bind(skip);
    asm.addq_imm(Reg::new(9), 1, Reg::new(9));
    asm.subq_imm(Reg::A1, 1, Reg::A1);
    asm.bne(Reg::A1, top);
    asm.halt();
    let program = asm.finish().unwrap();

    let expected = reference(&program, 100_000).unwrap();
    assert!(expected.output.len() > 100);

    for form in [IsaForm::Basic, IsaForm::Modified] {
        let mut config = vm_config(ChainPolicy::SwPredDualRas);
        config.translator.form = form;
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(100_000, &mut NullSink);
        assert_passes(&expected, &EndState::of(&vm, &exit), &format!("{form:?}"));
        assert!(
            vm.stats().engine.v_insts > 500,
            "{form:?}: output must come from translated code"
        );
    }
}

#[test]
fn straightened_and_original_agree_on_checksum() {
    let program = call_program(300);
    let expected = reference(&program, 100_000).unwrap();
    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        let mut config = vm_config(chain);
        config.translator.form = IsaForm::Straightened;
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(100_000, &mut NullSink);
        let actual = EndState::of(&vm, &exit);
        assert_passes(&expected, &actual, &format!("{chain:?}"));
    }
}

#[test]
fn jump_through_zero_register_does_not_panic_the_translator() {
    // Degenerate guest: a hot loop ending in `jmp (r31)` — the target is
    // the constant 0. The translator must lower it to dispatch code (the
    // operand is an immediate, not a GPR) and the VM must deliver the
    // same access-violation trap the interpreter does.
    let mut asm = Assembler::new(0x1_0000);
    asm.lda_imm(Reg::A0, 100);
    let top = asm.here("top");
    asm.addq_imm(Reg::V0, 1, Reg::V0);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.jmp(Reg::ZERO, Reg::ZERO); // pc <- 0
    let program = asm.finish().unwrap();

    let expected = reference(&program, 10_000).unwrap();
    assert!(
        matches!(expected.end, End::Trapped { vaddr: 0, .. }),
        "jumping to 0 must trap"
    );

    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        for form in [IsaForm::Modified, IsaForm::Straightened] {
            let mut config = vm_config(chain);
            config.translator.form = form;
            let mut vm = Vm::new(config, &program);
            let exit = vm.run(10_000, &mut NullSink);
            let what = format!("{form:?}, {chain:?}");
            assert_passes(&expected, &EndState::of(&vm, &exit), &what);
        }
    }
}

#[test]
fn linking_jump_through_its_own_link_register_translates() {
    // `jsr ra, (ra)` reads its target from the register it links: the
    // translation must read the old value before the link write, as the
    // interpreter does.
    let mut asm = Assembler::new(0x1_0000);
    let f = asm.current_pc();
    asm.addq_imm(Reg::V0, 1, Reg::V0);
    asm.ret();
    asm.entry_here();
    asm.lda_imm(Reg::A0, 200);
    let top = asm.here("top");
    asm.li32(Reg::RA, f as u32);
    asm.jsr(Reg::RA, Reg::RA);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    let program = asm.finish().unwrap();
    let expected = reference(&program, 100_000).unwrap();
    assert!(matches!(expected.end, End::Halted));

    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        for form in [IsaForm::Basic, IsaForm::Modified, IsaForm::Straightened] {
            let mut config = vm_config(chain);
            config.translator.form = form;
            config.async_translate = false;
            // Every translation must also pass the install validator
            // (a violation panics).
            config.validator = Some(ildp_verifier::install_validator);
            let mut vm = Vm::new(config, &program);
            let exit = vm.run(100_000, &mut NullSink);
            let what = format!("{form:?}, {chain:?}");
            assert_passes(&expected, &EndState::of(&vm, &exit), &what);
            assert!(vm.stats().fragments > 0, "{what}: nothing translated");
        }
    }
}

/// The code-straightening-only configuration under `chain`, translating
/// synchronously at the default threshold.
fn straightened(chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form: IsaForm::Straightened,
            chain,
            ..Translator::default()
        },
        async_translate: false,
        ..VmConfig::default()
    }
}

/// A loop calling a tiny function and returning: chaining, the dual RAS
/// and dispatch all run.
fn call_loop_program() -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let func = asm.label("func");
    asm.lda_imm(Reg::A0, 300);
    asm.clr(Reg::V0);
    let top = asm.here("top");
    asm.bsr(func);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    asm.bind(func);
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.ret();
    asm.finish().unwrap()
}

/// Straightened code executes the 20-instruction dispatch per return
/// under `no_pred`; software prediction avoids most of them and the dual
/// RAS the compare sequence too (Figure 5's ordering).
#[test]
fn straightened_chaining_policies_order_executed_instructions() {
    let program = call_loop_program();
    let expected = reference(&program, 100_000).unwrap();
    let run = |chain| {
        let mut vm = Vm::new(straightened(chain), &program);
        let exit = vm.run(1_000_000, &mut NullSink);
        assert_passes(&expected, &EndState::of(&vm, &exit), &format!("{chain:?}"));
        let s = vm.stats().clone();
        assert!(
            s.fragments > 0 && s.engine.v_insts > 500,
            "{chain:?}: {s:?}"
        );
        s
    };
    let no_pred = run(ChainPolicy::NoPred);
    let sw = run(ChainPolicy::SwPred);
    let ras = run(ChainPolicy::SwPredDualRas);
    let (n, s, r) = (
        no_pred.dynamic_expansion(),
        sw.dynamic_expansion(),
        ras.dynamic_expansion(),
    );
    assert!(n > s && s > r, "no_pred {n} > sw_pred {s} > ras {r} fails");
    assert!(
        ras.engine.ras_hits > 200,
        "the RAS must predict the returns"
    );
}

/// A loop body split by an unconditional branch: straightened code drops
/// the `br`, so each hot iteration executes 4 instructions for its 5
/// retired V-instructions (plus cold-start noise).
#[test]
fn straightening_removes_unconditional_branches() {
    let mut asm = Assembler::new(0x2_0000);
    asm.lda_imm(Reg::A0, 500);
    let top = asm.here("top");
    let over = asm.label("over");
    asm.addq_imm(Reg::V0, 1, Reg::V0);
    asm.br(over);
    // (dead gap)
    asm.addq_imm(Reg::V0, 7, Reg::V0);
    asm.bind(over);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    let program = asm.finish().unwrap();

    let expected = reference(&program, 100_000).unwrap();
    let mut vm = Vm::new(straightened(ChainPolicy::SwPredDualRas), &program);
    let exit = vm.run(100_000, &mut NullSink);
    assert_passes(&expected, &EndState::of(&vm, &exit), "straightened");
    let hot_ratio = vm.stats().dynamic_expansion();
    assert!(
        hot_ratio < 1.05,
        "straightened loop should not expand: {hot_ratio} (executed {} / v {})",
        vm.stats().engine.executed,
        vm.stats().engine.v_insts
    );
}
