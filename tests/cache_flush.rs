//! The Dynamo-style phase-change flush extension: correctness across
//! flushes (including stale dual-RAS entries) and the policy trigger.

use alpha_isa::{Assembler, Program, Reg};
use ildp_core::oracle::{reference, EndState};
use ildp_core::{ChainPolicy, FlushPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;

/// A two-phase program: a call-heavy phase, then a distinct arithmetic
/// phase, so an aggressive flush policy triggers between (and within)
/// phases while returns are in flight.
fn two_phase_program() -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let main = asm.label("main");
    asm.br(main);

    let helper = asm.here("helper");
    asm.addq(Reg::A0, Reg::A0, Reg::V0);
    asm.xor_imm(Reg::V0, 0x11, Reg::V0);
    asm.ret();

    asm.bind(main);
    asm.entry_here();
    asm.clr(Reg::new(9));
    // Phase 1: call loop.
    asm.lda_imm(Reg::A1, 400);
    let p1 = asm.here("phase1");
    asm.mov(Reg::A1, Reg::A0);
    asm.bsr(helper);
    asm.addq(Reg::new(9), Reg::V0, Reg::new(9));
    asm.subq_imm(Reg::A1, 1, Reg::A1);
    asm.bne(Reg::A1, p1);
    // Phase 2: several distinct arithmetic loops (new hot code).
    for k in 0..6u8 {
        asm.lda_imm(Reg::A1, 300);
        let top = asm.here(format!("phase2_{k}"));
        asm.addq_imm(Reg::new(9), k + 1, Reg::new(9));
        asm.sll_imm(Reg::new(9), 1, Reg::new(1));
        asm.srl_imm(Reg::new(1), 1, Reg::new(1));
        asm.xor(Reg::new(9), Reg::new(1), Reg::new(2));
        asm.addq(Reg::new(9), Reg::new(2), Reg::new(9));
        asm.subq_imm(Reg::A1, 1, Reg::A1);
        asm.bne(Reg::A1, top);
    }
    asm.mov(Reg::new(9), Reg::V0);
    asm.halt();
    asm.finish().unwrap()
}

/// Runs the two-phase program under `policy`, checks it with the oracle
/// against the interpreter, and returns how many flushes fired.
fn run_with_flush(form: IsaForm, policy: FlushPolicy) -> u64 {
    let program = two_phase_program();
    let expected = reference(&program, 1_000_000).unwrap();
    let config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 5,
            ..ProfileConfig::default()
        },
        flush: Some(policy),
        ..VmConfig::default()
    };
    let mut vm = Vm::new(config, &program);
    let exit = vm.run(1_000_000, &mut NullSink);
    if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
        panic!("{form:?} diverged across flushes: {e}");
    }
    vm.stats().cache_flushes
}

#[test]
fn aggressive_flushing_preserves_architecture() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        // A policy so tight that every few fragments trigger a flush.
        let flushes = run_with_flush(
            form,
            FlushPolicy {
                window: 1_000_000,
                max_new_fragments: 2,
            },
        );
        assert!(flushes >= 2, "{form:?}: policy must have fired: {flushes}");
    }
}

#[test]
fn loose_policy_never_fires() {
    let flushes = run_with_flush(IsaForm::Modified, FlushPolicy::default());
    assert_eq!(
        flushes, 0,
        "default policy must not fire on a small program"
    );
}

#[test]
fn flush_resets_cache_but_execution_recovers() {
    let program = two_phase_program();
    let config = VmConfig {
        translator: Translator::default(),
        profile: ProfileConfig {
            threshold: 5,
            ..ProfileConfig::default()
        },
        flush: Some(FlushPolicy {
            window: 1_000_000,
            max_new_fragments: 3,
        }),
        ..VmConfig::default()
    };
    let expected = reference(&program, 1_000_000).unwrap();
    let mut vm = Vm::new(config, &program);
    let exit = vm.run(1_000_000, &mut NullSink);
    expected.check(&EndState::of(&vm, &exit)).unwrap();
    // After flushing, the hot phase-2 code was re-translated: the cache
    // ends non-empty and most instructions still ran translated.
    assert!(vm.stats().cache_flushes > 0);
    assert!(vm.cache().fragments().count() > 0);
    let translated_share = vm.stats().engine.v_insts as f64
        / (vm.stats().engine.v_insts + vm.stats().interpreted) as f64;
    assert!(
        translated_share > 0.5,
        "flushing must not collapse translated coverage: {translated_share:.2}"
    );
}
