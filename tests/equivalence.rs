//! The fundamental DBT correctness invariant, across the whole suite:
//! translated execution must pass the oracle against pure interpretation
//! — for both I-ISA forms, every chaining policy, and the
//! code-straightening-only form, including a run that ends in a trap,
//! one whose loop carries a NOP, and straightened runs paused at a
//! budget and resumed.

use alpha_isa::{Assembler, Program, Reg};
use ildp_core::oracle::{reference, EndState, RefInterp};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;
use spec_workloads::{by_name, suite};

/// The programs every tier must run identically: the scale-1 suite plus
/// a loop carrying a NOP, as `(name, program, budget)`.
fn programs() -> Vec<(String, Program, u64)> {
    suite(1)
        .into_iter()
        .map(|w| (w.name.to_string(), w.program, w.budget))
        .chain([("nop loop".to_string(), nop_loop(), 100_000)])
        .collect()
}

fn expected(name: &str, program: &Program, budget: u64) -> EndState {
    reference(program, budget).unwrap_or_else(|e| panic!("{name}: reference run: {e}"))
}

fn assert_passes(expected: &EndState, actual: &EndState, what: &str) {
    if let Err(e) = expected.check(actual) {
        panic!("{what}: {e}");
    }
}

fn vm_config(form: IsaForm, chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        // A low threshold so even short test runs spend most instructions
        // in translated code.
        profile: ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    }
}

fn check_form_chain(form: IsaForm, chain: ChainPolicy) {
    for (name, program, budget) in programs() {
        let mut vm = Vm::new(vm_config(form, chain), &program);
        let exit = vm.run(budget * 2, &mut NullSink);
        let what = format!("{name} ({form:?}, {chain:?})");
        let expected = expected(&name, &program, budget);
        assert_passes(&expected, &EndState::of(&vm, &exit), &what);
        assert!(vm.stats().fragments > 0, "{name}: nothing was translated");
        // Most hot-path work must actually run translated.
        let translated_share = vm.stats().engine.v_insts as f64
            / (vm.stats().engine.v_insts + vm.stats().interpreted) as f64;
        assert!(
            translated_share > 0.5,
            "{name}: only {:.0}% of instructions ran translated",
            translated_share * 100.0
        );
    }
}

#[test]
fn modified_dual_ras_matches_interpreter() {
    check_form_chain(IsaForm::Modified, ChainPolicy::SwPredDualRas);
}

#[test]
fn basic_dual_ras_matches_interpreter() {
    check_form_chain(IsaForm::Basic, ChainPolicy::SwPredDualRas);
}

#[test]
fn modified_sw_pred_matches_interpreter() {
    check_form_chain(IsaForm::Modified, ChainPolicy::SwPred);
}

#[test]
fn basic_no_pred_matches_interpreter() {
    check_form_chain(IsaForm::Basic, ChainPolicy::NoPred);
}

#[test]
fn eight_accumulators_match_interpreter() {
    for (name, program, budget) in programs() {
        let mut config = vm_config(IsaForm::Modified, ChainPolicy::SwPredDualRas);
        config.translator.acc_count = 8;
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(budget * 2, &mut NullSink);
        let what = format!("{name} with 8 accumulators");
        let expected = expected(&name, &program, budget);
        assert_passes(&expected, &EndState::of(&vm, &exit), &what);
    }
}

/// A hot loop over an array whose `ldq` turns unaligned on iteration
/// `trap_at` (of 200), after a straightened-away `br` so the trapping
/// instruction carries the branch's retirement credit too.
fn trapping_loop(trap_at: u8) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let arena = asm.zero_block(8192);
    asm.li32(Reg::new(11), arena as u32);
    asm.clr(Reg::A1);
    asm.clr(Reg::V0);
    let top = asm.here("top");
    let body = asm.label("body");
    asm.s8addq(Reg::A1, Reg::new(11), Reg::new(1));
    asm.cmpeq_imm(Reg::A1, trap_at, Reg::new(2));
    asm.addq(Reg::new(1), Reg::new(2), Reg::new(1));
    asm.br(body);
    asm.bind(body);
    asm.ldq(Reg::new(3), 0, Reg::new(1));
    asm.addq(Reg::V0, Reg::new(3), Reg::V0);
    asm.addq_imm(Reg::A1, 1, Reg::A1);
    asm.cmplt_imm(Reg::A1, 200, Reg::new(2));
    asm.bne(Reg::new(2), top);
    asm.halt();
    asm.finish().unwrap()
}

/// A 200-iteration loop carrying one `nop`: NOPs retire but never count.
fn nop_loop() -> Program {
    let mut asm = Assembler::new(0x1_0000);
    asm.lda_imm(Reg::A0, 200);
    let top = asm.here("top");
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.nop();
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    asm.finish().unwrap()
}

const CHAINS: [ChainPolicy; 3] = [
    ChainPolicy::NoPred,
    ChainPolicy::SwPred,
    ChainPolicy::SwPredDualRas,
];

#[test]
fn straightened_code_matches_interpreter() {
    // Traps in straightened code, and in the iteration whose execution
    // collects the superblock.
    let trapping = [
        ("trapping loop".to_string(), trapping_loop(150), 100_000),
        ("collection trap".to_string(), trapping_loop(10), 100_000),
    ];
    for (name, program, budget) in programs().into_iter().chain(trapping) {
        let expected = expected(&name, &program, budget);
        for chain in CHAINS {
            let mut vm = Vm::new(vm_config(IsaForm::Straightened, chain), &program);
            let exit = vm.run(budget * 2, &mut NullSink);
            let what = format!("{name} straightened ({chain:?})");
            assert_passes(&expected, &EndState::of(&vm, &exit), &what);
        }
    }
}

/// A budget pause in straightened code must land where the run can
/// resume: each pause passes the oracle at the count it reached, and
/// the resumed run halts interpreter-identical.
#[test]
fn straightened_budget_pauses_are_resumable() {
    let w = by_name("gzip", 1).expect("gzip workload");
    let expected = expected(w.name, &w.program, w.budget);
    for chain in CHAINS {
        for budget in (1_000..=20_000).step_by(997) {
            let what = format!("gzip straightened ({chain:?}) paused at budget {budget}");
            let mut vm = Vm::new(vm_config(IsaForm::Straightened, chain), &w.program);
            let exit = vm.run(budget, &mut NullSink);
            let paused = EndState::of(&vm, &exit);
            let mut reference = RefInterp::from_start(&w.program);
            reference.catch_up(&paused);
            assert_passes(&reference.state(), &paused, &what);
            let exit = vm.run(w.budget * 2, &mut NullSink);
            assert_passes(&expected, &EndState::of(&vm, &exit), &what);
        }
    }
}
