//! Property-based DBT correctness: generate random (halting) Alpha
//! programs and verify that translated execution passes the oracle
//! against pure interpretation — registers, memory, console output,
//! retired count and how the run ended — for both I-ISA forms and the
//! code-straightening-only form.
//!
//! Program shape: a counted outer loop whose body is a random mix of ALU
//! operations, loads/stores into a private arena, conditional skips and
//! calls to one of two random leaf functions. The counted loop guarantees
//! termination; the random body exercises the classifier, strand
//! formation, accumulator assignment and chaining on shapes no
//! hand-written workload covers.

use alpha_isa::{Assembler, Label, Program, Reg};
use ildp_core::oracle::{reference, EndState};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum BodyOp {
    Alu { op: u8, a: u8, b: u8, c: u8 },
    AluImm { op: u8, a: u8, lit: u8, c: u8 },
    Load { c: u8, slot: u8 },
    Store { a: u8, slot: u8 },
    SkipIf { cond: u8, a: u8 },
    Call { which: bool },
    Cmov { op: u8, a: u8, b: u8, c: u8 },
}

/// Registers the generator may use freely (t0..t7, s0..s1).
const POOL: [Reg; 10] = [
    Reg::new(1),
    Reg::new(2),
    Reg::new(3),
    Reg::new(4),
    Reg::new(5),
    Reg::new(6),
    Reg::new(7),
    Reg::new(8),
    Reg::new(9),
    Reg::new(10),
];

fn reg(i: u8) -> Reg {
    POOL[i as usize % POOL.len()]
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        4 => (0u8..8, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, b, c)| BodyOp::Alu { op, a, b, c }),
        3 => (0u8..8, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, lit, c)| BodyOp::AluImm { op, a, lit, c }),
        2 => (any::<u8>(), 0u8..64).prop_map(|(c, slot)| BodyOp::Load { c, slot }),
        2 => (any::<u8>(), 0u8..64).prop_map(|(a, slot)| BodyOp::Store { a, slot }),
        1 => (0u8..4, any::<u8>()).prop_map(|(cond, a)| BodyOp::SkipIf { cond, a }),
        1 => any::<bool>().prop_map(|which| BodyOp::Call { which }),
        1 => (0u8..4, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, b, c)| BodyOp::Cmov { op, a, b, c }),
    ]
}

fn emit_alu(asm: &mut Assembler, op: u8, a: Reg, b: Reg, c: Reg) {
    match op {
        0 => asm.addq(a, b, c),
        1 => asm.subq(a, b, c),
        2 => asm.xor(a, b, c),
        3 => asm.and(a, b, c),
        4 => asm.bis(a, b, c),
        5 => asm.s8addq(a, b, c),
        6 => asm.cmplt(a, b, c),
        7 => asm.mull(a, b, c),
        _ => unreachable!(),
    }
}

fn emit_alu_imm(asm: &mut Assembler, op: u8, a: Reg, lit: u8, c: Reg) {
    match op {
        0 => asm.addq_imm(a, lit, c),
        1 => asm.subq_imm(a, lit, c),
        2 => asm.xor_imm(a, lit, c),
        3 => asm.and_imm(a, lit, c),
        4 => asm.sll_imm(a, lit % 63, c),
        5 => asm.srl_imm(a, lit % 63, c),
        6 => asm.cmpult_imm(a, lit, c),
        7 => asm.zapnot_imm(a, lit, c),
        _ => unreachable!(),
    }
}

fn build_program(ops: &[BodyOp], iters: i16) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let arena = asm.zero_block(64 * 8);

    let main = asm.label("main");
    asm.br(main);

    // Two leaf functions with distinct effects.
    let f1 = asm.here("f1");
    asm.addq(Reg::A0, Reg::A0, Reg::V0);
    asm.xor_imm(Reg::V0, 0x3c, Reg::V0);
    asm.ret();
    let f2 = asm.here("f2");
    asm.s8addq(Reg::A0, Reg::A0, Reg::V0);
    asm.srl_imm(Reg::V0, 2, Reg::V0);
    asm.ret();

    asm.bind(main);
    asm.entry_here();
    // Seed the register pool deterministically.
    for (k, r) in POOL.iter().enumerate() {
        asm.lda_imm(*r, (k as i16 + 3) * 257);
    }
    asm.li32(Reg::new(11), arena as u32); // s2 = arena base
    asm.lda_imm(Reg::A1, iters);
    let top = asm.here("top");
    let mut pending_skip: Option<(Label, usize)> = None;
    for (i, op) in ops.iter().enumerate() {
        if let Some((label, at)) = pending_skip {
            // Close a skip after two body ops.
            if i >= at {
                asm.bind(label);
                pending_skip = None;
            } else {
                pending_skip = Some((label, at));
            }
        }
        match *op {
            BodyOp::Alu { op, a, b, c } => emit_alu(&mut asm, op, reg(a), reg(b), reg(c)),
            BodyOp::AluImm { op, a, lit, c } => emit_alu_imm(&mut asm, op, reg(a), lit, reg(c)),
            BodyOp::Load { c, slot } => {
                asm.ldq(reg(c), (slot as i16) * 8, Reg::new(11));
            }
            BodyOp::Store { a, slot } => {
                asm.stq(reg(a), (slot as i16) * 8, Reg::new(11));
            }
            BodyOp::SkipIf { cond, a } => {
                if pending_skip.is_none() {
                    let label = asm.label(format!("skip{i}"));
                    match cond {
                        0 => asm.beq(reg(a), label),
                        1 => asm.bne(reg(a), label),
                        2 => asm.blt(reg(a), label),
                        _ => asm.bge(reg(a), label),
                    }
                    pending_skip = Some((label, i + 3));
                }
            }
            BodyOp::Call { which } => {
                asm.mov(reg(0), Reg::A0);
                asm.bsr(if which { f1 } else { f2 });
                asm.addq(Reg::new(12), Reg::V0, Reg::new(12));
            }
            BodyOp::Cmov { op, a, b, c } => {
                let (a, b, c) = (reg(a), reg(b), reg(c));
                match op {
                    0 => asm.cmoveq(a, b, c),
                    1 => asm.cmovne(a, b, c),
                    2 => asm.cmovlt(a, b, c),
                    _ => asm.cmovge(a, b, c),
                }
            }
        }
    }
    if let Some((label, _)) = pending_skip {
        asm.bind(label);
    }
    asm.subq_imm(Reg::A1, 1, Reg::A1);
    asm.bne(Reg::A1, top);
    // Checksum the arena into v0 so memory effects are observable.
    asm.li32(Reg::A0, arena as u32);
    asm.lda_imm(Reg::A2, 64);
    let sum = asm.here("sum");
    asm.ldq(Reg::new(13), 0, Reg::A0);
    asm.xor(Reg::V0, Reg::new(13), Reg::V0);
    asm.addq(Reg::V0, Reg::new(12), Reg::V0);
    asm.lda(Reg::A0, 8, Reg::A0);
    asm.subq_imm(Reg::A2, 1, Reg::A2);
    asm.bne(Reg::A2, sum);
    asm.halt();
    asm.finish().expect("generated program assembles")
}

/// The accumulator count a case runs with: the paper's 4, or 8 so the
/// engine's upper accumulator slots see random programs too.
fn accs(eight: bool) -> usize {
    if eight {
        8
    } else {
        4
    }
}

fn check(ops: &[BodyOp], iters: i16, form: IsaForm, chain: ChainPolicy, acc_count: usize) {
    check_fuse(ops, iters, form, chain, acc_count, false);
}

fn check_fuse(
    ops: &[BodyOp],
    iters: i16,
    form: IsaForm,
    chain: ChainPolicy,
    acc_count: usize,
    fuse: bool,
) {
    let program = build_program(ops, iters);
    let budget = 40_000 + (ops.len() as u64 + 16) * (iters as u64 + 4) * 6;
    let expected = reference(&program, budget).expect("reference run halts");
    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count,
            fuse_memory: fuse,
        },
        profile: ProfileConfig {
            threshold: 4,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    };
    let mut vm = Vm::new(config, &program);
    let exit = vm.run(budget * 2, &mut NullSink);
    if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
        panic!("translated execution diverged for ops {ops:?}: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_translate_exactly_modified(
        ops in prop::collection::vec(body_op(), 4..40),
        iters in 20i16..60,
        eight in any::<bool>(),
    ) {
        check(&ops, iters, IsaForm::Modified, ChainPolicy::SwPredDualRas, accs(eight));
    }

    #[test]
    fn random_programs_translate_exactly_basic(
        ops in prop::collection::vec(body_op(), 4..40),
        iters in 20i16..60,
        eight in any::<bool>(),
    ) {
        check(&ops, iters, IsaForm::Basic, ChainPolicy::SwPredDualRas, accs(eight));
    }

    #[test]
    fn random_programs_translate_exactly_no_pred(
        ops in prop::collection::vec(body_op(), 4..24),
        iters in 20i16..40,
        eight in any::<bool>(),
    ) {
        check(&ops, iters, IsaForm::Basic, ChainPolicy::NoPred, accs(eight));
    }

    #[test]
    fn random_programs_translate_exactly_straightened(
        ops in prop::collection::vec(body_op(), 4..40),
        iters in 20i16..60,
        chain in 0usize..3,
    ) {
        let chain = [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain];
        check(&ops, iters, IsaForm::Straightened, chain, 4);
    }

    #[test]
    fn random_programs_translate_exactly_fused_memory(
        ops in prop::collection::vec(body_op(), 4..40),
        iters in 20i16..60,
        eight in any::<bool>(),
    ) {
        let acc_count = accs(eight);
        check_fuse(&ops, iters, IsaForm::Modified, ChainPolicy::SwPredDualRas, acc_count, true);
        check_fuse(&ops, iters, IsaForm::Basic, ChainPolicy::SwPredDualRas, acc_count, true);
    }
}
