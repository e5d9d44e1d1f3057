//! Property-based DBT correctness: generate random (halting) Alpha
//! programs and verify that translated execution passes the oracle
//! against pure interpretation — registers, memory, console output,
//! retired count and how the run ended — for both I-ISA forms and the
//! code-straightening-only form.
//!
//! Program shape: a counted outer loop whose body is a random mix of ALU
//! operations (every non-cmov operate operation, register or literal),
//! loads/stores of every width into a private arena, conditional skips and
//! calls to one of two random leaf functions. The counted loop guarantees
//! termination; the random body exercises the classifier, strand
//! formation, accumulator assignment and chaining on shapes no
//! hand-written workload covers.
//!
//! The body also reaches the edges of the interpreter and of translated
//! code: architectural NOPs (`bis r31,r31,r31`, `lda r31,…`), loads into
//! `r31` (which retire), an `ldq` that turns unaligned and traps on one
//! iteration, a store into the program's own code page (self-modifying
//! code as the VM sees it) and a `putchar`. A further property runs
//! each case paced in random budgets and checks the paced end state
//! equals the unbroken run's.

use alpha_isa::{Assembler, Inst, Label, MemOp, Operand, OperateOp, Program, Reg};
use ildp_core::oracle::{reference, EndState};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum BodyOp {
    Alu {
        op: u8,
        a: u8,
        b: u8,
        c: u8,
    },
    AluImm {
        op: u8,
        a: u8,
        lit: u8,
        c: u8,
    },
    /// A load of `LOADS[width]` at `slot`, `off` accesses into it.
    Load {
        width: u8,
        c: u8,
        slot: u8,
        off: u8,
    },
    /// A store of `STORES[width]` at `slot`, `off` accesses into it.
    Store {
        width: u8,
        a: u8,
        slot: u8,
        off: u8,
    },
    SkipIf {
        cond: u8,
        a: u8,
    },
    Call {
        which: bool,
    },
    Cmov {
        op: u8,
        a: u8,
        b: u8,
        c: u8,
    },
    /// An architectural NOP: `bis r31,r31,r31` or `lda r31, disp(a)`.
    Nop {
        lda: bool,
        a: u8,
    },
    /// `ldq r31, slot(arena)`: retires, but writes nothing.
    LoadZero {
        slot: u8,
    },
    /// `ldq c, slot(arena)`, unaligned by one byte (a trap) on the
    /// iteration whose loop counter is `when`.
    TrapLoad {
        c: u8,
        slot: u8,
        when: u8,
    },
    /// `stq a, slot(code base)`: a store into the program's code page.
    CodeStore {
        a: u8,
        slot: u8,
    },
    /// `putchar` of register `a`'s low byte.
    PutChar {
        a: u8,
    },
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

/// Every non-cmov operate operation.
const ALU_OPS: [OperateOp; 34] = {
    use OperateOp::*;
    [
        Addl, Addq, Subl, Subq, S4addl, S4addq, S8addq, S4subq, S8subq, Cmpeq, Cmplt, Cmple,
        Cmpult, Cmpule, And, Bic, Bis, Ornot, Xor, Eqv, Sll, Srl, Sra, Extbl, Extwl, Extll, Extql,
        Insbl, Mskbl, Zapnot, Zap, Mull, Mulq, Umulh,
    ]
};

/// Every load and every store, with its width in bytes.
const LOADS: [(MemOp, u8); 4] = [
    (MemOp::Ldbu, 1),
    (MemOp::Ldwu, 2),
    (MemOp::Ldl, 4),
    (MemOp::Ldq, 8),
];
const STORES: [(MemOp, u8); 4] = [
    (MemOp::Stb, 1),
    (MemOp::Stw, 2),
    (MemOp::Stl, 4),
    (MemOp::Stq, 8),
];

fn reg(i: u8) -> Reg {
    POOL[i as usize % POOL.len()]
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        4 => (0..ALU_OPS.len() as u8, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, b, c)| BodyOp::Alu { op, a, b, c }),
        3 => (0..ALU_OPS.len() as u8, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, lit, c)| BodyOp::AluImm { op, a, lit, c }),
        2 => (0u8..4, any::<u8>(), 0u8..64, any::<u8>())
            .prop_map(|(width, c, slot, off)| BodyOp::Load { width, c, slot, off }),
        2 => (0u8..4, any::<u8>(), 0u8..64, any::<u8>())
            .prop_map(|(width, a, slot, off)| BodyOp::Store { width, a, slot, off }),
        1 => (0u8..4, any::<u8>()).prop_map(|(cond, a)| BodyOp::SkipIf { cond, a }),
        1 => any::<bool>().prop_map(|which| BodyOp::Call { which }),
        1 => (0u8..4, any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, a, b, c)| BodyOp::Cmov { op, a, b, c }),
        1 => (any::<bool>(), any::<u8>()).prop_map(|(lda, a)| BodyOp::Nop { lda, a }),
        1 => (0u8..64).prop_map(|slot| BodyOp::LoadZero { slot }),
        1 => (any::<u8>(), 0u8..64, 0u8..200)
            .prop_map(|(c, slot, when)| BodyOp::TrapLoad { c, slot, when }),
        1 => (any::<u8>(), 0u8..64).prop_map(|(a, slot)| BodyOp::CodeStore { a, slot }),
        1 => any::<u8>().prop_map(|a| BodyOp::PutChar { a }),
    ]
}

fn emit_alu(asm: &mut Assembler, op: u8, ra: Reg, rb: Operand, rc: Reg) {
    let op = ALU_OPS[op as usize];
    asm.inst(Inst::Operate { op, ra, rb, rc });
}

/// Emits `(op, width)` of `LOADS` or `STORES` on `ra` at the `off`-th
/// naturally aligned access into arena slot `slot`.
fn emit_mem(asm: &mut Assembler, (op, width): (MemOp, u8), ra: Reg, slot: u8, off: u8) {
    let disp = i16::from(slot) * 8 + i16::from(off % (8 / width) * width);
    asm.inst(Inst::Mem {
        op,
        ra,
        rb: Reg::new(11),
        disp,
    });
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
    asm.li32(Reg::new(15), 0x1_0000); // fp = code base
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
            BodyOp::Alu { op, a, b, c } => {
                emit_alu(&mut asm, op, reg(a), Operand::Reg(reg(b)), reg(c))
            }
            BodyOp::AluImm { op, a, lit, c } => {
                emit_alu(&mut asm, op, reg(a), Operand::Lit(lit), reg(c))
            }
            BodyOp::Load {
                width,
                c,
                slot,
                off,
            } => emit_mem(&mut asm, LOADS[width as usize], reg(c), slot, off),
            BodyOp::Store {
                width,
                a,
                slot,
                off,
            } => emit_mem(&mut asm, STORES[width as usize], reg(a), slot, off),
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
            BodyOp::Nop { lda, a } => {
                if lda {
                    asm.lda(Reg::ZERO, i16::from(a), reg(a));
                } else {
                    asm.nop();
                }
            }
            BodyOp::LoadZero { slot } => {
                asm.ldq(Reg::ZERO, (slot as i16) * 8, Reg::new(11));
            }
            BodyOp::TrapLoad { c, slot, when } => {
                // The loop counter runs down from `iters` to 1: a `when`
                // in that range traps on that iteration, any other never.
                asm.cmpeq_imm(Reg::A1, when, Reg::new(14));
                asm.addq(Reg::new(11), Reg::new(14), Reg::new(14));
                asm.ldq(reg(c), (slot as i16) * 8, Reg::new(14));
            }
            BodyOp::CodeStore { a, slot } => {
                asm.stq(reg(a), (slot as i16) * 8, Reg::new(15));
            }
            BodyOp::PutChar { a } => {
                asm.mov(reg(a), Reg::A0);
                asm.putchar();
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

/// Runs the case unbroken and paced in budgets of `strides` (cycled),
/// and checks both against the oracle and the paced end state against
/// the unbroken one.
fn check_paced(ops: &[BodyOp], iters: i16, strides: &[u64]) {
    let program = build_program(ops, iters);
    let budget = 2 * (40_000 + (ops.len() as u64 + 16) * (iters as u64 + 4) * 6);
    let expected = reference(&program, budget).expect("reference run halts");
    let config = VmConfig {
        profile: ProfileConfig {
            threshold: 4,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    };
    let mut whole = Vm::new(config, &program);
    let exit = whole.run(budget, &mut NullSink);
    let unbroken = EndState::of(&whole, &exit);
    if let Err(e) = expected.check(&unbroken) {
        panic!("unbroken run diverged for ops {ops:?}: {e}");
    }
    let mut vm = Vm::new(config, &program);
    let mut calls = 0;
    let exit = loop {
        let next = (vm.v_instructions() + strides[calls % strides.len()]).min(budget);
        calls += 1;
        let exit = vm.run(next, &mut NullSink);
        if exit != VmExit::Budget || next == budget {
            break exit;
        }
    };
    assert_eq!(
        EndState::of(&vm, &exit),
        unbroken,
        "paced run ({calls} calls, strides {strides:?}) diverged for ops {ops:?}"
    );
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

    #[test]
    fn random_programs_pace_exactly(
        ops in prop::collection::vec(body_op(), 4..40),
        iters in 20i16..60,
        strides in prop::collection::vec(1u64..3000, 1..8),
    ) {
        check_paced(&ops, iters, &strides);
    }
}
