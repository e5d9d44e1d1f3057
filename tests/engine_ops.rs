//! Per-operation differential: the engine gives every ALU operation and
//! every memory width its own op, so each one is tested on its own.
//!
//! One program per case, each a loop hot enough to translate:
//! * every `OperateOp`, conditional moves included, in register form
//!   (over every pair of edge operands, and with `r31` on either side or
//!   on both) and in literal form (over every edge operand and the
//!   literals 0/1/7/8/63/64/128/255, also with `r31` as `ra`);
//! * every load and store width at aligned addresses, and every width
//!   that alignment can trap (2, 4 and 8 bytes; a byte access never
//!   traps under `AlignPolicy::Enforce`) at an address that traps, once
//!   in the first iterations (interpreted) and once late (translated).
//!
//! The edge operands are 0, 1, −1, the `i64` and `i32` bounds, `u32::MAX`,
//! 2³¹, the shift and byte counts 7/8/63/64, a mixed-bit pattern and the
//! byte bounds 0x80/0xff; loaded bytes include 0x80–0xff, so sign and
//! zero extension show.
//!
//! Each case runs in the basic, modified and straightened forms and
//! interpret-only (the lowered interpreter tier on its own), once
//! unbroken and once paced in budgets, and `ildp_core::oracle` judges
//! the end of every run and every pause against the reference
//! interpreter.

use alpha_isa::{Assembler, Inst, MemOp, Operand, OperateOp, Program, Reg};
use ildp_core::oracle::{reference, End, EndState, RefInterp};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;

/// Every Alpha operate operation.
const OPERATE_OPS: [OperateOp; 42] = {
    use OperateOp::*;
    [
        Addl, Addq, Subl, Subq, S4addl, S4addq, S8addq, S4subq, S8subq, Cmpeq, Cmplt, Cmple,
        Cmpult, Cmpule, And, Bic, Bis, Ornot, Xor, Eqv, Cmoveq, Cmovne, Cmovlt, Cmovge, Cmovle,
        Cmovgt, Cmovlbs, Cmovlbc, Sll, Srl, Sra, Extbl, Extwl, Extll, Extql, Insbl, Mskbl, Zapnot,
        Zap, Mull, Mulq, Umulh,
    ]
};

/// Edge operands.
const EDGES: [u64; 16] = [
    0,
    1,
    u64::MAX,
    i64::MIN as u64,
    i64::MAX as u64,
    i32::MIN as i64 as u64,
    i32::MAX as u64,
    u32::MAX as u64,
    1 << 31,
    7,
    8,
    63,
    64,
    0x0123_4567_89ab_cdef,
    0x80,
    0xff,
];

/// Literal operands.
const LITS: [u8; 8] = [0, 1, 7, 8, 63, 64, 128, 255];

/// Every load and store, with its width in bytes.
const LOADS: [(MemOp, i16); 4] = [
    (MemOp::Ldbu, 1),
    (MemOp::Ldwu, 2),
    (MemOp::Ldl, 4),
    (MemOp::Ldq, 8),
];
const STORES: [(MemOp, i16); 4] = [
    (MemOp::Stb, 1),
    (MemOp::Stw, 2),
    (MemOp::Stl, 4),
    (MemOp::Stq, 8),
];

/// Iterations of a memory case's loop.
const MEM_ITERS: i16 = 48;

/// Rounds over the operand table in an operate case.
const ROUNDS: i16 = 3;

// Registers: the checksum, operands and results, then pointers and
// counters.
const SUM: Reg = Reg::V0;
const A: Reg = Reg::new(1);
const B: Reg = Reg::new(2);
const RC: Reg = Reg::new(3);
const R4: Reg = Reg::new(4);
const R5: Reg = Reg::new(5);
const R6: Reg = Reg::new(6);
const T: Reg = Reg::new(7);
const TABLE: Reg = Reg::new(9);
const OUT: Reg = Reg::new(10);
const ROUND: Reg = Reg::new(11);
const PA: Reg = Reg::new(12);
const I: Reg = Reg::new(13);
const PB: Reg = Reg::new(14);
const J: Reg = Reg::new(15);
const OLD: Reg = Reg::new(16);

fn operate(asm: &mut Assembler, op: OperateOp, ra: Reg, rb: Operand, rc: Reg) {
    asm.inst(Inst::Operate { op, ra, rb, rc });
}

fn mem(asm: &mut Assembler, op: MemOp, ra: Reg, disp: i16, rb: Reg) {
    asm.inst(Inst::Mem { op, ra, rb, disp });
}

/// Adds `r` into the checksum.
fn sum(asm: &mut Assembler, r: Reg) {
    asm.addq(SUM, r, SUM);
}

/// `op` over every pair of edge operands (`lit` false) or every edge
/// operand and literal (`lit` true), `ROUNDS` times. Every result is added
/// to the checksum and the last round's are stored. A conditional move's
/// destination holds a fixed value in front of it.
fn operate_program(op: OperateOp, lit: bool) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let table = asm.data_block(EDGES.iter().flat_map(|v| v.to_le_bytes()).collect());
    let out = asm.zero_block(EDGES.len() * EDGES.len() * 8);
    asm.entry_here();
    asm.li32(OLD, 0x5a5a_a5a5);
    asm.li32(TABLE, table as u32);
    asm.lda_imm(ROUND, ROUNDS);
    let round = asm.here("round");
    asm.li32(OUT, out as u32);
    asm.mov(TABLE, PA);
    asm.lda_imm(I, EDGES.len() as i16);
    let outer = asm.here("outer");
    asm.ldq(A, 0, PA);
    if lit {
        for l in LITS {
            asm.mov(OLD, RC);
            operate(&mut asm, op, A, Operand::Lit(l), RC);
            operate(&mut asm, op, Reg::ZERO, Operand::Lit(l), R4);
            sum(&mut asm, RC);
            sum(&mut asm, R4);
            asm.stq(RC, 0, OUT);
            asm.lda(OUT, 8, OUT);
        }
    } else {
        asm.mov(TABLE, PB);
        asm.lda_imm(J, EDGES.len() as i16);
        let inner = asm.here("inner");
        asm.ldq(B, 0, PB);
        asm.mov(OLD, RC);
        operate(&mut asm, op, A, Operand::Reg(B), RC);
        operate(&mut asm, op, Reg::ZERO, Operand::Reg(B), R4);
        operate(&mut asm, op, A, Operand::Reg(Reg::ZERO), R5);
        operate(&mut asm, op, Reg::ZERO, Operand::Reg(Reg::ZERO), R6);
        for r in [RC, R4, R5, R6] {
            sum(&mut asm, r);
        }
        asm.stq(RC, 0, OUT);
        asm.lda(OUT, 8, OUT);
        asm.lda(PB, 8, PB);
        asm.subq_imm(J, 1, J);
        asm.bne(J, inner);
    }
    asm.lda(PA, 8, PA);
    asm.subq_imm(I, 1, I);
    asm.bne(I, outer);
    asm.subq_imm(ROUND, 1, ROUND);
    asm.bne(ROUND, round);
    asm.halt();
    asm.finish().expect("operate case assembles")
}

/// `MEM_ITERS` loads (`load` true: from a byte pattern, each result
/// added to the checksum and stored as a quadword, plus a load into
/// `r31`) or stores (of the edge operands in turn) of `op`, `width` bytes
/// apart. With `trap_at`, the access of the iteration whose down-counter
/// equals it is one byte off: unaligned for every width but a byte.
fn memory_program(op: MemOp, width: i16, trap_at: Option<u8>) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let table = asm.data_block(EDGES.iter().flat_map(|v| v.to_le_bytes()).collect());
    let span = MEM_ITERS as usize * 8 + 16;
    let pattern = asm.data_block((0..span).map(|k| (k * 0x9d + 0x71) as u8).collect());
    let out = asm.zero_block(span);
    asm.entry_here();
    asm.li32(TABLE, table as u32);
    asm.li32(OUT, out as u32);
    // Loads read `8(PA)` from `pattern - 8`; stores write `0(PA)` from
    // `out + 8`.
    let load = op.is_load();
    let base = if load { pattern - 8 } else { out + 8 };
    asm.li32(PA, base as u32);
    asm.lda_imm(I, MEM_ITERS);
    let top = asm.here("top");
    let at = match trap_at {
        Some(when) => {
            asm.cmpeq_imm(I, when, T);
            asm.addq(PA, T, T);
            T
        }
        None => PA,
    };
    if load {
        mem(&mut asm, op, RC, 8, at);
        mem(&mut asm, op, Reg::ZERO, 8, PA);
        sum(&mut asm, RC);
        asm.stq(RC, 0, OUT);
        asm.lda(OUT, 8, OUT);
    } else {
        asm.and_imm(I, 15, B);
        asm.s8addq(B, TABLE, B);
        asm.ldq(B, 0, B);
        mem(&mut asm, op, B, 0, at);
    }
    asm.lda(PA, width, PA);
    asm.subq_imm(I, 1, I);
    asm.bne(I, top);
    asm.halt();
    asm.finish().expect("memory case assembles")
}

/// The three translator forms at a low hotness threshold, so most of
/// each loop runs translated, and interpret-only.
fn configs() -> [(&'static str, VmConfig); 4] {
    let translated = |form| VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            ..Translator::default()
        },
        profile: ProfileConfig {
            threshold: 4,
            ..ProfileConfig::default()
        },
        async_translate: false,
        ..VmConfig::default()
    };
    [
        ("basic", translated(IsaForm::Basic)),
        ("modified", translated(IsaForm::Modified)),
        ("straightened", translated(IsaForm::Straightened)),
        (
            "interpret-only",
            VmConfig {
                max_demotions: 0,
                ..translated(IsaForm::Modified)
            },
        ),
    ]
}

/// Runs `program` in every configuration, unbroken and paced in about
/// sixteen budgets, and judges every end and every pause by the oracle.
fn check(case: &str, program: &Program) {
    const BUDGET: u64 = 1_000_000;
    let expected = reference(program, BUDGET).expect("reference run ends");
    let stride = expected.retired / 16 + 1;
    for (name, config) in configs() {
        let mut vm = Vm::new(config, program);
        let exit = vm.run(BUDGET, &mut NullSink);
        if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
            panic!("{case}, {name}: {e}");
        }
        let mut vm = Vm::new(config, program);
        let mut reference = RefInterp::from_start(program);
        loop {
            let exit = vm.run(vm.v_instructions() + stride, &mut NullSink);
            let state = EndState::of(&vm, &exit);
            reference.catch_up(&state);
            if let Err(e) = reference.state().check(&state) {
                panic!("{case}, {name}, paced by {stride}: {e}");
            }
            if exit != VmExit::Budget {
                break;
            }
        }
    }
}

#[test]
fn every_operate_op_matches_the_reference_in_register_form() {
    for op in OPERATE_OPS {
        check(
            &format!("{op:?} register form"),
            &operate_program(op, false),
        );
    }
}

#[test]
fn every_operate_op_matches_the_reference_in_literal_form() {
    for op in OPERATE_OPS {
        check(&format!("{op:?} literal form"), &operate_program(op, true));
    }
}

#[test]
fn every_load_and_store_width_matches_the_reference() {
    for (op, width) in LOADS.into_iter().chain(STORES) {
        check(&format!("{op:?} aligned"), &memory_program(op, width, None));
    }
}

#[test]
fn unaligned_accesses_trap_precisely_at_every_width() {
    for (op, width) in LOADS.into_iter().chain(STORES).filter(|&(_, w)| w > 1) {
        // The second iteration runs interpreted; the fortieth translated.
        for when in [MEM_ITERS as u8 - 1, 8] {
            let program = memory_program(op, width, Some(when));
            let expected = reference(&program, 100_000).expect("reference run ends");
            assert!(
                matches!(expected.end, End::Trapped { .. }),
                "{op:?} at iteration {when} must trap"
            );
            check(&format!("{op:?} trapping at counter {when}"), &program);
        }
    }
}
