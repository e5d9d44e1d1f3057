//! Seeded program generator for the `cold` and `warm` workloads.
//!
//! Each program is many small, short-lived hot loops: `main` calls 300
//! leaf functions once each, and each function runs a 120-iteration loop
//! over a random body. A loop turns hot after the profiling threshold
//! (50 iterations), so every function costs one superblock collection,
//! translation and verification that the remaining 70 iterations must
//! pay back — the translation layers' share of run time is as large as
//! in any real start-up phase. No fragment is entered often enough to
//! reach the region trigger (4096), so the region tier never fires.

use alpha_isa::{Assembler, Program, Reg};
use spec_workloads::XorShift;

/// Leaf functions per program.
const FUNCTIONS: usize = 300;
/// Iterations of each function's loop.
const ITERATIONS: i16 = 120;
/// Bytes of the data arena every load and store addresses.
const ARENA_BYTES: usize = 512;
/// Run budget, several times a generated program's length.
pub const BUDGET: u64 = 4_000_000;

const CODE_BASE: u64 = 0x1_0000;
const COUNTER: Reg = Reg::A0;
const ARENA: Reg = Reg::A1;
/// Registers a body computes in: v0, t0–t7 and s0–s5.
const BODY_REGS: [Reg; 15] = [
    Reg::new(0),
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
    Reg::new(11),
    Reg::new(12),
    Reg::new(13),
    Reg::new(14),
];

type RegOp = fn(&mut Assembler, Reg, Reg, Reg);
type ImmOp = fn(&mut Assembler, Reg, u8, Reg);
type MemOp = fn(&mut Assembler, Reg, i16, Reg);

const ALU: [RegOp; 10] = [
    Assembler::addq,
    Assembler::subq,
    Assembler::xor,
    Assembler::and,
    Assembler::bis,
    Assembler::mulq,
    Assembler::s8addq,
    Assembler::cmpult,
    Assembler::sll,
    Assembler::srl,
];
const ALU_IMM: [ImmOp; 6] = [
    Assembler::addq_imm,
    Assembler::xor_imm,
    Assembler::sll_imm,
    Assembler::srl_imm,
    Assembler::and_imm,
    Assembler::zapnot_imm,
];
const CMOV: [RegOp; 4] = [
    Assembler::cmoveq,
    Assembler::cmovne,
    Assembler::cmovlt,
    Assembler::cmovge,
];
/// Loads and stores with their access size: displacements are drawn
/// aligned to it, so no access can trap.
const LOADS: [(MemOp, u64); 3] = [
    (Assembler::ldq, 8),
    (Assembler::ldl, 4),
    (Assembler::ldbu, 1),
];
const STORES: [(MemOp, u64); 3] = [
    (Assembler::stq, 8),
    (Assembler::stl, 4),
    (Assembler::stb, 1),
];

/// The `index`-th program of the set drawn from `seed`.
pub fn program(seed: u64, index: usize) -> Program {
    let mut rng = XorShift::new(splitmix(seed ^ splitmix(index as u64 + 1)));
    let mut asm = Assembler::new(CODE_BASE);
    let arena = asm.data_block(rng.bytes(ARENA_BYTES));
    let functions: Vec<_> = (0..FUNCTIONS).map(|i| asm.label(format!("f{i}"))).collect();
    asm.entry_here();
    for r in BODY_REGS {
        asm.li32(r, rng.next_u64() as u32);
    }
    for &f in &functions {
        asm.bsr(f);
    }
    asm.halt();
    for &f in &functions {
        asm.bind(f);
        asm.lda_imm(COUNTER, ITERATIONS);
        asm.li32(ARENA, arena as u32);
        let top = asm.here("top");
        body(&mut asm, &mut rng);
        asm.subq_imm(COUNTER, 1, COUNTER);
        asm.bne(COUNTER, top);
        asm.ret();
    }
    asm.finish().expect("generated programs always assemble")
}

/// The first `count` programs of the set drawn from `seed`.
pub fn programs(seed: u64, count: usize) -> Vec<Program> {
    (0..count).map(|i| program(seed, i)).collect()
}

/// A loop body of 8–39 ops, one of which is a data-dependent forward
/// branch over the next 1–3 ops.
fn body(asm: &mut Assembler, rng: &mut XorShift) {
    let n = 8 + below(rng, 32) as usize;
    let skip_at = below(rng, n as u64 - 1) as usize;
    let mut skip = None;
    for k in 0..n {
        if k == skip_at {
            let over = asm.label("skip");
            let r = pick(rng);
            if below(rng, 2) == 0 {
                asm.blbc(r, over);
            } else {
                asm.blbs(r, over);
            }
            let len = 1 + (below(rng, 3) as usize).min(n - 2 - skip_at);
            skip = Some((over, len));
            continue;
        }
        op(asm, rng);
        if let Some((over, left)) = skip.as_mut() {
            *left -= 1;
            if *left == 0 {
                asm.bind(*over);
                skip = None;
            }
        }
    }
}

fn op(asm: &mut Assembler, rng: &mut XorShift) {
    let (a, b, c) = (pick(rng), pick(rng), pick(rng));
    match below(rng, 10) {
        0..=3 => ALU[below(rng, ALU.len() as u64) as usize](asm, a, b, c),
        4 => ALU_IMM[below(rng, ALU_IMM.len() as u64) as usize](asm, a, rng.next_u64() as u8, c),
        5 | 6 => {
            let (load, size) = LOADS[below(rng, LOADS.len() as u64) as usize];
            load(asm, c, displacement(rng, size), ARENA);
        }
        7 | 8 => {
            let (store, size) = STORES[below(rng, STORES.len() as u64) as usize];
            store(asm, a, displacement(rng, size), ARENA);
        }
        _ => CMOV[below(rng, CMOV.len() as u64) as usize](asm, a, b, c),
    }
}

fn displacement(rng: &mut XorShift, size: u64) -> i16 {
    (below(rng, ARENA_BYTES as u64 / size) * size) as i16
}

fn pick(rng: &mut XorShift) -> Reg {
    BODY_REGS[below(rng, BODY_REGS.len() as u64) as usize]
}

fn below(rng: &mut XorShift, n: u64) -> u64 {
    rng.next_u64() % n
}

/// SplitMix64 finalizer: decorrelates nearby seeds.
pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
