//! Decoded Alpha instruction representation.
//!
//! Instructions are grouped by their hardware format (memory, branch,
//! memory-jump, operate, PALcode), mirroring the Alpha architecture manual.
//! The per-format operation enums carry the semantic identity; operand
//! fields are uniform within a format, which keeps the decoder, encoder,
//! interpreter and binary translator all straightforward.

use crate::Reg;
use std::fmt;

/// Memory-format operations (loads, stores, and address arithmetic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemOp {
    /// Load address: `ra <- rb + disp`.
    Lda,
    /// Load address high: `ra <- rb + (disp << 16)`.
    Ldah,
    /// Load zero-extended byte.
    Ldbu,
    /// Load zero-extended word (16 bits).
    Ldwu,
    /// Load sign-extended longword (32 bits).
    Ldl,
    /// Load quadword (64 bits).
    Ldq,
    /// Store byte.
    Stb,
    /// Store word (16 bits).
    Stw,
    /// Store longword (32 bits).
    Stl,
    /// Store quadword (64 bits).
    Stq,
}

impl MemOp {
    /// Whether the operation reads memory.
    pub const fn is_load(self) -> bool {
        matches!(self, MemOp::Ldbu | MemOp::Ldwu | MemOp::Ldl | MemOp::Ldq)
    }

    /// Whether the operation writes memory.
    pub const fn is_store(self) -> bool {
        matches!(self, MemOp::Stb | MemOp::Stw | MemOp::Stl | MemOp::Stq)
    }

    /// Whether this is pure address arithmetic (`LDA`/`LDAH`), which never
    /// touches memory and can never trap.
    pub const fn is_address_arith(self) -> bool {
        matches!(self, MemOp::Lda | MemOp::Ldah)
    }

    /// Access size in bytes (1 for `LDA`/`LDAH`, which do not access memory,
    /// is reported as 0).
    pub const fn access_bytes(self) -> u8 {
        match self {
            MemOp::Lda | MemOp::Ldah => 0,
            MemOp::Ldbu | MemOp::Stb => 1,
            MemOp::Ldwu | MemOp::Stw => 2,
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldq | MemOp::Stq => 8,
        }
    }

    /// Architectural mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Lda => "lda",
            MemOp::Ldah => "ldah",
            MemOp::Ldbu => "ldbu",
            MemOp::Ldwu => "ldwu",
            MemOp::Ldl => "ldl",
            MemOp::Ldq => "ldq",
            MemOp::Stb => "stb",
            MemOp::Stw => "stw",
            MemOp::Stl => "stl",
            MemOp::Stq => "stq",
        }
    }
}

/// Branch-format operations (PC-relative control transfer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchOp {
    /// Unconditional branch; writes the return address to `ra`.
    Br,
    /// Branch to subroutine; writes the return address to `ra`.
    Bsr,
    /// Branch if `ra == 0`.
    Beq,
    /// Branch if `ra != 0`.
    Bne,
    /// Branch if `ra < 0` (signed).
    Blt,
    /// Branch if `ra <= 0` (signed).
    Ble,
    /// Branch if `ra > 0` (signed).
    Bgt,
    /// Branch if `ra >= 0` (signed).
    Bge,
    /// Branch if low bit of `ra` is clear.
    Blbc,
    /// Branch if low bit of `ra` is set.
    Blbs,
}

impl BranchOp {
    /// Whether the branch is unconditional (`BR`/`BSR`).
    pub const fn is_unconditional(self) -> bool {
        matches!(self, BranchOp::Br | BranchOp::Bsr)
    }

    /// The conditional branch testing the logically opposite condition.
    ///
    /// Used by the translator's code straightening to reverse a taken branch
    /// so that the hot successor falls through.
    ///
    /// # Panics
    ///
    /// Panics for `BR`/`BSR`, which have no inverse.
    pub fn inverse(self) -> BranchOp {
        match self {
            BranchOp::Beq => BranchOp::Bne,
            BranchOp::Bne => BranchOp::Beq,
            BranchOp::Blt => BranchOp::Bge,
            BranchOp::Bge => BranchOp::Blt,
            BranchOp::Ble => BranchOp::Bgt,
            BranchOp::Bgt => BranchOp::Ble,
            BranchOp::Blbc => BranchOp::Blbs,
            BranchOp::Blbs => BranchOp::Blbc,
            BranchOp::Br | BranchOp::Bsr => {
                panic!("unconditional branch has no inverse condition")
            }
        }
    }

    /// Evaluates the branch condition against the value of `ra`.
    ///
    /// Unconditional branches always report `true`.
    pub fn taken(self, ra_value: u64) -> bool {
        let sv = ra_value as i64;
        match self {
            BranchOp::Br | BranchOp::Bsr => true,
            BranchOp::Beq => sv == 0,
            BranchOp::Bne => sv != 0,
            BranchOp::Blt => sv < 0,
            BranchOp::Ble => sv <= 0,
            BranchOp::Bgt => sv > 0,
            BranchOp::Bge => sv >= 0,
            BranchOp::Blbc => ra_value & 1 == 0,
            BranchOp::Blbs => ra_value & 1 == 1,
        }
    }

    /// Architectural mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Br => "br",
            BranchOp::Bsr => "bsr",
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Ble => "ble",
            BranchOp::Bgt => "bgt",
            BranchOp::Bge => "bge",
            BranchOp::Blbc => "blbc",
            BranchOp::Blbs => "blbs",
        }
    }
}

/// Register-indirect jump flavors (memory-format opcode `0x1A`).
///
/// The two-bit field distinguishing them is a branch-prediction *hint* on
/// real hardware; the architectural effect of all four is
/// `ra <- pc+4; pc <- rb & !3`. The DBT system relies on the hint to decide
/// how to chain fragments (returns go through the dual-address RAS).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JumpKind {
    /// Computed jump with no call/return semantics.
    Jmp,
    /// Indirect subroutine call.
    Jsr,
    /// Subroutine return.
    Ret,
    /// Coroutine linkage (rare; treated like `JMP` by the translator).
    JsrCoroutine,
}

impl JumpKind {
    /// Architectural mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            JumpKind::Jmp => "jmp",
            JumpKind::Jsr => "jsr",
            JumpKind::Ret => "ret",
            JumpKind::JsrCoroutine => "jsr_coroutine",
        }
    }

    /// The two-bit encoding in instruction bits `15:14`.
    pub const fn code(self) -> u32 {
        match self {
            JumpKind::Jmp => 0,
            JumpKind::Jsr => 1,
            JumpKind::Ret => 2,
            JumpKind::JsrCoroutine => 3,
        }
    }

    /// Decodes from instruction bits `15:14`.
    pub const fn from_code(code: u32) -> JumpKind {
        match code & 3 {
            0 => JumpKind::Jmp,
            1 => JumpKind::Jsr,
            2 => JumpKind::Ret,
            _ => JumpKind::JsrCoroutine,
        }
    }

    /// Whether the jump records a call (pushes a return address in the RAS
    /// model).
    pub const fn is_call(self) -> bool {
        matches!(self, JumpKind::Jsr)
    }

    /// Whether the jump is a subroutine return.
    pub const fn is_return(self) -> bool {
        matches!(self, JumpKind::Ret)
    }
}

/// Operate-format operations (integer ALU, compares, conditional moves,
/// shifts, byte manipulation, multiplies).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OperateOp {
    // -- opcode 0x10: integer arithmetic --
    /// 32-bit add, result sign-extended.
    Addl,
    /// 64-bit add.
    Addq,
    /// 32-bit subtract, result sign-extended.
    Subl,
    /// 64-bit subtract.
    Subq,
    /// Scaled add: `4*ra + rb` (32-bit).
    S4addl,
    /// Scaled add: `4*ra + rb` (64-bit).
    S4addq,
    /// Scaled add: `8*ra + rb` (64-bit).
    S8addq,
    /// Scaled subtract: `4*ra - rb` (64-bit).
    S4subq,
    /// Scaled subtract: `8*ra - rb` (64-bit).
    S8subq,
    /// Compare equal: `rc <- (ra == rb)`.
    Cmpeq,
    /// Compare signed less-than.
    Cmplt,
    /// Compare signed less-or-equal.
    Cmple,
    /// Compare unsigned less-than.
    Cmpult,
    /// Compare unsigned less-or-equal.
    Cmpule,
    // -- opcode 0x11: logical and conditional move --
    /// Bitwise AND.
    And,
    /// AND with complement: `ra & !rb`.
    Bic,
    /// Bitwise OR (`BIS`). `bis r31, r31, r31` is the canonical NOP.
    Bis,
    /// OR with complement: `ra | !rb`.
    Ornot,
    /// Bitwise XOR.
    Xor,
    /// XOR with complement (equivalence).
    Eqv,
    /// Conditional move if `ra == 0`.
    Cmoveq,
    /// Conditional move if `ra != 0`.
    Cmovne,
    /// Conditional move if `ra < 0` (signed).
    Cmovlt,
    /// Conditional move if `ra >= 0` (signed).
    Cmovge,
    /// Conditional move if `ra <= 0` (signed).
    Cmovle,
    /// Conditional move if `ra > 0` (signed).
    Cmovgt,
    /// Conditional move if low bit of `ra` set.
    Cmovlbs,
    /// Conditional move if low bit of `ra` clear.
    Cmovlbc,
    // -- opcode 0x12: shifts and byte manipulation --
    /// Shift left logical by `rb & 63`.
    Sll,
    /// Shift right logical by `rb & 63`.
    Srl,
    /// Shift right arithmetic by `rb & 63`.
    Sra,
    /// Extract byte low.
    Extbl,
    /// Extract word low.
    Extwl,
    /// Extract longword low.
    Extll,
    /// Extract quadword low.
    Extql,
    /// Insert byte low.
    Insbl,
    /// Mask byte low.
    Mskbl,
    /// Zero bytes selected by the complement of the low 8 bits of `rb`.
    Zapnot,
    /// Zero bytes selected by the low 8 bits of `rb`.
    Zap,
    // -- opcode 0x13: multiplies --
    /// 32-bit multiply, result sign-extended.
    Mull,
    /// 64-bit multiply (low half).
    Mulq,
    /// Unsigned multiply, high 64 bits.
    Umulh,
}

impl OperateOp {
    /// Whether this is a conditional move (the only operate op that also
    /// reads its destination register).
    pub const fn is_cmov(self) -> bool {
        matches!(
            self,
            OperateOp::Cmoveq
                | OperateOp::Cmovne
                | OperateOp::Cmovlt
                | OperateOp::Cmovge
                | OperateOp::Cmovle
                | OperateOp::Cmovgt
                | OperateOp::Cmovlbs
                | OperateOp::Cmovlbc
        )
    }

    /// Whether this is a multiply (longer functional-unit latency).
    pub const fn is_multiply(self) -> bool {
        matches!(self, OperateOp::Mull | OperateOp::Mulq | OperateOp::Umulh)
    }

    /// Evaluates the operation on two 64-bit operand values.
    ///
    /// For conditional moves this returns the *move value* (operand `b`);
    /// the caller is responsible for testing [`OperateOp::cmov_taken`] and
    /// retaining the old destination when the move is not taken.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        fn sext32(x: u64) -> u64 {
            x as u32 as i32 as i64 as u64
        }
        let shift = (b & 63) as u32;
        let byte_off = ((b & 7) * 8) as u32;
        match self {
            OperateOp::Addl => sext32(a.wrapping_add(b)),
            OperateOp::Addq => a.wrapping_add(b),
            OperateOp::Subl => sext32(a.wrapping_sub(b)),
            OperateOp::Subq => a.wrapping_sub(b),
            OperateOp::S4addl => sext32(a.wrapping_mul(4).wrapping_add(b)),
            OperateOp::S4addq => a.wrapping_mul(4).wrapping_add(b),
            OperateOp::S8addq => a.wrapping_mul(8).wrapping_add(b),
            OperateOp::S4subq => a.wrapping_mul(4).wrapping_sub(b),
            OperateOp::S8subq => a.wrapping_mul(8).wrapping_sub(b),
            OperateOp::Cmpeq => (a == b) as u64,
            OperateOp::Cmplt => ((a as i64) < (b as i64)) as u64,
            OperateOp::Cmple => ((a as i64) <= (b as i64)) as u64,
            OperateOp::Cmpult => (a < b) as u64,
            OperateOp::Cmpule => (a <= b) as u64,
            OperateOp::And => a & b,
            OperateOp::Bic => a & !b,
            OperateOp::Bis => a | b,
            OperateOp::Ornot => a | !b,
            OperateOp::Xor => a ^ b,
            OperateOp::Eqv => a ^ !b,
            // Conditional moves: value to move is b; selection handled by caller.
            op if op.is_cmov() => b,
            OperateOp::Sll => {
                if shift == 0 {
                    a
                } else {
                    a << shift
                }
            }
            OperateOp::Srl => {
                if shift == 0 {
                    a
                } else {
                    a >> shift
                }
            }
            OperateOp::Sra => ((a as i64) >> shift) as u64,
            OperateOp::Extbl => (a >> byte_off) & 0xff,
            OperateOp::Extwl => (a >> byte_off) & 0xffff,
            OperateOp::Extll => (a >> byte_off) & 0xffff_ffff,
            OperateOp::Extql => a >> byte_off,
            OperateOp::Insbl => (a & 0xff) << byte_off,
            OperateOp::Mskbl => a & !(0xffu64 << byte_off),
            OperateOp::Zapnot => {
                let mut mask = 0u64;
                for i in 0..8 {
                    if b & (1 << i) != 0 {
                        mask |= 0xffu64 << (i * 8);
                    }
                }
                a & mask
            }
            OperateOp::Zap => {
                let mut mask = 0u64;
                for i in 0..8 {
                    if b & (1 << i) != 0 {
                        mask |= 0xffu64 << (i * 8);
                    }
                }
                a & !mask
            }
            OperateOp::Mull => sext32(a.wrapping_mul(b)),
            OperateOp::Mulq => a.wrapping_mul(b),
            OperateOp::Umulh => (((a as u128) * (b as u128)) >> 64) as u64,
            _ => unreachable!("cmov handled above"),
        }
    }

    /// For conditional moves, whether the move fires given the test value
    /// (register `ra`).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-cmov operation.
    #[inline]
    pub fn cmov_taken(self, test: u64) -> bool {
        let sv = test as i64;
        match self {
            OperateOp::Cmoveq => sv == 0,
            OperateOp::Cmovne => sv != 0,
            OperateOp::Cmovlt => sv < 0,
            OperateOp::Cmovge => sv >= 0,
            OperateOp::Cmovle => sv <= 0,
            OperateOp::Cmovgt => sv > 0,
            OperateOp::Cmovlbs => test & 1 == 1,
            OperateOp::Cmovlbc => test & 1 == 0,
            _ => panic!("cmov_taken on non-cmov operate op"),
        }
    }

    /// Architectural mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            OperateOp::Addl => "addl",
            OperateOp::Addq => "addq",
            OperateOp::Subl => "subl",
            OperateOp::Subq => "subq",
            OperateOp::S4addl => "s4addl",
            OperateOp::S4addq => "s4addq",
            OperateOp::S8addq => "s8addq",
            OperateOp::S4subq => "s4subq",
            OperateOp::S8subq => "s8subq",
            OperateOp::Cmpeq => "cmpeq",
            OperateOp::Cmplt => "cmplt",
            OperateOp::Cmple => "cmple",
            OperateOp::Cmpult => "cmpult",
            OperateOp::Cmpule => "cmpule",
            OperateOp::And => "and",
            OperateOp::Bic => "bic",
            OperateOp::Bis => "bis",
            OperateOp::Ornot => "ornot",
            OperateOp::Xor => "xor",
            OperateOp::Eqv => "eqv",
            OperateOp::Cmoveq => "cmoveq",
            OperateOp::Cmovne => "cmovne",
            OperateOp::Cmovlt => "cmovlt",
            OperateOp::Cmovge => "cmovge",
            OperateOp::Cmovle => "cmovle",
            OperateOp::Cmovgt => "cmovgt",
            OperateOp::Cmovlbs => "cmovlbs",
            OperateOp::Cmovlbc => "cmovlbc",
            OperateOp::Sll => "sll",
            OperateOp::Srl => "srl",
            OperateOp::Sra => "sra",
            OperateOp::Extbl => "extbl",
            OperateOp::Extwl => "extwl",
            OperateOp::Extll => "extll",
            OperateOp::Extql => "extql",
            OperateOp::Insbl => "insbl",
            OperateOp::Mskbl => "mskbl",
            OperateOp::Zapnot => "zapnot",
            OperateOp::Zap => "zap",
            OperateOp::Mull => "mull",
            OperateOp::Mulq => "mulq",
            OperateOp::Umulh => "umulh",
        }
    }
}

/// The `rb` operand of an operate-format instruction: a register or an
/// 8-bit zero-extended literal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// 8-bit literal, zero-extended to 64 bits.
    Lit(u8),
}

impl Operand {
    /// The register, if this operand is one.
    pub const fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Lit(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u8> for Operand {
    fn from(v: u8) -> Operand {
        Operand::Lit(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "#{v}"),
        }
    }
}

/// PALcode functions used by this system.
///
/// Real Alpha PALcode is a privileged firmware layer; the reproduction only
/// needs a handful of services, used by the synthetic workloads and by the
/// trap-injection tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PalFunc {
    /// Stop execution; the program has finished.
    Halt,
    /// Deliberately raise a trap (`gentrap`); exercises precise-trap
    /// recovery.
    GenTrap,
    /// Output the low byte of `a0` (bufferable console write); keeps
    /// workload output observable without a full OS model.
    PutChar,
    /// Unrecognized function code, preserved for round-tripping.
    Other(u32),
}

impl PalFunc {
    /// The 26-bit function code.
    pub const fn code(self) -> u32 {
        match self {
            PalFunc::Halt => 0x0000,
            PalFunc::GenTrap => 0x00aa,
            PalFunc::PutChar => 0x0081,
            PalFunc::Other(c) => c,
        }
    }

    /// Decodes from a 26-bit function code.
    pub const fn from_code(code: u32) -> PalFunc {
        match code & 0x03ff_ffff {
            0x0000 => PalFunc::Halt,
            0x00aa => PalFunc::GenTrap,
            0x0081 => PalFunc::PutChar,
            c => PalFunc::Other(c),
        }
    }
}

/// A decoded Alpha instruction.
///
/// # Examples
///
/// ```
/// use alpha_isa::{Inst, MemOp, Reg};
/// let ld = Inst::Mem { op: MemOp::Ldq, ra: Reg::V0, rb: Reg::SP, disp: 16 };
/// assert!(ld.is_load());
/// assert_eq!(ld.dest(), Some(Reg::V0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Memory format: loads, stores, `LDA`, `LDAH`.
    Mem {
        /// Operation.
        op: MemOp,
        /// Data register (destination for loads, source for stores).
        ra: Reg,
        /// Base address register.
        rb: Reg,
        /// 16-bit signed byte displacement.
        disp: i16,
    },
    /// Branch format: PC-relative branches.
    Branch {
        /// Operation.
        op: BranchOp,
        /// Condition/link register.
        ra: Reg,
        /// Signed displacement in *instructions* from the updated PC
        /// (21-bit field).
        disp: i32,
    },
    /// Memory-format jump: `JMP`/`JSR`/`RET`/`JSR_COROUTINE`.
    Jump {
        /// Jump flavor (prediction hint).
        kind: JumpKind,
        /// Link register receiving `pc + 4`.
        ra: Reg,
        /// Target address register.
        rb: Reg,
        /// 14-bit prediction hint (ignored architecturally).
        hint: u16,
    },
    /// Operate format: integer ALU operations.
    Operate {
        /// Operation.
        op: OperateOp,
        /// First source register.
        ra: Reg,
        /// Second source: register or 8-bit literal.
        rb: Operand,
        /// Destination register.
        rc: Reg,
    },
    /// `CALL_PAL`: privileged/firmware call.
    CallPal {
        /// PAL function.
        func: PalFunc,
    },
    /// A recognized but unimplemented extension (the floating-point
    /// subset). Decodes so the front end can name the gap precisely;
    /// executing it raises an illegal-instruction trap with all
    /// architected state untouched, so it never retires and never enters
    /// a superblock.
    Unimplemented {
        /// The raw machine word.
        word: u32,
    },
}

impl Inst {
    /// The canonical Alpha NOP (`bis r31, r31, r31`).
    pub const NOP: Inst = Inst::Operate {
        op: OperateOp::Bis,
        ra: Reg::ZERO,
        rb: Operand::Reg(Reg::ZERO),
        rc: Reg::ZERO,
    };

    /// Whether this instruction is an architectural no-op (any operate or
    /// load-address instruction whose destination is `R31`, or the canonical
    /// NOP encoding).
    pub fn is_nop(&self) -> bool {
        match *self {
            Inst::Operate { rc, .. } => rc.is_zero(),
            Inst::Mem { op, ra, .. } => op.is_address_arith() && ra.is_zero(),
            _ => false,
        }
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(*self, Inst::Mem { op, .. } if op.is_load())
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(*self, Inst::Mem { op, .. } if op.is_store())
    }

    /// Whether this is any control-transfer instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            *self,
            Inst::Branch { .. } | Inst::Jump { .. } | Inst::CallPal { .. }
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(*self, Inst::Branch { op, .. } if !op.is_unconditional())
    }

    /// Whether this instruction may raise a trap (is a PEI — potentially
    /// excepting instruction): memory accesses and PAL traps.
    pub fn is_pei(&self) -> bool {
        match *self {
            Inst::Mem { op, .. } => op.is_load() || op.is_store(),
            Inst::CallPal { func } => matches!(func, PalFunc::GenTrap),
            _ => false,
        }
    }

    /// The destination register written by this instruction, if any.
    ///
    /// `R31` destinations are reported as `None` (the write is discarded).
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Mem { op, ra, .. } => {
                if op.is_store() {
                    return None;
                }
                ra
            }
            Inst::Branch { op, ra, .. } => match op {
                BranchOp::Br | BranchOp::Bsr => ra,
                _ => return None,
            },
            Inst::Jump { ra, .. } => ra,
            Inst::Operate { rc, .. } => rc,
            Inst::CallPal { .. } | Inst::Unimplemented { .. } => return None,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// The source registers read by this instruction, in canonical order.
    ///
    /// `R31` sources are omitted (they read as constant zero and carry no
    /// dependence). Conditional moves additionally read their destination.
    pub fn sources(&self) -> SourceRegs {
        let mut out = SourceRegs::default();
        let mut push = |r: Reg| {
            if !r.is_zero() {
                out.push(r);
            }
        };
        match *self {
            Inst::Mem { op, ra, rb, .. } => {
                push(rb);
                if op.is_store() {
                    push(ra);
                }
            }
            Inst::Branch { op, ra, .. } => {
                if !op.is_unconditional() {
                    push(ra);
                }
            }
            Inst::Jump { rb, .. } => push(rb),
            Inst::Operate { op, ra, rb, rc } => {
                push(ra);
                if let Operand::Reg(r) = rb {
                    push(r);
                }
                if op.is_cmov() {
                    push(rc);
                }
            }
            Inst::CallPal { func } => {
                if matches!(func, PalFunc::PutChar) {
                    push(Reg::A0);
                }
            }
            Inst::Unimplemented { .. } => {}
        }
        out
    }
}

/// A small fixed-capacity set of source registers (an instruction reads at
/// most three).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SourceRegs {
    regs: [Option<Reg>; 3],
    len: u8,
}

impl SourceRegs {
    fn push(&mut self, r: Reg) {
        assert!((self.len as usize) < 3, "more than 3 source registers");
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no register sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the sources in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().take(self.len as usize).map(|r| r.unwrap())
    }

    /// Whether `r` is among the sources.
    pub fn contains(&self, r: Reg) -> bool {
        self.iter().any(|s| s == r)
    }
}

impl IntoIterator for SourceRegs {
    type Item = Reg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Reg>, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn nop_detection() {
        assert!(Inst::NOP.is_nop());
        let real = Inst::Operate {
            op: OperateOp::Addq,
            ra: r(1),
            rb: Operand::Reg(r(2)),
            rc: r(3),
        };
        assert!(!real.is_nop());
        let dead = Inst::Operate {
            op: OperateOp::Addq,
            ra: r(1),
            rb: Operand::Reg(r(2)),
            rc: Reg::ZERO,
        };
        assert!(dead.is_nop());
    }

    #[test]
    fn load_store_classification() {
        assert!(MemOp::Ldq.is_load());
        assert!(!MemOp::Ldq.is_store());
        assert!(MemOp::Stb.is_store());
        assert!(MemOp::Lda.is_address_arith());
        assert_eq!(MemOp::Ldwu.access_bytes(), 2);
    }

    #[test]
    fn branch_inverse_roundtrip() {
        for op in [
            BranchOp::Beq,
            BranchOp::Bne,
            BranchOp::Blt,
            BranchOp::Ble,
            BranchOp::Bgt,
            BranchOp::Bge,
            BranchOp::Blbc,
            BranchOp::Blbs,
        ] {
            assert_eq!(op.inverse().inverse(), op);
            // Inverse must evaluate oppositely on every sample value.
            for v in [0u64, 1, 2, u64::MAX, i64::MIN as u64, 0x8000_0001] {
                assert_ne!(op.taken(v), op.inverse().taken(v), "{op:?} on {v:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn br_has_no_inverse() {
        let _ = BranchOp::Br.inverse();
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Beq.taken(0));
        assert!(!BranchOp::Beq.taken(5));
        assert!(BranchOp::Blt.taken(u64::MAX)); // -1 < 0
        assert!(!BranchOp::Blt.taken(0));
        assert!(BranchOp::Blbs.taken(3));
        assert!(BranchOp::Blbc.taken(2));
    }

    #[test]
    fn operate_arithmetic_semantics() {
        assert_eq!(OperateOp::Addq.eval(3, 4), 7);
        // ADDL sign-extends the 32-bit result.
        assert_eq!(
            OperateOp::Addl.eval(0x7fff_ffff, 1),
            0xffff_ffff_8000_0000u64
        );
        assert_eq!(OperateOp::Subq.eval(3, 4), u64::MAX);
        assert_eq!(OperateOp::S8addq.eval(2, 5), 21);
        assert_eq!(OperateOp::S4subq.eval(2, 5), 3);
        assert_eq!(OperateOp::Cmplt.eval(u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(OperateOp::Cmpult.eval(u64::MAX, 0), 0);
        assert_eq!(OperateOp::Umulh.eval(1 << 63, 4), 2);
        assert_eq!(OperateOp::Mull.eval(0x1_0000_0001, 1), 1);
    }

    #[test]
    fn operate_logical_and_shift_semantics() {
        assert_eq!(OperateOp::Bic.eval(0xff, 0x0f), 0xf0);
        assert_eq!(OperateOp::Ornot.eval(0, 0), u64::MAX);
        assert_eq!(OperateOp::Eqv.eval(5, 5), u64::MAX);
        assert_eq!(OperateOp::Sll.eval(1, 63), 1 << 63);
        assert_eq!(OperateOp::Sra.eval(u64::MAX, 5), u64::MAX);
        assert_eq!(OperateOp::Srl.eval(u64::MAX, 63), 1);
        // shift amount is taken mod 64
        assert_eq!(OperateOp::Sll.eval(1, 64), 1);
    }

    #[test]
    fn byte_manipulation_semantics() {
        assert_eq!(OperateOp::Extbl.eval(0x1122_3344_5566_7788, 1), 0x77);
        assert_eq!(OperateOp::Extwl.eval(0x1122_3344_5566_7788, 2), 0x5566);
        assert_eq!(OperateOp::Insbl.eval(0xab, 2), 0xab_0000);
        assert_eq!(
            OperateOp::Mskbl.eval(0xffff_ffff_ffff_ffff, 0),
            0xffff_ffff_ffff_ff00
        );
        assert_eq!(
            OperateOp::Zapnot.eval(0x1122_3344_5566_7788, 0x0f),
            0x5566_7788
        );
        assert_eq!(
            OperateOp::Zap.eval(0x1122_3344_5566_7788, 0x0f),
            0x1122_3344_0000_0000
        );
    }

    #[test]
    fn cmov_selection() {
        assert!(OperateOp::Cmoveq.cmov_taken(0));
        assert!(!OperateOp::Cmoveq.cmov_taken(1));
        assert!(OperateOp::Cmovlbs.cmov_taken(1));
        assert!(OperateOp::Cmovgt.cmov_taken(7));
        assert!(!OperateOp::Cmovgt.cmov_taken(0));
    }

    #[test]
    fn dest_and_sources() {
        let st = Inst::Mem {
            op: MemOp::Stq,
            ra: r(1),
            rb: r(2),
            disp: 0,
        };
        assert_eq!(st.dest(), None);
        let srcs: Vec<Reg> = st.sources().iter().collect();
        assert_eq!(srcs, vec![r(2), r(1)]);

        let cmov = Inst::Operate {
            op: OperateOp::Cmoveq,
            ra: r(1),
            rb: Operand::Reg(r(2)),
            rc: r(3),
        };
        assert_eq!(cmov.dest(), Some(r(3)));
        assert_eq!(cmov.sources().len(), 3);

        let bsr = Inst::Branch {
            op: BranchOp::Bsr,
            ra: Reg::RA,
            disp: 10,
        };
        assert_eq!(bsr.dest(), Some(Reg::RA));
        assert!(bsr.sources().is_empty());

        // r31 sources/dests are suppressed.
        let dead = Inst::Operate {
            op: OperateOp::Addq,
            ra: Reg::ZERO,
            rb: Operand::Lit(4),
            rc: Reg::ZERO,
        };
        assert_eq!(dead.dest(), None);
        assert!(dead.sources().is_empty());
    }

    #[test]
    fn pei_classification() {
        assert!(Inst::Mem {
            op: MemOp::Ldq,
            ra: r(1),
            rb: r(2),
            disp: 0
        }
        .is_pei());
        assert!(!Inst::Mem {
            op: MemOp::Lda,
            ra: r(1),
            rb: r(2),
            disp: 0
        }
        .is_pei());
        assert!(Inst::CallPal {
            func: PalFunc::GenTrap
        }
        .is_pei());
        assert!(!Inst::NOP.is_pei());
    }

    #[test]
    fn jump_kind_codes_roundtrip() {
        for k in [
            JumpKind::Jmp,
            JumpKind::Jsr,
            JumpKind::Ret,
            JumpKind::JsrCoroutine,
        ] {
            assert_eq!(JumpKind::from_code(k.code()), k);
        }
    }
}
