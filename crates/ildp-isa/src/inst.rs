//! Accumulator-oriented I-ISA instructions.
//!
//! The implementation ISA of the co-designed VM (paper Section 2). Both the
//! **basic** and **modified** forms are represented by one instruction type:
//! the modified form is the basic form plus an optional architected
//! destination GPR ([`IInst::Op::dst`] etc.), exactly as in the paper's
//! Figure 2(c)/(d). The straightened form ([`IsaForm::Straightened`])
//! shares the chaining instructions and carries non-control Alpha
//! instructions unchanged in [`IInst::Alpha`].
//!
//! Structural rules enforced by [`IInst::validate`]:
//!
//! * an instruction references at most **one** accumulator (its own);
//! * the *basic* form references at most **one** GPR in total;
//! * the *modified* form may additionally name one destination GPR;
//! * memory operations are register-indirect only — effective-address
//!   arithmetic is done by separate instructions ("decomposed" memory ops).

use crate::{Acc, IsaForm};
use alpha_isa::{Inst, JumpKind, OperateOp, PalFunc, Reg};
use std::fmt;

/// A value source operand: the instruction's own accumulator, one GPR, or a
/// small immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ASrc {
    /// The instruction's named accumulator.
    Acc,
    /// A general-purpose register.
    Gpr(Reg),
    /// A sign-extended immediate (8-bit literal range in 16-bit encodings,
    /// 16-bit range in 32-bit encodings).
    Imm(i16),
}

impl fmt::Display for ASrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ASrc::Acc => write!(f, "Acc"),
            ASrc::Gpr(r) => write!(f, "{}", r),
            ASrc::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Memory access width for I-ISA loads and stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// Zero-extended byte.
    U8,
    /// Zero-extended 16-bit word.
    U16,
    /// Sign-extended 32-bit longword.
    I32,
    /// 64-bit quadword.
    U64,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u8 {
        match self {
            MemWidth::U8 => 1,
            MemWidth::U16 => 2,
            MemWidth::I32 => 4,
            MemWidth::U64 => 8,
        }
    }
}

/// Condition kinds for I-ISA conditional branches (mirrors the Alpha branch
/// conditions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CondKind {
    /// Branch if zero.
    Eq,
    /// Branch if nonzero.
    Ne,
    /// Branch if negative.
    Lt,
    /// Branch if ≤ 0.
    Le,
    /// Branch if > 0.
    Gt,
    /// Branch if ≥ 0.
    Ge,
    /// Branch if low bit clear.
    Lbc,
    /// Branch if low bit set.
    Lbs,
}

impl CondKind {
    /// Evaluates the condition on a 64-bit value.
    #[inline]
    pub fn eval(self, v: u64) -> bool {
        let s = v as i64;
        match self {
            CondKind::Eq => s == 0,
            CondKind::Ne => s != 0,
            CondKind::Lt => s < 0,
            CondKind::Le => s <= 0,
            CondKind::Gt => s > 0,
            CondKind::Ge => s >= 0,
            CondKind::Lbc => v & 1 == 0,
            CondKind::Lbs => v & 1 == 1,
        }
    }

    /// The opposite condition (used when code straightening reverses a
    /// branch).
    pub fn inverse(self) -> CondKind {
        match self {
            CondKind::Eq => CondKind::Ne,
            CondKind::Ne => CondKind::Eq,
            CondKind::Lt => CondKind::Ge,
            CondKind::Ge => CondKind::Lt,
            CondKind::Le => CondKind::Gt,
            CondKind::Gt => CondKind::Le,
            CondKind::Lbc => CondKind::Lbs,
            CondKind::Lbs => CondKind::Lbc,
        }
    }

    /// Conversion from an Alpha conditional-branch opcode.
    ///
    /// # Panics
    ///
    /// Panics for `BR`/`BSR`, which carry no condition.
    pub fn from_branch_op(op: alpha_isa::BranchOp) -> CondKind {
        use alpha_isa::BranchOp as B;
        match op {
            B::Beq => CondKind::Eq,
            B::Bne => CondKind::Ne,
            B::Blt => CondKind::Lt,
            B::Ble => CondKind::Le,
            B::Bgt => CondKind::Gt,
            B::Bge => CondKind::Ge,
            B::Blbc => CondKind::Lbc,
            B::Blbs => CondKind::Lbs,
            B::Br | B::Bsr => panic!("unconditional branch has no condition"),
        }
    }
}

/// A control-flow target inside translated code.
///
/// During fragment construction targets are symbolic (an instruction index
/// within the fragment or a fragment-exit number); the translation cache
/// resolves them to I-ISA addresses when the fragment is installed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ITarget {
    /// An instruction index within the same fragment.
    Local(u32),
    /// An installed I-ISA code address (resolved by the translation cache).
    Addr(u64),
}

/// A decoded I-ISA instruction (basic or modified form).
///
/// # Examples
///
/// The paper's `R17(A1) <- R17 - 1` (modified form):
///
/// ```
/// use ildp_isa::{Acc, ASrc, IInst, IsaForm};
/// use alpha_isa::{OperateOp, Reg};
/// let inst = IInst::Op {
///     op: OperateOp::Subl,
///     acc: Acc::new(1),
///     lhs: ASrc::Gpr(Reg::A1),
///     rhs: ASrc::Imm(1),
///     dst: Some(Reg::A1),
/// };
/// assert!(inst.validate(IsaForm::Modified).is_ok());
/// assert!(inst.validate(IsaForm::Basic).is_err()); // basic form has no dst GPR
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IInst {
    /// ALU operation: `acc (, dst) <- op(lhs, rhs)`.
    Op {
        /// Operation (Alpha operate semantics are reused unchanged).
        op: OperateOp,
        /// The accumulator written (and possibly read via [`ASrc::Acc`]).
        acc: Acc,
        /// Left operand.
        lhs: ASrc,
        /// Right operand.
        rhs: ASrc,
        /// Modified-form architected destination GPR.
        dst: Option<Reg>,
    },
    /// Load: `acc (, dst) <- mem[addr + disp]`.
    ///
    /// The baseline I-ISA is register-indirect only (`disp == 0`; address
    /// arithmetic is a separate instruction). A nonzero displacement is
    /// the **fused-memory extension** the paper's §4.5 floats as a way to
    /// reduce the instruction-count expansion at the cost of decode
    /// complexity; it costs a 32-bit encoding.
    Load {
        /// Access width and extension rule.
        width: MemWidth,
        /// The accumulator receiving the value.
        acc: Acc,
        /// Address operand.
        addr: ASrc,
        /// Byte displacement (0 in the baseline ISA).
        disp: i16,
        /// Modified-form architected destination GPR.
        dst: Option<Reg>,
    },
    /// Store: `mem[addr + disp] <- value` (see [`IInst::Load`] about
    /// `disp`).
    Store {
        /// Access width.
        width: MemWidth,
        /// The instruction's accumulator (referenced by `addr` and/or
        /// `value` via [`ASrc::Acc`]).
        acc: Acc,
        /// Address operand.
        addr: ASrc,
        /// Byte displacement (0 in the baseline ISA).
        disp: i16,
        /// Value operand.
        value: ASrc,
    },
    /// Add-high: `acc (, dst) <- src + (imm << 16)` — the translation of
    /// Alpha's `LDAH`, whose 16-bit shifted immediate exceeds the normal
    /// operand field.
    AddHigh {
        /// The accumulator written.
        acc: Acc,
        /// Base operand.
        src: ASrc,
        /// Immediate, shifted left 16 before the add.
        imm: i16,
        /// Modified-form architected destination GPR.
        dst: Option<Reg>,
    },
    /// Conditional-move select: `acc (, dst) <- taken(low bit of acc) ?
    /// value : old`, where `old` is the current architected value of the
    /// destination register.
    ///
    /// This is the second half of the translator's cmov decomposition: the
    /// first half computes the 0/1 test into the accumulator. The implicit
    /// old-destination read is the one place the I-ISA reads a register it
    /// does not name in a source slot (a merging write, as in ISAs with
    /// partial-register writes); see DESIGN.md.
    CmovSelect {
        /// `true`: select `value` when the accumulator's low bit is set
        /// (`cmovlbs` polarity); `false`: when clear.
        lbs: bool,
        /// The accumulator holding the test (and receiving the result).
        acc: Acc,
        /// The value moved in when the condition holds.
        value: ASrc,
        /// The register whose architected value is kept otherwise.
        old: Reg,
        /// Modified-form architected destination GPR.
        dst: Option<Reg>,
    },
    /// Special: transfer to the shared dispatch code, which looks up the
    /// translated fragment for the V-ISA address in `src` (translating it
    /// first if needed). The paper's dispatch sequence costs 20
    /// instructions; the VM engine models that cost explicitly.
    Dispatch {
        /// The accumulator named by this instruction.
        acc: Acc,
        /// The V-ISA target address value.
        src: ASrc,
    },
    /// `copy-to-GPR`: `dst <- acc`. Used by the basic ISA to maintain
    /// architected state and for strand termination spills.
    CopyToGpr {
        /// Source accumulator.
        acc: Acc,
        /// Destination GPR.
        dst: Reg,
    },
    /// `copy-from-GPR`: `acc <- src`. Starts a strand from a global value.
    CopyFromGpr {
        /// Destination accumulator.
        acc: Acc,
        /// Source GPR.
        src: Reg,
    },
    /// Conditional branch: `P <- target, if cond(src)`.
    CondBranch {
        /// Condition.
        cond: CondKind,
        /// The accumulator named by this instruction (used when `src` is
        /// [`ASrc::Acc`]).
        acc: Acc,
        /// Tested value.
        src: ASrc,
        /// Branch target.
        target: ITarget,
    },
    /// Unconditional branch: `P <- target`.
    Branch {
        /// Branch target.
        target: ITarget,
    },
    /// Register-indirect jump through an accumulator or GPR.
    ///
    /// For [`JumpKind::Ret`] the dual-address RAS semantics apply: the
    /// hardware pops a (V-addr, I-addr) pair, and if the V-addr does not
    /// match the jump's operand value, control falls through to the next
    /// instruction (an unconditional branch to dispatch) instead of jumping.
    IndirectJump {
        /// Jump flavor.
        kind: JumpKind,
        /// The accumulator named by this instruction.
        acc: Acc,
        /// Target V-ISA address value.
        addr: ASrc,
    },
    /// Special: first instruction of every fragment. Writes the fragment's
    /// V-ISA start address into the V-PC base register used for PEI table
    /// lookups (paper §2.2).
    SetVpcBase {
        /// The V-ISA address of the first source instruction of the
        /// fragment.
        vaddr: u64,
    },
    /// Special: `load-embedded-target-address` — materializes a 64-bit
    /// translation-time V-ISA target into the accumulator, enabling the
    /// 3-instruction software jump prediction sequence (paper §3.2).
    LoadEmbeddedTarget {
        /// Destination accumulator.
        acc: Acc,
        /// The embedded V-ISA address.
        vaddr: u64,
    },
    /// Special: `save-V-ISA-return-address` — writes an embedded V-ISA
    /// return address to a GPR (replaces `BR`/`BSR` link semantics, since
    /// the I-ISA return address would otherwise be an I-address).
    SaveVReturn {
        /// Destination GPR (the V-ISA link register).
        dst: Reg,
        /// The V-ISA return address to write.
        vaddr: u64,
    },
    /// Special: `push-dual-address-RAS` — pushes the (V-ISA, I-ISA)
    /// return-address pair for a translated call (paper §3.2).
    PushDualRas {
        /// V-ISA return address.
        vret: u64,
        /// I-ISA return address (resolved at installation).
        iret: ITarget,
    },
    /// Special: `call-translator-if-condition-is-met` — a fragment exit for
    /// a conditional branch whose target is not yet translated. Patched to
    /// a plain [`IInst::CondBranch`] when the target becomes hot.
    CallTranslatorIfCond {
        /// Condition.
        cond: CondKind,
        /// The accumulator named by this instruction.
        acc: Acc,
        /// Tested value.
        src: ASrc,
        /// The V-ISA address control should continue at.
        vtarget: u64,
    },
    /// Special: unconditional exit to the translator/dispatcher for a
    /// not-yet-translated continuation.
    CallTranslator {
        /// The V-ISA address control should continue at.
        vtarget: u64,
    },
    /// Special: raise the V-ISA `gentrap` trap (a PEI).
    GenTrap,
    /// Special: console byte output (translation of `CALL_PAL putchar`).
    PutChar {
        /// The accumulator named by this instruction.
        acc: Acc,
        /// The byte value source.
        src: ASrc,
    },
    /// Halt the machine (translation of `CALL_PAL halt`).
    Halt,
    /// A non-control Alpha instruction carried unchanged: the body of the
    /// straightened form's fragments. Its operands are the Alpha
    /// instruction's own ([`Inst::sources`], [`Inst::dest`]); the
    /// accumulator-ISA accessors (`acc`, `gpr_reads`, `gpr_write`) see
    /// none.
    Alpha(Inst),
}

/// A structural-validity error for an I-ISA instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IInstError {
    /// The basic form allows at most one GPR reference per instruction.
    TooManyGprs,
    /// `dst` GPRs exist only in the modified form.
    DstGprInBasicForm,
    /// A store may not reference the accumulator through both operands
    /// while also naming a GPR (would need two read ports).
    MalformedStore,
    /// Alpha instructions are carried only by the straightened form, and
    /// only non-control ones.
    MisplacedAlpha,
}

impl fmt::Display for IInstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IInstError::TooManyGprs => {
                write!(f, "basic-form instruction references more than one GPR")
            }
            IInstError::DstGprInBasicForm => {
                write!(f, "basic-form instruction names a destination GPR")
            }
            IInstError::MalformedStore => write!(f, "store operand combination not encodable"),
            IInstError::MisplacedAlpha => write!(
                f,
                "Alpha instruction outside the straightened form, or a control transfer"
            ),
        }
    }
}

impl std::error::Error for IInstError {}

impl IInst {
    /// The accumulator referenced by this instruction, if any.
    pub fn acc(&self) -> Option<Acc> {
        match *self {
            IInst::Op { acc, .. }
            | IInst::Load { acc, .. }
            | IInst::Store { acc, .. }
            | IInst::CopyToGpr { acc, .. }
            | IInst::CopyFromGpr { acc, .. }
            | IInst::CondBranch { acc, .. }
            | IInst::IndirectJump { acc, .. }
            | IInst::LoadEmbeddedTarget { acc, .. }
            | IInst::CallTranslatorIfCond { acc, .. }
            | IInst::AddHigh { acc, .. }
            | IInst::CmovSelect { acc, .. }
            | IInst::Dispatch { acc, .. }
            | IInst::PutChar { acc, .. } => Some(acc),
            _ => None,
        }
    }

    /// Whether the instruction writes its accumulator.
    pub fn writes_acc(&self) -> bool {
        matches!(
            self,
            IInst::Op { .. }
                | IInst::Load { .. }
                | IInst::CopyFromGpr { .. }
                | IInst::LoadEmbeddedTarget { .. }
                | IInst::AddHigh { .. }
                | IInst::CmovSelect { .. }
        )
    }

    /// Whether the instruction reads its accumulator (through any operand).
    pub fn reads_acc(&self) -> bool {
        let uses = |s: &ASrc| matches!(s, ASrc::Acc);
        match self {
            IInst::Op { lhs, rhs, .. } => uses(lhs) || uses(rhs),
            IInst::Load { addr, .. } => uses(addr),
            IInst::Store { addr, value, .. } => uses(addr) || uses(value),
            IInst::CopyToGpr { .. } => true,
            IInst::CondBranch { src, .. } => uses(src),
            IInst::IndirectJump { addr, .. } => uses(addr),
            IInst::CallTranslatorIfCond { src, .. } => uses(src),
            IInst::AddHigh { src, .. } => uses(src),
            IInst::CmovSelect { .. } => true, // the test is in the accumulator
            IInst::Dispatch { src, .. } => uses(src),
            IInst::PutChar { src, .. } => uses(src),
            _ => false,
        }
    }

    /// The GPRs read by this instruction (at most two in the modified form,
    /// at most one in the basic form).
    pub fn gpr_reads(&self) -> [Option<Reg>; 2] {
        let gpr = |s: &ASrc| match s {
            ASrc::Gpr(r) => Some(*r),
            _ => None,
        };
        let mut out = [None, None];
        let mut push = |r: Option<Reg>| {
            if let Some(r) = r {
                if out[0].is_none() {
                    out[0] = Some(r);
                } else if out[0] != Some(r) && out[1].is_none() {
                    out[1] = Some(r);
                }
            }
        };
        match self {
            IInst::Op { lhs, rhs, .. } => {
                push(gpr(lhs));
                push(gpr(rhs));
            }
            IInst::Load { addr, .. } => push(gpr(addr)),
            IInst::Store { addr, value, .. } => {
                push(gpr(addr));
                push(gpr(value));
            }
            IInst::CopyFromGpr { src, .. } => push(Some(*src)),
            IInst::AddHigh { src, .. } => push(gpr(src)),
            IInst::CmovSelect { value, old, .. } => {
                push(gpr(value));
                push(Some(*old));
            }
            IInst::Dispatch { src, .. } => push(gpr(src)),
            IInst::CondBranch { src, .. } => push(gpr(src)),
            IInst::IndirectJump { addr, .. } => push(gpr(addr)),
            IInst::CallTranslatorIfCond { src, .. } => push(gpr(src)),
            IInst::PutChar { src, .. } => push(gpr(src)),
            _ => {}
        }
        out
    }

    /// The GPR written by this instruction, if any.
    pub fn gpr_write(&self) -> Option<Reg> {
        match *self {
            IInst::Op { dst, .. }
            | IInst::Load { dst, .. }
            | IInst::AddHigh { dst, .. }
            | IInst::CmovSelect { dst, .. } => dst,
            IInst::CopyToGpr { dst, .. } => Some(dst),
            IInst::SaveVReturn { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Whether this is a `copy-to-GPR` or `copy-from-GPR` instruction
    /// (counted by Table 2's "% of copy instructions").
    pub fn is_copy(&self) -> bool {
        matches!(self, IInst::CopyToGpr { .. } | IInst::CopyFromGpr { .. })
    }

    /// Whether this instruction is a memory access.
    pub fn is_mem(&self) -> bool {
        matches!(self, IInst::Load { .. } | IInst::Store { .. })
    }

    /// Whether this instruction may raise a precise trap (PEI).
    pub fn is_pei(&self) -> bool {
        match self {
            IInst::Load { .. } | IInst::Store { .. } | IInst::GenTrap => true,
            IInst::Alpha(a) => a.is_pei(),
            _ => false,
        }
    }

    /// Whether this is any control-transfer instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            IInst::CondBranch { .. }
                | IInst::Branch { .. }
                | IInst::IndirectJump { .. }
                | IInst::CallTranslatorIfCond { .. }
                | IInst::CallTranslator { .. }
                | IInst::Dispatch { .. }
                | IInst::Halt
        ) || self.is_alpha_halt()
    }

    /// Whether this carries Alpha's `CALL_PAL halt`.
    fn is_alpha_halt(&self) -> bool {
        matches!(
            self,
            IInst::Alpha(Inst::CallPal {
                func: PalFunc::Halt
            })
        )
    }

    /// The instruction's value-source operand slots, in encoding order
    /// (`[lhs, rhs]` for ALU ops, `[addr, value]` for stores, single
    /// operands in slot 0). Introspection for static analyzers that need
    /// the raw [`ASrc`]s rather than just the GPR views.
    pub fn asrc_operands(&self) -> [Option<ASrc>; 2] {
        match *self {
            IInst::Op { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            IInst::Load { addr, .. } => [Some(addr), None],
            IInst::Store { addr, value, .. } => [Some(addr), Some(value)],
            IInst::AddHigh { src, .. } => [Some(src), None],
            IInst::CmovSelect { value, .. } => [Some(value), None],
            IInst::Dispatch { src, .. } => [Some(src), None],
            IInst::CondBranch { src, .. } => [Some(src), None],
            IInst::IndirectJump { addr, .. } => [Some(addr), None],
            IInst::CallTranslatorIfCond { src, .. } => [Some(src), None],
            IInst::PutChar { src, .. } => [Some(src), None],
            _ => [None, None],
        }
    }

    /// Whether this instruction unconditionally ends a fragment's
    /// instruction stream (no fall-through to a following instruction).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            IInst::Branch { .. }
                | IInst::CallTranslator { .. }
                | IInst::Dispatch { .. }
                | IInst::Halt
        ) || self.is_alpha_halt()
    }

    /// The embedded V-ISA target of a patchable translator-exit
    /// instruction, if this is one.
    pub fn patch_vtarget(&self) -> Option<u64> {
        match *self {
            IInst::CallTranslator { vtarget } | IInst::CallTranslatorIfCond { vtarget, .. } => {
                Some(vtarget)
            }
            _ => None,
        }
    }

    /// The I-ISA branch target of a resolved control transfer, if any
    /// (conditional or unconditional branch).
    pub fn branch_itarget(&self) -> Option<ITarget> {
        match *self {
            IInst::CondBranch { target, .. } | IInst::Branch { target } => Some(target),
            _ => None,
        }
    }

    /// Checks the structural encodability rules for the given ISA form.
    ///
    /// # Errors
    ///
    /// Returns an [`IInstError`] describing the violated constraint.
    pub fn validate(&self, form: IsaForm) -> Result<(), IInstError> {
        if let IInst::Alpha(a) = self {
            let carried = !matches!(
                a,
                Inst::Branch { .. } | Inst::Jump { .. } | Inst::Unimplemented { .. }
            );
            return match form {
                IsaForm::Straightened if carried => Ok(()),
                _ => Err(IInstError::MisplacedAlpha),
            };
        }
        let mut gprs = self.gpr_reads().iter().flatten().count();
        // The cmov select's old-destination read is an implicit merging
        // read of the destination register, not a source-operand field
        // (see the variant documentation); it does not consume the
        // instruction's single GPR source slot.
        if let IInst::CmovSelect { old, value, .. } = self {
            if !matches!(value, ASrc::Gpr(r) if r == old) {
                gprs = gprs.saturating_sub(1);
            }
        }
        let has_dst = matches!(
            self,
            IInst::Op { dst: Some(_), .. }
                | IInst::Load { dst: Some(_), .. }
                | IInst::AddHigh { dst: Some(_), .. }
                | IInst::CmovSelect { dst: Some(_), .. }
        );
        match form {
            IsaForm::Basic => {
                if has_dst {
                    return Err(IInstError::DstGprInBasicForm);
                }
                let total = gprs + usize::from(self.gpr_write().is_some());
                if total > 1 {
                    return Err(IInstError::TooManyGprs);
                }
            }
            // The straightened form's chaining instructions follow the
            // modified form's rules.
            IsaForm::Modified | IsaForm::Straightened => {
                // Source operands still allow only one GPR; the second GPR
                // name is the destination.
                if gprs > 1 {
                    return Err(IInstError::TooManyGprs);
                }
            }
        }
        if let IInst::Store { addr, value, .. } = self {
            // A store reading the accumulator through both operands *and*
            // naming a GPR would need three read ports.
            if matches!(addr, ASrc::Acc) && matches!(value, ASrc::Acc) && gprs > 0 {
                return Err(IInstError::MalformedStore);
            }
        }
        Ok(())
    }

    /// The encoded size of this instruction in bytes.
    ///
    /// The paper's size model: frequent forms using only an accumulator,
    /// one GPR, or a small literal fit in 16 bits; forms with wide
    /// immediates, branch displacements or (in the modified ISA) an extra
    /// destination-GPR specifier take 32 bits; instructions embedding a
    /// V-ISA address take 64 bits (32-bit opcode word + 32-bit address
    /// word, addresses being code-segment-relative). Every instruction of
    /// the straightened form, like Alpha's, takes 32 bits.
    pub fn size_bytes(&self, form: IsaForm) -> u32 {
        if form == IsaForm::Straightened {
            return 4;
        }
        let imm_fits_short = |s: &ASrc| match s {
            ASrc::Imm(v) => (-128..=127).contains(v),
            _ => true,
        };
        match self {
            IInst::Op { lhs, rhs, dst, .. } => {
                let short = imm_fits_short(lhs) && imm_fits_short(rhs);
                let extra_dst = form == IsaForm::Modified && dst.is_some();
                if short && !extra_dst {
                    2
                } else {
                    4
                }
            }
            IInst::Load { dst, disp, .. } => {
                if (form == IsaForm::Modified && dst.is_some()) || *disp != 0 {
                    4
                } else {
                    2
                }
            }
            IInst::Store { disp, .. } => {
                if *disp == 0 {
                    2
                } else {
                    4
                }
            }
            IInst::AddHigh { .. } | IInst::CmovSelect { .. } => 4,
            IInst::Dispatch { .. } => 4,
            IInst::CopyToGpr { .. } | IInst::CopyFromGpr { .. } => 2,
            IInst::CondBranch { .. } | IInst::Branch { .. } => 4,
            IInst::IndirectJump { .. } => 2,
            IInst::SetVpcBase { .. }
            | IInst::LoadEmbeddedTarget { .. }
            | IInst::SaveVReturn { .. }
            | IInst::PushDualRas { .. }
            | IInst::CallTranslatorIfCond { .. }
            | IInst::CallTranslator { .. } => 8,
            IInst::GenTrap | IInst::PutChar { .. } | IInst::Halt => 2,
            IInst::Alpha(_) => 4,
        }
    }
}

impl fmt::Display for IInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dst_s = |acc: &Acc, dst: &Option<Reg>| match dst {
            Some(r) => format!("{r}({acc})"),
            None => format!("{acc}"),
        };
        match self {
            IInst::Op {
                op,
                acc,
                lhs,
                rhs,
                dst,
            } => {
                let lhs = match lhs {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                let rhs = match rhs {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(
                    f,
                    "{} <- {} {} {}",
                    dst_s(acc, dst),
                    lhs,
                    op.mnemonic(),
                    rhs
                )
            }
            IInst::Load {
                acc,
                addr,
                disp,
                dst,
                ..
            } => {
                let a = match addr {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                if *disp == 0 {
                    write!(f, "{} <- mem[{}]", dst_s(acc, dst), a)
                } else {
                    write!(f, "{} <- mem[{} + {}]", dst_s(acc, dst), a, disp)
                }
            }
            IInst::Store {
                acc,
                addr,
                disp,
                value,
                ..
            } => {
                let a = match addr {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                let v = match value {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                if *disp == 0 {
                    write!(f, "mem[{a}] <- {v}")
                } else {
                    write!(f, "mem[{a} + {disp}] <- {v}")
                }
            }
            IInst::AddHigh { acc, src, imm, dst } => {
                let srcs = match src {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "{} <- {} + ({} << 16)", dst_s(acc, dst), srcs, imm)
            }
            IInst::CmovSelect {
                lbs,
                acc,
                value,
                old,
                dst,
            } => {
                let v = match value {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                let pol = if *lbs { "lbs" } else { "lbc" };
                write!(f, "{} <- {pol}({acc}) ? {v} : {old}", dst_s(acc, dst))
            }
            IInst::Dispatch { acc, src } => {
                let s = match src {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "dispatch {s}")
            }
            IInst::CopyToGpr { acc, dst } => write!(f, "{dst} <- {acc}"),
            IInst::CopyFromGpr { acc, src } => write!(f, "{acc} <- {src}"),
            IInst::CondBranch {
                cond,
                acc,
                src,
                target,
            } => {
                let s = match src {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "P <- {target:?}, if ({s} {cond:?} 0)")
            }
            IInst::Branch { target } => write!(f, "P <- {target:?}"),
            IInst::IndirectJump { kind, acc, addr } => {
                let a = match addr {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "{} P <- {a}", kind.mnemonic())
            }
            IInst::SetVpcBase { vaddr } => write!(f, "vpc_base <- {vaddr:#x}"),
            IInst::LoadEmbeddedTarget { acc, vaddr } => {
                write!(f, "{acc} <- embedded {vaddr:#x}")
            }
            IInst::SaveVReturn { dst, vaddr } => write!(f, "{dst} <- vret {vaddr:#x}"),
            IInst::PushDualRas { vret, iret } => {
                write!(f, "ras_push ({vret:#x}, {iret:?})")
            }
            IInst::CallTranslatorIfCond {
                cond,
                acc,
                src,
                vtarget,
                ..
            } => {
                let s = match src {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "call_translator {vtarget:#x}, if ({s} {cond:?} 0)")
            }
            IInst::CallTranslator { vtarget } => write!(f, "call_translator {vtarget:#x}"),
            IInst::GenTrap => write!(f, "gentrap"),
            IInst::PutChar { acc, src } => {
                let s = match src {
                    ASrc::Acc => acc.to_string(),
                    other => other.to_string(),
                };
                write!(f, "putchar {s}")
            }
            IInst::Halt => write!(f, "halt"),
            IInst::Alpha(a) => write!(f, "{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u8) -> Acc {
        Acc::new(n)
    }

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn acc_read_write_classification() {
        let op = IInst::Op {
            op: OperateOp::Xor,
            acc: a(0),
            lhs: ASrc::Acc,
            rhs: ASrc::Gpr(r(1)),
            dst: None,
        };
        assert!(op.reads_acc());
        assert!(op.writes_acc());

        let start = IInst::Op {
            op: OperateOp::Subl,
            acc: a(1),
            lhs: ASrc::Gpr(r(17)),
            rhs: ASrc::Imm(1),
            dst: None,
        };
        assert!(!start.reads_acc());
        assert!(start.writes_acc());

        let copy = IInst::CopyToGpr {
            acc: a(1),
            dst: r(17),
        };
        assert!(copy.reads_acc());
        assert!(!copy.writes_acc());
    }

    #[test]
    fn basic_form_rejects_two_gprs() {
        let two = IInst::Op {
            op: OperateOp::Addq,
            acc: a(0),
            lhs: ASrc::Gpr(r(1)),
            rhs: ASrc::Gpr(r(2)),
            dst: None,
        };
        assert_eq!(two.validate(IsaForm::Basic), Err(IInstError::TooManyGprs));
        // Modified form allows one source GPR + dest GPR but still not two
        // source GPRs.
        assert_eq!(
            two.validate(IsaForm::Modified),
            Err(IInstError::TooManyGprs)
        );
    }

    #[test]
    fn modified_form_allows_dst() {
        let m = IInst::Op {
            op: OperateOp::Xor,
            acc: a(3),
            lhs: ASrc::Gpr(r(3)),
            rhs: ASrc::Acc,
            dst: Some(r(1)),
        };
        assert!(m.validate(IsaForm::Modified).is_ok());
        assert_eq!(
            m.validate(IsaForm::Basic),
            Err(IInstError::DstGprInBasicForm)
        );
    }

    #[test]
    fn size_model() {
        let short = IInst::Op {
            op: OperateOp::And,
            acc: a(0),
            lhs: ASrc::Acc,
            rhs: ASrc::Imm(0xff_i16 - 0x80), // fits in 8 bits
            dst: None,
        };
        assert_eq!(short.size_bytes(IsaForm::Basic), 2);
        let wide = IInst::Op {
            op: OperateOp::And,
            acc: a(0),
            lhs: ASrc::Acc,
            rhs: ASrc::Imm(1000),
            dst: None,
        };
        assert_eq!(wide.size_bytes(IsaForm::Basic), 4);
        let modified = IInst::Op {
            op: OperateOp::And,
            acc: a(0),
            lhs: ASrc::Acc,
            rhs: ASrc::Imm(1),
            dst: Some(r(3)),
        };
        assert_eq!(modified.size_bytes(IsaForm::Modified), 4);
        assert_eq!(IInst::SetVpcBase { vaddr: 0 }.size_bytes(IsaForm::Basic), 8);
        assert_eq!(
            IInst::CopyToGpr {
                acc: a(0),
                dst: r(1)
            }
            .size_bytes(IsaForm::Basic),
            2
        );
    }

    #[test]
    fn gpr_reads_deduplicated() {
        let st = IInst::Store {
            width: MemWidth::U64,
            acc: a(0),
            addr: ASrc::Gpr(r(2)),
            disp: 0,
            value: ASrc::Gpr(r(2)),
        };
        let reads = st.gpr_reads();
        assert_eq!(reads[0], Some(r(2)));
        assert_eq!(reads[1], None);
    }

    #[test]
    fn cond_inverse_roundtrip() {
        for c in [
            CondKind::Eq,
            CondKind::Ne,
            CondKind::Lt,
            CondKind::Le,
            CondKind::Gt,
            CondKind::Ge,
            CondKind::Lbc,
            CondKind::Lbs,
        ] {
            assert_eq!(c.inverse().inverse(), c);
            for v in [0u64, 1, u64::MAX, 1 << 63] {
                assert_ne!(c.eval(v), c.inverse().eval(v));
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        let inst = IInst::Op {
            op: OperateOp::Subl,
            acc: a(1),
            lhs: ASrc::Gpr(r(17)),
            rhs: ASrc::Imm(1),
            dst: Some(r(17)),
        };
        assert_eq!(inst.to_string(), "r17(A1) <- r17 subl #1");
        let basic = IInst::Load {
            width: MemWidth::U8,
            acc: a(0),
            addr: ASrc::Gpr(r(16)),
            disp: 0,
            dst: None,
        };
        assert_eq!(basic.to_string(), "A0 <- mem[r16]");
    }

    #[test]
    fn alpha_instructions_belong_to_the_straightened_form() {
        let add = IInst::Alpha(Inst::Operate {
            op: OperateOp::Addq,
            ra: r(1),
            rb: alpha_isa::Operand::Lit(4),
            rc: r(2),
        });
        assert_eq!(add.validate(IsaForm::Straightened), Ok(()));
        assert_eq!(
            add.validate(IsaForm::Modified),
            Err(IInstError::MisplacedAlpha)
        );
        let br = IInst::Alpha(Inst::Branch {
            op: alpha_isa::BranchOp::Br,
            ra: Reg::ZERO,
            disp: 1,
        });
        assert_eq!(
            br.validate(IsaForm::Straightened),
            Err(IInstError::MisplacedAlpha)
        );
        let halt = IInst::Alpha(Inst::CallPal {
            func: PalFunc::Halt,
        });
        assert!(halt.validate(IsaForm::Straightened).is_ok() && halt.is_terminal());
        assert_eq!(IInst::GenTrap.size_bytes(IsaForm::Straightened), 4);
    }

    #[test]
    fn pei_classification() {
        assert!(IInst::GenTrap.is_pei());
        assert!(IInst::Load {
            width: MemWidth::U64,
            acc: a(0),
            addr: ASrc::Acc,
            disp: 0,
            dst: None
        }
        .is_pei());
        assert!(!IInst::Halt.is_pei());
    }
}
