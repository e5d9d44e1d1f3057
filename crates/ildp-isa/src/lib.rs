//! # ildp-isa — the accumulator-oriented implementation ISA
//!
//! The **I-ISA** of the co-designed virtual machine (Kim & Smith, CGO 2003,
//! Section 2): a hierarchical register architecture with a small number of
//! accumulators on top of the general-purpose register file. Accumulators
//! link chains of dependent instructions (*strands*); inter-strand
//! communication goes through the GPRs. The ISA comes in two forms:
//!
//! * [`IsaForm::Basic`] — each instruction names at most one GPR; precise
//!   traps require explicit `copy-to-GPR` instructions;
//! * [`IsaForm::Modified`] — every result-producing instruction also names a
//!   destination GPR, making architected state implicit and eliminating
//!   almost all copies (the accumulators become strand identifiers).
//!
//! A third form, [`IsaForm::Straightened`], is not an accumulator ISA at
//! all: the paper's code-straightening-only configuration (§4.1), whose
//! fragments carry the non-control Alpha instructions unchanged
//! ([`IInst::Alpha`]) between the same chaining instructions.
//!
//! This crate defines the instruction set ([`IInst`]), operand model
//! ([`ASrc`]), accumulator identifiers ([`Acc`]), structural validation and
//! the 16/32/64-bit encoded-size model used for the paper's static code
//! size comparisons. Execution of translated fragments lives in the
//! `ildp-core` crate, which owns the translation cache the special
//! chaining instructions refer to.
//!
//! # Examples
//!
//! ```
//! use ildp_isa::{Acc, ASrc, IInst, IsaForm, MemWidth};
//! use alpha_isa::Reg;
//!
//! // The paper's Fig. 2(c) first instruction: A0 <- mem[R16]
//! let load = IInst::Load {
//!     width: MemWidth::U8,
//!     acc: Acc::new(0),
//!     addr: ASrc::Gpr(Reg::A0),
//!     disp: 0,
//!     dst: None,
//! };
//! load.validate(IsaForm::Basic)?;
//! assert_eq!(load.size_bytes(IsaForm::Basic), 2);
//! # Ok::<(), ildp_isa::IInstError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod acc;
mod inst;

pub use acc::Acc;
pub use inst::{ASrc, CondKind, IInst, IInstError, ITarget, MemWidth};

/// Which form of the accumulator ISA is in use.
///
/// See the [crate documentation](self) for the distinction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IsaForm {
    /// The basic ISA of Kim & Smith (ISCA 2002): one GPR per instruction,
    /// architected accumulators, explicit state-maintenance copies.
    Basic,
    /// The modified ISA introduced by the CGO 2003 paper: destination-GPR
    /// specifiers, strand identifiers, trivial precise-trap recovery.
    #[default]
    Modified,
    /// Code straightening only (paper §4.1, Figures 4–6): non-control Alpha
    /// instructions one-for-one ([`IInst::Alpha`]), no accumulators, with
    /// the same superblocks and chaining code as the accumulator forms.
    Straightened,
}

impl IsaForm {
    /// Short label used in reports ("B" / "M", as in the paper's Table 2;
    /// "S" for the straightened form).
    pub const fn label(self) -> &'static str {
        match self {
            IsaForm::Basic => "B",
            IsaForm::Modified => "M",
            IsaForm::Straightened => "S",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_labels() {
        assert_eq!(IsaForm::Basic.label(), "B");
        assert_eq!(IsaForm::Modified.label(), "M");
        assert_eq!(IsaForm::Straightened.label(), "S");
        assert_eq!(IsaForm::default(), IsaForm::Modified);
    }
}
