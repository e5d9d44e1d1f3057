//! # ildp-verifier — static translation validation
//!
//! Checks every translated fragment **without executing it**, against the
//! source superblock and the [`TranslationTrace`](ildp_core::TranslationTrace)
//! the translator recorded. Four passes, each with its own rule-id space:
//!
//! 1. **Accumulator discipline** (`A..`, [`mod@self`]): abstract
//!    interpretation over the emitted stream proving each accumulator is
//!    written by exactly one strand between kills and every accumulator
//!    read observes the planned value, in both ISA forms.
//! 2. **Precise-state audit** (`P..`): modified form — every
//!    result-producing instruction names its destination GPR; basic form —
//!    every trap-window / live-out / communication value reaches its GPR
//!    (copy or recovery-table entry) before any potentially-trapping
//!    instruction, cross-checked against the
//!    [`RecoveryEntry`](ildp_core::RecoveryEntry) metadata.
//! 3. **Chaining integrity** (`C..`): patchable exits, the 3-instruction
//!    software-prediction shape, dual-RAS push/return pairing, and (after
//!    installation) direct-link/lookup agreement.
//! 4. **Symbolic equivalence** (`E..`): a symbolic evaluator runs the
//!    Alpha superblock and the I-ISA fragment side by side over symbolic
//!    registers and memory, proving identical live-out GPR expressions,
//!    memory/output effects, exit conditions and precise-trap state.
//!
//! The VM invokes these through its install-validator hooks
//! ([`ildp_core::VmConfig::validator`] and `store_validator`). Three
//! validators cover the rule families: [`install_validator`] (A/P/C/E),
//! [`full_validator`] (A/P/C/E plus the pre-install flow rules F01–F04)
//! and [`artifact_validator`] (C/E, for warm-start artifacts). Each one
//! rejects on any violation; [`ildp_core::OnViolation`] decides whether
//! the VM then refuses the translation, panics, or installs it and
//! records the diagnostic on the VM. `lint verify` in `ildp-bench` runs
//! [`full_validator`] in record mode over every fragment of the full
//! workload suite. With the `verify` feature disabled (it is on by
//! default), every validator accepts everything at zero cost.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accdisc;
mod chaining;
pub mod flow;
mod precise;
mod symbolic;

pub use flow::{
    select_regions, ChainGraph, ExitArm, ExitKind, FlowReport, FragmentSummary, RegSet,
    RegionCandidate,
};

use std::fmt;

use ildp_core::{
    Fragment, InstallReview, Superblock, TranslatedCode, TranslationCache, Translator,
};
use ildp_isa::IsaForm;

/// One violated translation invariant, with a structured diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable rule identifier (`A01`, `P04`, `C02`, `E01`, ...).
    pub rule: &'static str,
    /// Entry V-address of the offending fragment.
    pub vstart: u64,
    /// Index of the offending emitted instruction, when the violation
    /// anchors to one.
    pub inst_index: Option<u32>,
    /// What the invariant demanded.
    pub expected: String,
    /// What the fragment actually contains.
    pub actual: String,
}

impl Violation {
    fn new(
        rule: &'static str,
        vstart: u64,
        inst_index: Option<usize>,
        expected: impl Into<String>,
        actual: impl Into<String>,
    ) -> Violation {
        Violation {
            rule,
            vstart,
            inst_index: inst_index.map(|k| k as u32),
            expected: expected.into(),
            actual: actual.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] fragment {:#x}", self.rule, self.vstart)?;
        if let Some(k) = self.inst_index {
            write!(f, " inst {k}")?;
        }
        write!(f, ": expected {}, got {}", self.expected, self.actual)
    }
}

/// Runs all four static passes over one freshly-emitted translation
/// (the chaining and symbolic passes only, for the straightened form:
/// see DESIGN.md §6).
///
/// Returns every violation found (empty for a correct translation). This
/// is the pre-install check — branch targets are still symbolic
/// `call-translator` exits; [`verify_installed`] covers the patched,
/// linked form.
pub fn verify_translation(
    sb: &Superblock,
    code: &TranslatedCode,
    tr: &Translator,
) -> Vec<Violation> {
    // The straightened form has no accumulators and records no analysis
    // trace: the accumulator-discipline and precise-state passes have
    // nothing to audit (every result is written to its GPR as it is
    // computed, and E06 still proves the state at every trap point).
    if tr.form == IsaForm::Straightened {
        return verify_artifact(sb, code, tr);
    }
    let mut out = Vec::new();
    if code.trace.inst_node.len() != code.insts.len() {
        out.push(Violation::new(
            "A00",
            code.vstart,
            None,
            format!("trace covering {} instructions", code.insts.len()),
            format!("inst_node of length {}", code.trace.inst_node.len()),
        ));
        return out;
    }
    accdisc::check(code, tr, &mut out);
    precise::check(code, tr, &mut out);
    chaining::check_static(sb, code, tr, &mut out);
    symbolic::check(sb, code, tr, &mut out);
    out
}

/// The trace-free subset of [`verify_translation`], for fragments that
/// arrive without their analysis trace — artifacts rehydrated from the
/// persistent [`FragmentStore`](ildp_core::FragmentStore). Runs the
/// static chaining rules (C01–C05) and the full symbolic re-execution
/// family (E01–E07); the trace-consuming passes (A / accumulator
/// discipline, P / precise state) need the original
/// [`TranslationTrace`](ildp_core::TranslationTrace) and cannot audit a
/// deserialized artifact.
pub fn verify_artifact(sb: &Superblock, code: &TranslatedCode, tr: &Translator) -> Vec<Violation> {
    let mut out = Vec::new();
    chaining::check_static(sb, code, tr, &mut out);
    symbolic::check(sb, code, tr, &mut out);
    out
}

/// Re-verification hook for
/// [`ildp_core::VmConfig::store_validator`]: runs
/// [`verify_artifact`] on a warm-start fragment before it installs and
/// rejects it when any rule fires, sending the VM back to the ordinary
/// translate/verify path. A no-op accept when the `verify` feature is
/// disabled.
pub fn artifact_validator(review: &InstallReview<'_>) -> Result<(), String> {
    gate(|| verify_artifact(review.sb, review.code, review.translator))
}

/// Checks an installed fragment's chaining integrity against the cache:
/// every resolved branch / dual-RAS target is the dispatch address or a
/// valid fragment entry, and the install-time direct links agree with the
/// instruction words in lockstep.
pub fn verify_installed(cache: &TranslationCache, frag: &Fragment) -> Vec<Violation> {
    chaining::check_installed(cache, frag)
}

/// The validators' shared verdict: runs `check` and rejects with all of
/// its violations joined. Whether a rejection refuses the translation or
/// only records it is the VM's choice
/// ([`ildp_core::VmConfig::on_violation`]). Accepts without running
/// `check` when the `verify` feature is disabled.
fn gate(check: impl FnOnce() -> Vec<Violation>) -> Result<(), String> {
    if !cfg!(feature = "verify") {
        return Ok(());
    }
    let violations = check();
    if violations.is_empty() {
        return Ok(());
    }
    let msg: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    Err(msg.join("; "))
}

/// The install-time validator for [`ildp_core::VmConfig::validator`]:
/// runs every single-fragment pass (A/P/C/E) and rejects the translation
/// when any rule fires, with all violations joined in the diagnostic. A
/// no-op accept when the `verify` feature is disabled.
pub fn install_validator(review: &InstallReview<'_>) -> Result<(), String> {
    gate(|| verify_translation(review.sb, review.code, review.translator))
}

/// [`install_validator`] plus the pre-install flow rules (F01–F04): the
/// full install gate. The whole-cache rules (F04 installed, F05) and the
/// dynamic rule (F06) need the full cache or a trace and live in
/// [`flow::check_cache`] / [`flow::check_dynamic`].
pub fn full_validator(review: &InstallReview<'_>) -> Result<(), String> {
    gate(|| {
        let mut violations = verify_translation(review.sb, review.code, review.translator);
        flow::check_translation(review.sb, review.code, &mut violations);
        violations
    })
}
