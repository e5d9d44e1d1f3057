//! Offline pretranslation into the persistent fragment store, and the
//! warm-run differential used to gate it.
//!
//! The `pretranslate` binary walks every (workload × ISA form × chain
//! policy) cell of the suite, translates and verifies every region a
//! cold VM heats, and publishes the artifacts into one digest-keyed
//! [`FragmentStore`] — the static half of the static/dynamic hybrid: a
//! freshly exec'd VM pointed at the saved store boots with zero JIT
//! warmup. `lint store` uses the same entry points to build a
//! known-good baseline store, poison it, and prove every corruption is
//! rejected into a cache miss.

use crate::lint::{cells, recording_config};
use ildp_core::oracle::{self, EndState};
use ildp_core::{ChainPolicy, FragmentStore, NullSink, Vm, VmExit};
use ildp_isa::IsaForm;
use ildp_verifier::{artifact_validator, install_validator};
use spec_workloads::Workload;
use std::sync::Arc;

/// Tally of one [`pretranslate_suite`] sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PretranslateReport {
    /// (workload × form × chain) cells walked.
    pub cells: u64,
    /// Fragments translated, verified, and published.
    pub fragments: u64,
    /// Verifier violations across all cells (must be zero for the store
    /// to be worth saving).
    pub violations: u64,
    /// Distinct artifacts in the resulting store.
    pub entries: u64,
}

/// Runs one cold cell and publishes everything it translates into
/// `store`. Returns the fragments published, or an error when the run
/// exits abnormally or the verifier files violations.
pub fn pretranslate_cell(
    store: &Arc<FragmentStore>,
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
) -> Result<u64, String> {
    let config = recording_config(form, chain, install_validator);
    let mut vm = Vm::new(config, &w.program);
    vm.attach_store(Arc::clone(store));
    let exit = vm.run(w.budget * 2, &mut NullSink);
    if !matches!(exit, VmExit::Halted | VmExit::Budget) {
        return Err(format!("{}: cold run exited {exit:?}", w.name));
    }
    let violations = vm.violations();
    if !violations.is_empty() {
        return Err(format!(
            "{}: {} verifier violations during pretranslation",
            w.name,
            violations.len()
        ));
    }
    Ok(vm.stats().warm_stores)
}

/// Walks every (workload × form × chain) cell of the suite at `scale`
/// and returns the populated store. The caller decides where (and
/// whether) to [`FragmentStore::save`] it.
pub fn pretranslate_suite(scale: u32) -> Result<(Arc<FragmentStore>, PretranslateReport), String> {
    let store = Arc::new(FragmentStore::new());
    let mut report = PretranslateReport::default();
    for (w, form, chain, _) in cells(scale) {
        report.cells += 1;
        report.fragments += pretranslate_cell(&store, &w, form, chain)?;
    }
    report.entries = store.len() as u64;
    Ok((store, report))
}

/// What a warm run observed from its attached store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WarmOutcome {
    /// Fragment installs served from the store.
    pub warm_hits: u64,
    /// Store lookups that fell back to fresh translation.
    pub warm_misses: u64,
    /// Artifacts the store (or the re-verification knob) refused.
    pub store_quarantined: u64,
    /// Fragments the VM translated and verified itself (fallback work).
    pub fragments_verified: u64,
}

/// Runs one cell against an attached (possibly poisoned) store and
/// checks the end state against a pure-interpreter reference
/// ([`EndState::check`]), and any fresh translations the VM fell back to
/// must verify clean. With `reverify`, disk-loaded artifacts are
/// re-checked by
/// [`artifact_validator`] before install. Returns what the run observed,
/// or a description of the divergence.
pub fn run_cell_against_store(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    store: &Arc<FragmentStore>,
    reverify: bool,
) -> Result<WarmOutcome, String> {
    let budget = w.budget * 2;
    let reference =
        oracle::reference(&w.program, budget).map_err(|e| format!("{}: {e}", w.name))?;
    let mut config = recording_config(form, chain, install_validator);
    if reverify {
        config.store_validator = Some(artifact_validator);
    }
    let mut vm = Vm::new(config, &w.program);
    vm.attach_store(Arc::clone(store));
    let exit = vm.run(budget, &mut NullSink);
    let cell = format!("{}:{form:?}:{}", w.name, chain.label());
    let st = vm.stats().clone();
    // `store_validator` refusals only count as quarantines; anything the
    // VM recorded came from a fresh translation on the fallback path.
    if !vm.violations().is_empty() {
        return Err(format!(
            "{cell}: {} verifier violations on the fallback path",
            vm.violations().len()
        ));
    }
    reference
        .check(&EndState::of(&vm, &exit))
        .map_err(|e| format!("{cell}: {e}"))?;
    Ok(WarmOutcome {
        warm_hits: st.warm_hits,
        warm_misses: st.warm_misses,
        store_quarantined: st.store_quarantined,
        // Region re-formation is profile-local and never published, so
        // a warm VM verifying its own regions is expected; only verify
        // work the store should have supplied counts as fallback.
        fragments_verified: st.fragments_verified - st.regions_verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_workloads::suite;

    #[test]
    fn pretranslated_store_serves_every_cell_without_retranslation() {
        let (store, report) = pretranslate_suite(1).expect("pretranslation");
        assert!(report.fragments > 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.entries as usize, store.len());
        // A warm VM over a clean store must take every fragment from it,
        // translate nothing, and finish interpreter-identical — with the
        // re-verification knob engaged.
        let w = &suite(1)[0];
        let out = run_cell_against_store(
            w,
            IsaForm::Modified,
            ChainPolicy::SwPredDualRas,
            &store,
            true,
        )
        .expect("warm differential");
        assert!(out.warm_hits > 0);
        assert_eq!(out.warm_misses, 0);
        assert_eq!(out.store_quarantined, 0);
        assert_eq!(out.fragments_verified, 0);
    }
}
