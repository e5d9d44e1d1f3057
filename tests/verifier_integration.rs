//! The translation validator wired into the VM: every fragment installed
//! while running the full workload suite — under every ISA form and
//! chaining policy — passes all four static passes (the straightened form
//! its chaining and symbolic passes), the installed
//! (patched, linked) fragments audit clean against the cache, the
//! engine's reject-on-violation mode degrades to interpretation instead
//! of installing a flagged translation, and record mode installs it and
//! keeps the diagnostic on the VM.

use ildp_core::oracle::{reference, EndState};
use ildp_core::{
    ChainPolicy, InstallReview, NullSink, OnViolation, ProfileConfig, Translator, Vm, VmConfig,
    VmExit,
};
use ildp_isa::IsaForm;
use ildp_verifier::{install_validator, verify_installed};
use spec_workloads::{by_name, suite};

fn vm_config(form: IsaForm, chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        },
        validator: Some(install_validator),
        ..VmConfig::default()
    }
}

#[test]
fn every_installed_fragment_verifies_clean_across_the_suite() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for chain in [
            ChainPolicy::NoPred,
            ChainPolicy::SwPred,
            ChainPolicy::SwPredDualRas,
        ] {
            for w in suite(1) {
                // `install_validator` panics (default OnViolation) on any
                // violation, so a completed run is itself the assertion.
                let mut vm = Vm::new(vm_config(form, chain), &w.program);
                let exit = vm.run(w.budget * 2, &mut NullSink);
                assert_eq!(exit, VmExit::Halted, "{} ({form:?}, {chain:?})", w.name);
                assert!(
                    vm.stats().fragments_verified > 0,
                    "{}: no fragments were verified",
                    w.name
                );
                assert_eq!(vm.stats().verify_rejected, 0);
                // The patched, chained form audits clean too.
                let cache = vm.cache();
                for frag in cache.fragments() {
                    let vs = verify_installed(cache, frag);
                    assert!(
                        vs.is_empty(),
                        "{}: installed fragment {:#x} fails audit:\n{}",
                        w.name,
                        frag.vstart,
                        vs.iter().map(|v| format!("  {v}\n")).collect::<String>()
                    );
                }
            }
        }
    }
}

#[test]
fn straightened_suite_verifies_clean_and_matches_the_oracle() {
    // The straightened form runs the chaining (C) and symbolic (E)
    // families; a refused translation would only be counted under
    // `Reject`, so the count itself is the assertion.
    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        for w in suite(1) {
            let config = VmConfig {
                on_violation: OnViolation::Reject,
                async_translate: false,
                ..vm_config(IsaForm::Straightened, chain)
            };
            let budget = w.budget * 2;
            let expected = reference(&w.program, budget).expect("reference");
            let mut vm = Vm::new(config, &w.program);
            let exit = vm.run(budget, &mut NullSink);
            let what = format!("{} ({chain:?})", w.name);
            if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
                panic!("{what}: {e}");
            }
            let stats = vm.stats();
            assert!(stats.fragments_verified > 0, "{what}: nothing verified");
            assert_eq!(stats.verify_rejected, 0, "{what}: refused translations");
        }
    }
}

/// A validator that rejects everything: with `OnViolation::Reject` the VM
/// must fall back to interpretation rather than panic or install.
fn reject_all(_review: &InstallReview<'_>) -> Result<(), String> {
    Err("rejected by test".to_string())
}

#[test]
fn record_mode_installs_refused_translations_and_keeps_their_diagnostics() {
    let w = by_name("bzip2", 1).expect("bzip2 workload");
    let expected = reference(&w.program, w.budget * 2).expect("reference");
    let mut clean = vm_config(IsaForm::Modified, ChainPolicy::SwPredDualRas);
    clean.on_violation = OnViolation::Record;
    let mut vm = Vm::new(clean, &w.program);
    vm.run(w.budget * 2, &mut NullSink);
    assert!(
        vm.violations().is_empty(),
        "clean translations must not report"
    );

    // Every translation refused, sync and on the background pool (whose
    // findings a validator could not hand back itself), with region
    // promotion forced so `promote_region` refuses merged regions too.
    for async_translate in [false, true] {
        let mut config = VmConfig {
            validator: Some(reject_all),
            on_violation: OnViolation::Record,
            async_translate,
            ..clean
        };
        config.engine.region_trigger = Some(64);
        let mut vm = Vm::new(config, &w.program);
        let exit = vm.run(w.budget * 2, &mut NullSink);
        let mode = if async_translate { "async" } else { "sync" };
        if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
            panic!("{mode}: {e}");
        }
        let s = vm.stats();
        assert!(s.fragments > 0, "{mode}: refused translations must install");
        assert!(
            vm.cache().fragments().any(|f| f.is_region),
            "{mode}: a refused region must install"
        );
        assert_eq!(s.verify_rejected, 0, "{mode}: record mode rejects nothing");
        // One diagnostic per installed translation, regions included.
        assert_eq!(vm.violations().len() as u64, s.fragments, "{mode}");
        assert!(vm.violations().iter().all(|(_, m)| m == "rejected by test"));
    }
}

#[test]
fn reject_mode_falls_back_to_interpretation() {
    let w = &suite(1)[0];
    let mut config = vm_config(IsaForm::Modified, ChainPolicy::SwPredDualRas);
    config.validator = Some(reject_all);
    config.on_violation = OnViolation::Reject;
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert_eq!(exit, VmExit::Halted, "{} must still complete", w.name);
    let s = vm.stats();
    assert_eq!(s.fragments, 0, "nothing may be installed");
    assert!(s.verify_rejected > 0, "rejections must be counted");
    assert_eq!(s.verify_rejected, s.fragments_verified);
    assert!(
        s.interpreted > 0,
        "execution must fall back to interpretation"
    );
}

#[test]
fn verifier_time_is_accounted_separately() {
    let w = &suite(1)[0];
    let mut vm = Vm::new(
        vm_config(IsaForm::Basic, ChainPolicy::SwPredDualRas),
        &w.program,
    );
    vm.run(w.budget * 2, &mut NullSink);
    let s = vm.stats();
    assert!(s.verify_nanos > 0, "verification time must be recorded");
    assert!(s.fragments_verified >= s.fragments);
}
