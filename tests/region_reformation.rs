//! Differential and property tests for profile-guided region
//! re-formation (`EngineConfig::region_trigger`).
//!
//! 1. The full workload × ISA-form × chain-policy matrix, with region
//!    promotion forced hot, must pass the oracle against a
//!    pure-interpreter reference — and the matrix must actually form
//!    regions, or the test gates nothing.
//! 2. Property: pausing a region-running VM at an arbitrary point,
//!    demoting every promoted region mid-loop, and resuming must land
//!    on a precise fragment boundary — the resumed run passes the
//!    oracle, with no region left installed.

use ildp_core::oracle::{reference, EndState};
use ildp_core::{ChainPolicy, NullSink, OnViolation, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use proptest::prelude::*;
use spec_workloads::{by_name, suite};

/// Promotion trigger low enough that region re-formation fires at test
/// scale (the production default waits for thousands of entries).
const TRIGGER: u64 = 64;

fn region_config(form: IsaForm, chain: ChainPolicy) -> VmConfig {
    let mut config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        validator: Some(ildp_verifier::full_validator),
        on_violation: OnViolation::Record,
        // Synchronous translation keeps every promotion point (and so
        // every pause the property test takes) reproducible.
        async_translate: false,
        ..VmConfig::default()
    };
    config.engine.region_trigger = Some(TRIGGER);
    config
}

#[test]
fn region_runs_match_interpreter_across_the_matrix() {
    let mut regions_formed = 0u64;
    let mut seams_eliminated = 0u64;
    for w in suite(3) {
        let expected =
            reference(&w.program, w.budget * 2).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for form in [IsaForm::Basic, IsaForm::Modified] {
            for chain in [
                ChainPolicy::NoPred,
                ChainPolicy::SwPred,
                ChainPolicy::SwPredDualRas,
            ] {
                let cell = format!("{}:{form:?}:{chain:?}", w.name);
                let mut vm = Vm::new(region_config(form, chain), &w.program);
                let exit = vm.run(w.budget * 2, &mut NullSink);
                assert!(
                    vm.violations().is_empty(),
                    "{cell}: install gate violations on promoted regions: {:?}",
                    vm.violations()
                );
                if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
                    panic!("{cell}: {e}");
                }
                regions_formed += vm.stats().regions_formed;
                seams_eliminated += vm.stats().seam_pairs_eliminated;
            }
        }
    }
    // Coverage: a matrix where promotion never fired tested nothing.
    assert!(
        regions_formed > 0,
        "no regions formed anywhere in the matrix (trigger {TRIGGER})"
    );
    assert!(
        seams_eliminated > 0,
        "regions formed but no seam pairs were eliminated"
    );
}

/// Demotes every promoted region in `vm`, returning how many fell.
fn demote_regions(vm: &mut Vm<'_>) -> u64 {
    let vstarts: Vec<u64> = vm
        .cache()
        .fragments()
        .filter(|f| f.is_region)
        .map(|f| f.vstart)
        .collect();
    let mut demoted = 0u64;
    for vs in vstarts {
        if let Some(id) = vm.cache().lookup(vs) {
            vm.invalidate_fragment(id);
            demoted += 1;
        }
    }
    demoted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pause anywhere mid-run, demote every region mid-loop, resume:
    /// the pause must land on a precise fragment boundary (the resumed
    /// run retires exactly the reference count and reproduces the
    /// interpreter's architected end state bit for bit).
    #[test]
    fn mid_loop_region_demotion_resumes_at_fragment_boundary(
        pause_permille in 10u64..990,
        form_modified in any::<bool>(),
    ) {
        let form = if form_modified { IsaForm::Modified } else { IsaForm::Basic };
        let w = by_name("bzip2", 2).expect("bzip2 workload");
        let expected = reference(&w.program, w.budget * 2).map_err(TestCaseError::fail)?;

        let config = region_config(form, ChainPolicy::SwPredDualRas);
        // A budget pause completes the in-flight fragment before
        // stopping, so the overshoot is bounded by the largest body the
        // engine can be inside: an unrolled region (two passes over the
        // region budget) or one plain superblock.
        let max_overshoot =
            (2 * config.region_budget as u64).max(config.profile.max_superblock as u64);
        let mut vm = Vm::new(config, &w.program);
        let pause_at = (expected.retired * pause_permille / 1000).max(1);
        let exit = vm.run(pause_at, &mut NullSink);
        prop_assert_eq!(exit, VmExit::Budget);
        prop_assert!(
            vm.v_instructions() <= pause_at + max_overshoot,
            "pause overshot past a fragment boundary: {} > {pause_at} + {max_overshoot}",
            vm.v_instructions()
        );

        // Demote every region while its loop is (potentially) mid-flight.
        demote_regions(&mut vm);
        prop_assert_eq!(vm.cache().fragments().filter(|f| f.is_region).count(), 0);

        // Resume to the halt: the boundary the pause landed on must have
        // been architecturally precise, or the tail diverges.
        let exit = vm.run(w.budget * 2, &mut NullSink);
        prop_assert!(vm.violations().is_empty(), "violations after demotion: {:?}", vm.violations());
        expected
            .check(&EndState::of(&vm, &exit))
            .map_err(TestCaseError::fail)?;
    }
}

/// Deterministic coverage companion for the property test: by the
/// midpoint of a bzip2 run at this trigger, regions must actually have
/// been promoted, so the demotion property exercises real regions.
#[test]
fn regions_exist_by_midpoint_for_the_demotion_property() {
    let w = by_name("bzip2", 2).expect("bzip2 workload");
    let expected = reference(&w.program, w.budget * 2).expect("reference");
    let mut vm = Vm::new(
        region_config(IsaForm::Basic, ChainPolicy::SwPredDualRas),
        &w.program,
    );
    let exit = vm.run((expected.retired / 2).max(1), &mut NullSink);
    assert_eq!(exit, VmExit::Budget);
    assert!(
        vm.stats().regions_formed > 0,
        "no region formed by the bzip2 midpoint (trigger {TRIGGER}) — \
         the demotion property is running against nothing"
    );
    assert!(demote_regions(&mut vm) > 0, "no region fragment to demote");
}
