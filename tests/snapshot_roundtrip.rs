//! Property-based snapshot/restore correctness: any workload, either
//! I-ISA form, paused at an arbitrary fragment boundary, must resume
//! from a wire-roundtripped snapshot on a *fresh* VM (translation cache
//! cold) and pass the oracle against an uninterrupted run — registers,
//! memory contents, console output, retired-instruction count and how
//! the run ended — with execution statistics continuing cumulatively
//! across the seam.

use ildp_core::oracle::EndState;
use ildp_core::{ChainPolicy, NullSink, Snapshot, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use proptest::prelude::*;
use spec_workloads::{by_name, NAMES};

fn config_for(form: IsaForm, chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            ..Translator::default()
        },
        ..VmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_restore_matches_uninterrupted_run(
        widx in 0usize..NAMES.len(),
        modified in any::<bool>(),
        chain_idx in 0usize..3,
        // Pause point as a fraction of the uninterrupted run, strictly
        // inside it.
        num in 1u64..8,
    ) {
        let w = by_name(NAMES[widx], 1).unwrap();
        let form = if modified { IsaForm::Modified } else { IsaForm::Basic };
        let chain = [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain_idx];
        let config = config_for(form, chain);
        let budget = w.budget * 2;

        let mut whole = Vm::new(config, &w.program);
        let exit = whole.run(budget, &mut NullSink);
        prop_assert_eq!(&exit, &VmExit::Halted);
        let expected = EndState::of(&whole, &exit);
        let total = expected.retired;

        // Pause at a boundary at (roughly) num/8 of the run, snapshot
        // through the wire format, restore onto a cold VM, and finish.
        let mut vm = Vm::new(config, &w.program);
        let exit = vm.run((total * num / 8).max(1), &mut NullSink);
        prop_assert_eq!(exit, VmExit::Budget);
        let snap = Snapshot::from_bytes(&vm.snapshot().to_bytes()).unwrap();
        let mut resumed = Vm::restore(config, &w.program, &snap).unwrap();
        prop_assert_eq!(resumed.v_instructions(), snap.v_insts);
        let exit = resumed.run(budget, &mut NullSink);
        expected
            .check(&EndState::of(&resumed, &exit))
            .map_err(TestCaseError::fail)?;

        // Statistics continuity: the resumed run's interpret/execute
        // split accounts for the entire timeline, so the fallback ratio
        // is still a meaningful fraction after the seam.
        let s = resumed.stats();
        prop_assert!(s.interpreted + s.engine.executed >= total);
        let ratio = s.interp_fallback_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));
    }
}
