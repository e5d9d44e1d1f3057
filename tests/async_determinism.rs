//! Determinism gate for the background translation pipeline: for every
//! workload × ISA form, a VM running with asynchronous translation (the
//! default), a VM translating synchronously, and the shared-cache
//! warm-start path must all pass the oracle against the same
//! pure-interpreter reference. Install *timing* is the only thing the
//! pipeline is allowed to change.

use ildp_core::oracle::{reference, EndState};
use ildp_core::{ChainPolicy, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::sync::Arc;

/// Panics with the first difference unless `vm`, stopped with `exit`,
/// ended exactly like `expected`.
fn assert_matches(expected: &EndState, vm: &Vm, exit: VmExit, what: &str) {
    if let Err(e) = expected.check(&EndState::of(vm, &exit)) {
        panic!("{what}: {e}");
    }
}

fn config(form: IsaForm, async_translate: bool) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        async_translate,
        ..VmConfig::default()
    }
}

#[test]
fn async_pipeline_is_architecturally_invisible() {
    for w in suite(1) {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            let what = format!("{} ({form:?})", w.name);
            let budget = w.budget * 2;
            let expected = reference(&w.program, budget).unwrap();
            for async_translate in [false, true] {
                let mut vm = Vm::new(config(form, async_translate), &w.program);
                let exit = vm.run(budget, &mut NullSink);
                let mode = if async_translate { "async" } else { "sync" };
                assert_matches(&expected, &vm, exit, &format!("{what} {mode}"));
            }
        }
    }
}

#[test]
fn warm_start_is_architecturally_invisible() {
    for w in suite(1) {
        let form = IsaForm::Modified;
        let what = format!("{} warm start", w.name);
        let budget = w.budget * 2;
        let expected = reference(&w.program, budget).unwrap();

        let store = Arc::new(FragmentStore::new());
        let mut cold = Vm::new(config(form, false), &w.program);
        cold.attach_store(Arc::clone(&store));
        let exit = cold.run(budget, &mut NullSink);
        assert_matches(&expected, &cold, exit, &format!("{what}: cold"));

        let mut warm = Vm::new(config(form, false), &w.program);
        warm.attach_store(Arc::clone(&store));
        let exit = warm.run(budget, &mut NullSink);
        assert_matches(&expected, &warm, exit, &format!("{what}: warm"));
        assert!(
            warm.stats().warm_hits > 0 || cold.stats().warm_stores == 0,
            "{what}: store populated but never hit"
        );
    }
}

/// Region promotion fires at zero-progress engine exits, so the VM can
/// pass its safe point twice at one retired count. An asynchronous
/// recording must anchor its installs so that a scheduled replay, which
/// applies each event at the first safe point reaching its anchor,
/// re-derives the same promotions. Reply timing varies from run to run,
/// so the check repeats the recording.
#[test]
fn region_promotion_replays_under_any_reply_timing() {
    let workloads: Vec<_> = suite(1)
        .into_iter()
        .filter(|w| ["bzip2", "vortex"].contains(&w.name))
        .map(|w| {
            let expected = reference(&w.program, w.budget * 2).unwrap();
            (w, expected)
        })
        .collect();
    for round in 0..8 {
        for (w, expected) in &workloads {
            for form in [IsaForm::Basic, IsaForm::Modified] {
                let what = format!("{} ({form:?}) round {round}", w.name);
                let mut cfg = config(form, true);
                cfg.engine.region_trigger = Some(64);
                let budget = w.budget * 2;
                let mut recorded = Vm::new(cfg, &w.program);
                let exit = recorded.run(budget, &mut NullSink);
                assert_matches(expected, &recorded, exit, &format!("{what}: recorded"));
                let events = recorded.take_bg_events();
                let mut replayed = Vm::new(
                    VmConfig {
                        async_translate: false,
                        ..cfg
                    },
                    &w.program,
                );
                replayed.set_install_schedule(&events);
                let exit = replayed.run(budget, &mut NullSink);
                assert_matches(expected, &replayed, exit, &format!("{what}: replayed"));
                assert_eq!(replayed.bg_events(), events.as_slice(), "{what}");
            }
        }
    }
}
