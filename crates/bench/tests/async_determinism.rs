//! Determinism gate for the background translation pipeline: for every
//! workload × ISA form, a VM running with asynchronous translation (the
//! default) must reach the exact same final architected state — all 32
//! GPRs, memory contents, console output, and retired V-instruction
//! count — as a VM translating synchronously, and as the shared-cache
//! warm-start path. Install *timing* is the only thing the pipeline is
//! allowed to change.

use ildp_core::{ChainPolicy, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::sync::Arc;

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

            let mut sync_vm = Vm::new(config(form, false), &w.program);
            let sync_exit = sync_vm.run(budget, &mut NullSink);
            assert_eq!(sync_exit, VmExit::Halted, "{what}: sync run");

            let mut async_vm = Vm::new(config(form, true), &w.program);
            let async_exit = async_vm.run(budget, &mut NullSink);
            assert_eq!(async_exit, sync_exit, "{what}: exit diverged");
            assert_eq!(
                async_vm.cpu().registers(),
                sync_vm.cpu().registers(),
                "{what}: GPRs diverged"
            );
            assert_eq!(
                async_vm.memory().content_digest(),
                sync_vm.memory().content_digest(),
                "{what}: memory diverged"
            );
            assert_eq!(
                async_vm.output(),
                sync_vm.output(),
                "{what}: console output diverged"
            );
            assert_eq!(
                async_vm.v_instructions(),
                sync_vm.v_instructions(),
                "{what}: retired count diverged"
            );
        }
    }
}

#[test]
fn warm_start_is_architecturally_invisible() {
    for w in suite(1) {
        let form = IsaForm::Modified;
        let what = format!("{} warm start", w.name);
        let budget = w.budget * 2;

        let mut reference = Vm::new(config(form, false), &w.program);
        assert_eq!(reference.run(budget, &mut NullSink), VmExit::Halted);

        let store = Arc::new(FragmentStore::new());
        let mut cold = Vm::new(config(form, false), &w.program);
        cold.attach_store(Arc::clone(&store));
        assert_eq!(cold.run(budget, &mut NullSink), VmExit::Halted);

        let mut warm = Vm::new(config(form, false), &w.program);
        warm.attach_store(Arc::clone(&store));
        assert_eq!(warm.run(budget, &mut NullSink), VmExit::Halted);
        assert!(
            warm.stats().warm_hits > 0 || cold.stats().warm_stores == 0,
            "{what}: store populated but never hit"
        );
        for (vm, label) in [(&cold, "cold"), (&warm, "warm")] {
            assert_eq!(
                vm.cpu().registers(),
                reference.cpu().registers(),
                "{what}: {label} GPRs diverged"
            );
            assert_eq!(
                vm.memory().content_digest(),
                reference.memory().content_digest(),
                "{what}: {label} memory diverged"
            );
            assert_eq!(
                vm.output(),
                reference.output(),
                "{what}: {label} output diverged"
            );
            assert_eq!(
                vm.v_instructions(),
                reference.v_instructions(),
                "{what}: {label} retired count diverged"
            );
        }
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
        .collect();
    for round in 0..8 {
        for w in &workloads {
            for form in [IsaForm::Basic, IsaForm::Modified] {
                let what = format!("{} ({form:?}) round {round}", w.name);
                let mut cfg = config(form, true);
                cfg.engine.region_trigger = Some(64);
                let budget = w.budget * 2;
                let mut recorded = Vm::new(cfg, &w.program);
                assert_eq!(recorded.run(budget, &mut NullSink), VmExit::Halted);
                let events = recorded.take_bg_events();
                let mut replayed = Vm::new(
                    VmConfig {
                        async_translate: false,
                        ..cfg
                    },
                    &w.program,
                );
                replayed.set_install_schedule(&events);
                assert_eq!(replayed.run(budget, &mut NullSink), VmExit::Halted);
                assert_eq!(replayed.bg_events(), events.as_slice(), "{what}");
                assert_eq!(
                    replayed.cpu().registers(),
                    recorded.cpu().registers(),
                    "{what}"
                );
            }
        }
    }
}
