//! Determinism gate for the background translation pipeline: for every
//! workload × ISA form, a VM running with asynchronous translation (the
//! default), a VM translating synchronously, and the shared-cache
//! warm-start path must all pass the oracle against the same
//! pure-interpreter reference; and a pool run, faulted or not, must
//! retire exactly what a run without a pool at the same install delay
//! retires.

use ildp_bench::chaos::unfaulted;
use ildp_core::oracle::{reference, EndState};
use ildp_core::{
    silence_injected_panics, ChainPolicy, FragmentStore, NullSink, PoolFaultKind, PoolFaults,
    TranslatePool, Translator, Vm, VmConfig, VmExit, POOL_INSTALL_DELAY,
};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::sync::Arc;
use std::time::Duration;

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

/// Pool installs are count-anchored: a translation submitted to the
/// pool installs at the first safe point at or past its submit count
/// plus the install delay D, and every pool fault falls back to the same
/// code at the same anchor. So a clean pool run, a run without a pool
/// parking its translations for D, and a pool run whose every request
/// panics, loses its reply or is shed all retire identically and count
/// alike, once wall clocks and fault counters are zeroed — with region
/// promotion off and forced hot alike.
#[test]
fn pool_runs_match_synchronous_runs_at_the_same_delay() {
    silence_injected_panics();
    let (mut fallbacks, mut regions) = (0, 0);
    for w in suite(1) {
        let budget = w.budget * 2;
        let expected = reference(&w.program, budget).unwrap();
        for form in [IsaForm::Basic, IsaForm::Modified] {
            for trigger in [None, Some(64)] {
                let what = format!("{} ({form:?}, region trigger {trigger:?})", w.name);
                let mut cfg = config(form, false);
                cfg.engine.region_trigger = trigger;
                cfg.translate_timeout = Duration::from_millis(2);
                let faults = PoolFaults {
                    seed: 0xFA11,
                    rate: 1,
                    kinds: vec![PoolFaultKind::Panic, PoolFaultKind::DropReply],
                    delay: Duration::ZERO,
                };
                let pools = [
                    ("clean pool", Some(TranslatePool::new(1))),
                    ("no pool", None::<Arc<TranslatePool>>),
                    (
                        "faulted pool",
                        Some(TranslatePool::with_options(1, 1, Some(faults))),
                    ),
                ];
                let mut runs = Vec::new();
                for (route, pool) in pools {
                    let mut vm = match pool {
                        Some(pool) => {
                            let mut vm = Vm::new(cfg, &w.program);
                            vm.attach_pool(pool);
                            vm
                        }
                        None => Vm::new(
                            VmConfig {
                                install_delay: Some(POOL_INSTALL_DELAY),
                                ..cfg
                            },
                            &w.program,
                        ),
                    };
                    let exit = vm.run(budget, &mut NullSink);
                    assert_matches(&expected, &vm, exit.clone(), &format!("{what} {route}"));
                    if route == "faulted pool" {
                        fallbacks += vm.stats().sync_fallbacks;
                    }
                    regions += vm.stats().regions_formed;
                    runs.push((route, EndState::of(&vm, &exit), unfaulted(vm.stats())));
                }
                let (_, end, stats) = &runs[0];
                assert!(stats.async_installs > 0, "{what}: nothing went to the pool");
                for (route, other_end, other_stats) in &runs[1..] {
                    assert_eq!(other_end, end, "{what}: {route} end state");
                    assert_eq!(other_stats.engine, stats.engine, "{what}: {route} engine");
                    assert_eq!(other_stats, stats, "{what}: {route} statistics");
                }
            }
        }
    }
    assert!(fallbacks > 0, "the faulted pool never faulted");
    assert!(regions > 0, "no region was ever promoted");
}
