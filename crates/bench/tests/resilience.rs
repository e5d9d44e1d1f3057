//! Differential tests for the resilient-cache machinery: bounded
//! eviction, SMC invalidation, the degradation ladder, fuel preemption,
//! and the flush-window reset — each judged by the oracle against a
//! pure-interpreter reference run.

use alpha_isa::parse_program;
use ildp_bench::chaos::chaos_cell;
use ildp_core::oracle::{reference, EndState};
use ildp_core::{
    ChainPolicy, EngineConfig, FlushPolicy, InstallReview, NullSink, OnViolation, ProfileConfig,
    Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use ildp_verifier::verify_installed;
use spec_workloads::suite;

fn base_config(form: IsaForm) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        },
        // These tests assert precise install/eviction/ladder statistics;
        // synchronous translation keeps their timing deterministic.
        // (Async-mode equivalence is covered by tests/async_determinism.rs.)
        async_translate: false,
        ..VmConfig::default()
    }
}

fn assert_state_matches(vm: &Vm, exit: VmExit, reference: &EndState, what: &str) {
    if let Err(e) = reference.check(&EndState::of(vm, &exit)) {
        panic!("{what}: {e}");
    }
}

/// Eviction under a tight code budget preserves architectural state on
/// every workload and both ISA forms, and the surviving cache passes the
/// full C01–C07 installed audit.
#[test]
fn capacity_bounded_runs_match_interpreter() {
    // Fragments encode to ~50–100 bytes each at this scale; a budget of
    // two-ish fragments keeps the clock hand under constant pressure.
    const BUDGET_BYTES: u64 = 128;
    let mut total_evictions = 0u64;
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for w in suite(1) {
            let expected = reference(&w.program, w.budget * 2).unwrap();
            let config = VmConfig {
                cache_budget: Some(BUDGET_BYTES),
                ..base_config(form)
            };
            let mut vm = Vm::new(config, &w.program);
            let exit = vm.run(w.budget * 2, &mut NullSink);
            let what = format!("{} ({form:?}, capacity-bounded)", w.name);
            assert_state_matches(&vm, exit, &expected, &what);
            // The budget actually binds (modulo workloads too small to
            // ever exceed it), and live code respects it up to the one
            // protected (just-installed) fragment.
            let s = vm.stats();
            assert!(
                s.evictions > 0
                    || vm.cache().fragments().count() <= 1
                    || vm.cache().total_code_bytes() <= BUDGET_BYTES,
                "{what}: {} cumulative bytes but no evictions",
                vm.cache().total_code_bytes()
            );
            total_evictions += s.evictions;
            // Post-run chaining audit over every surviving fragment.
            let cache = vm.cache();
            for frag in cache.fragments() {
                let violations = verify_installed(cache, frag);
                assert!(
                    violations.is_empty(),
                    "{what}: audit violations after eviction: {violations:?}"
                );
            }
        }
    }
    assert!(total_evictions > 0, "budget never forced an eviction");
}

fn reject_everything(_review: &InstallReview) -> Result<(), String> {
    Err("fault injection: rejected".to_string())
}

/// A validator that rejects every translation drives each hot region down
/// the ladder to the interpret-only blacklist — and the run still matches
/// the interpreter exactly.
#[test]
fn rejected_translations_blacklist_and_stay_correct() {
    let w = spec_workloads::by_name("gzip", 1).unwrap();
    let expected = reference(&w.program, w.budget * 2).unwrap();
    let config = VmConfig {
        validator: Some(reject_everything),
        on_violation: OnViolation::Reject,
        ..base_config(IsaForm::Modified)
    };
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert_state_matches(&vm, exit, &expected, "reject-all ladder");
    let s = vm.stats();
    assert_eq!(s.fragments, 0, "no rejected translation may install");
    assert!(s.verify_rejected > 0);
    assert!(
        s.demotions > 0 && s.blacklisted > 0,
        "repeated rejection must walk the ladder to the blacklist \
         (demotions {}, blacklisted {})",
        s.demotions,
        s.blacklisted
    );
    assert!(s.interp_fallback_ratio() == 1.0);
}

/// A program whose hot loop stores into its own code page: the engine must
/// catch each store *before* it executes (precise state), invalidate the
/// fragment, and re-raise the store interpretively; repeated invalidation
/// walks the region down the ladder to the blacklist. Architected state
/// still matches the interpreter, for which the stores are ordinary
/// memory writes (fetch reads the immutable program image).
#[test]
fn self_modifying_store_invalidates_and_matches() {
    // The second shape reaches the store through a straightened-away
    // `br`, whose retirement the store carries: stopping in front of the
    // store must still count the branch.
    for (shape, head) in [
        ("direct", "loop:"),
        ("after a br", "loop:   br    store\nstore:"),
    ] {
        let source = format!(
            "
        li    t0, 0x10000       ; this program's own code page
        li    s0, 600
{head}   stq   s1, 0(t0)
        addq  s1, #3, s1
        subq  s0, #1, s0
        bne   s0, loop
        mov   s1, v0
        halt
"
        );
        check_self_modifying(&source, shape);
    }
}

fn check_self_modifying(source: &str, shape: &str) {
    let program = parse_program(source, 0x1_0000).unwrap();
    let expected = reference(&program, 100_000).unwrap();
    for form in [IsaForm::Basic, IsaForm::Modified] {
        let mut vm = Vm::new(base_config(form), &program);
        let exit = vm.run(100_000, &mut NullSink);
        let what = format!("self-modifying stores, {shape} ({form:?})");
        assert_state_matches(&vm, exit, &expected, &what);
        let s = vm.stats();
        assert!(
            s.smc_invalidations >= 2,
            "{what}: loop must be invalidated repeatedly ({})",
            s.smc_invalidations
        );
        assert!(
            s.blacklisted >= 1,
            "{what}: repeated SMC must blacklist the region ({} demotions)",
            s.demotions
        );
    }
}

/// A tiny per-dispatch fuel budget preempts long fragment chains at
/// fragment boundaries; preempted regions are demoted and the run still
/// matches the interpreter.
#[test]
fn fuel_preemption_degrades_and_stays_correct() {
    let w = spec_workloads::by_name("gzip", 1).unwrap();
    let expected = reference(&w.program, w.budget * 2).unwrap();
    let base = base_config(IsaForm::Modified);
    let config = VmConfig {
        engine: EngineConfig {
            fuel: Some(100),
            ..base.engine
        },
        ..base
    };
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert_state_matches(&vm, exit, &expected, "fuel preemption");
    assert!(vm.stats().fuel_preemptions > 0, "fuel never bound");
}

/// An external (embedder-initiated) flush must reset the Dynamo
/// flush-policy window along with the epoch: stale pre-flush timestamps
/// must not combine with post-flush translations into a spurious
/// back-to-back internal flush.
#[test]
fn external_flush_resets_policy_window() {
    let w = spec_workloads::by_name("gzip", 1).unwrap();
    let expected = reference(&w.program, w.budget * 2).unwrap();

    // Calibrate: fragments translated by the midpoint and in total.
    let mut vm = Vm::new(base_config(IsaForm::Modified), &w.program);
    let mid = expected.retired / 2;
    assert_eq!(vm.run(mid, &mut NullSink), VmExit::Budget);
    let f1 = vm.stats().fragments;
    assert_eq!(vm.run(w.budget * 2, &mut NullSink), VmExit::Halted);
    let f_total = vm.stats().fragments;
    assert!(
        f1 >= 1 && f_total > f1,
        "calibration: f1 {f1}, total {f_total}"
    );

    // With stale timestamps surviving the external flush, the whole-run
    // window would see all f_total translations and fire at > f_total - 1;
    // with the epoch-keyed reset it sees only the post-flush ones
    // (f_total - f1 at most, since already-hot regions stay frozen).
    let config = VmConfig {
        flush: Some(FlushPolicy {
            window: u64::MAX,
            max_new_fragments: (f_total - 1) as u32,
        }),
        ..base_config(IsaForm::Modified)
    };
    let mut vm = Vm::new(config, &w.program);
    assert_eq!(vm.run(mid, &mut NullSink), VmExit::Budget);
    vm.cache_mut().flush();
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert_state_matches(&vm, exit, &expected, "external flush");
    assert_eq!(
        vm.stats().cache_flushes,
        0,
        "stale window timestamps double-flushed after the external flush"
    );
}

/// One full chaos cell as part of the ordinary test suite: seeded fault
/// injection with audit-and-heal must contain every fault and converge to
/// the interpreter's final state.
#[test]
fn chaos_cell_smoke() {
    let w = spec_workloads::by_name("gcc", 1).unwrap();
    for chain in [ChainPolicy::NoPred, ChainPolicy::SwPredDualRas] {
        let report = chaos_cell(&w, IsaForm::Modified, chain, 0xC0FFEE, None).unwrap();
        assert!(report.injections > 0, "{chain:?}: nothing was injected");
        assert_eq!(report.undetected, 0);
    }
}
