//! Differential resilience suite for the supervised translation pool:
//! every pool fault class — worker panic mid-request, worker death
//! before the reply, deadline-busting delays, and backpressure
//! saturation — must degrade to synchronous translation or
//! interpretation, with the architected end state identical to a pure
//! interpreter's, across the whole workload suite and both I-ISA forms.
//!
//! Each test runs with a deterministic seeded [`PoolFaults`] plan on a
//! private pool (the process-global pool stays untouched) and a tight
//! [`VmConfig::translate_timeout`] so faults actually trip the deadline
//! within a test-sized run.

use ildp_core::oracle::{reference, EndState};
use ildp_core::{
    silence_injected_panics, ChainPolicy, NullSink, PoolFaultKind, PoolFaults, ProfileConfig,
    TranslatePool, Translator, Vm, VmConfig,
};
use ildp_isa::IsaForm;
use spec_workloads::{suite, Workload};
use std::sync::Arc;
use std::time::Duration;

fn faulted_config(form: IsaForm) -> VmConfig {
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
        // Tight deadline: a delayed or dead worker costs at most this
        // much per VM step before the synchronous fallback kicks in.
        translate_timeout: Duration::from_millis(20),
        ..VmConfig::default()
    }
}

/// Runs `w` under `faults` on a private pool and checks its end state
/// against the interpreter with the oracle. Returns the VM for stats
/// assertions.
fn run_faulted(
    w: &Workload,
    form: IsaForm,
    workers: usize,
    queue_cap: usize,
    faults: PoolFaults,
) -> Vm<'_> {
    silence_injected_panics();
    let expected = reference(&w.program, w.budget * 2).unwrap();
    let pool = TranslatePool::with_options(workers, queue_cap, Some(faults));
    let mut vm = Vm::new(faulted_config(form), &w.program);
    vm.attach_pool(Arc::clone(&pool));
    let exit = vm.run(w.budget * 2, &mut NullSink);
    if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
        panic!("{} ({form:?}) under pool faults: {e}", w.name);
    }
    vm
}

/// Every request panics inside the worker: the contained panic must
/// come back as a structured reply that demotes the region, and the run
/// must stay interpreter-identical.
#[test]
fn panic_mid_request_degrades_cleanly() {
    let mut panics = 0u64;
    for w in &suite(2) {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            let vm = run_faulted(
                w,
                form,
                2,
                64,
                PoolFaults {
                    seed: 0xA11C_E5ED,
                    rate: 1,
                    kinds: vec![PoolFaultKind::Panic],
                    delay: Duration::ZERO,
                },
            );
            panics += vm.stats().pool_panics;
        }
    }
    assert!(
        panics > 0,
        "a rate-1 panic plan never produced a panic reply"
    );
}

/// Every request murders its worker before the reply: the deadline must
/// expire, the supervisor must respawn workers, and the synchronous
/// fallback must carry the run to the interpreter-identical end state.
#[test]
fn worker_death_before_reply_falls_back() {
    let mut timeouts = 0u64;
    let mut respawns = 0u64;
    for w in &suite(2) {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            let vm = run_faulted(
                w,
                form,
                2,
                64,
                PoolFaults {
                    seed: 0xDEAD_0001,
                    rate: 1,
                    kinds: vec![PoolFaultKind::Kill],
                    delay: Duration::ZERO,
                },
            );
            let s = vm.stats();
            timeouts += s.pool_timeouts;
            respawns += s.pool_respawns;
        }
    }
    assert!(timeouts > 0, "killed workers never tripped the deadline");
    assert!(respawns > 0, "the supervisor never respawned a dead worker");
}

/// Workers stall far past the deadline: every await must expire into a
/// synchronous fallback, bounded by the configured timeout.
#[test]
fn timeout_falls_back_to_sync_translation() {
    let mut timeouts = 0u64;
    let mut sync_fallbacks = 0u64;
    for w in &suite(2) {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            let vm = run_faulted(
                w,
                form,
                2,
                64,
                PoolFaults {
                    seed: 0x5107_7AAA,
                    rate: 1,
                    kinds: vec![PoolFaultKind::Delay],
                    delay: Duration::from_millis(200),
                },
            );
            let s = vm.stats();
            timeouts += s.pool_timeouts;
            sync_fallbacks += s.sync_fallbacks;
            // Liveness: no single step blocked far past the deadline
            // (generous slack for loaded CI machines).
            let cap = Duration::from_millis(20 + 250).as_nanos() as u64;
            assert!(
                s.pool_await_max_nanos <= cap,
                "{} ({form:?}): blocked {}ns, deadline+slack {}ns",
                w.name,
                s.pool_await_max_nanos,
                cap
            );
        }
    }
    assert!(timeouts > 0, "200ms delays never tripped a 20ms deadline");
    assert!(sync_fallbacks > 0, "no timeout resolved synchronously");
}

/// A one-slot queue on a single worker saturates immediately: excess
/// submissions must shed to the synchronous path (backpressure), still
/// installing fragments and still interpreter-identical.
#[test]
fn saturation_sheds_to_sync_path() {
    let mut shed = 0u64;
    let mut fragments = 0u64;
    for w in &suite(2) {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            let vm = run_faulted(
                w,
                form,
                1,
                0,
                PoolFaults {
                    seed: 0x5A7_0000,
                    rate: 4,
                    kinds: vec![PoolFaultKind::Delay],
                    delay: Duration::from_millis(50),
                },
            );
            let s = vm.stats();
            shed += s.pool_shed;
            fragments += s.fragments;
        }
    }
    assert!(shed > 0, "a zero-capacity queue never shed a submission");
    assert!(fragments > 0, "shedding must still install translations");
}
