//! Install-route guard: every way a translation reaches the cache — an
//! inline synchronous translation, a count-anchored delayed install with
//! and without the background pool, a parked translation dropped before
//! its anchor, and a warm start from the fragment store — runs over the
//! scale-1 suite in both ISA forms, and what each run leaves behind
//! hashes to a pinned digest. A pool run must leave exactly what the run
//! without a pool at the same delay leaves.
//!
//! Folded per run: the VM statistics with their wall-clock fields and
//! pool respawns zeroed, the recorded region events, the final
//! registers, the memory digest, the console output and the retired
//! count. A change to
//! the VM's install machinery meant to keep behaviour must leave the
//! digest unchanged; a deliberate change updates the pin in the same
//! commit and says why.

use std::sync::Arc;

use ildp_bench::chaos::untimed;
use ildp_core::{
    wire, ChainPolicy, FragmentStore, NullSink, OnViolation, TranslatePool, Translator, Vm,
    VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use ildp_verifier::{artifact_validator, install_validator};
use spec_workloads::{suite, Workload};

/// The base configuration of every run: synchronous translation,
/// install-time verification with rejection, and a code budget tight
/// enough that eviction binds on the larger workloads.
fn base_config(form: IsaForm) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            ..Translator::default()
        },
        validator: Some(install_validator),
        on_violation: OnViolation::Reject,
        cache_budget: Some(256),
        async_translate: false,
        ..VmConfig::default()
    }
}

fn delayed(form: IsaForm, delay: u64) -> VmConfig {
    VmConfig {
        install_delay: Some(delay),
        ..base_config(form)
    }
}

/// Everything one run leaves behind that must not depend on wall time.
fn outcome(vm: &Vm, exit: &VmExit) -> String {
    format!(
        "{exit:?}|{:?}|{:?}|{:?}|{:#x}|{:?}|{}",
        untimed(vm.stats()),
        vm.region_events(),
        vm.cpu().registers(),
        vm.memory().content_digest(),
        vm.output(),
        vm.v_instructions()
    )
}

/// The architected end state: registers, memory, output, retired count.
fn arch_state(vm: &Vm) -> ([u64; 32], u64, Vec<u8>, u64) {
    (
        vm.cpu().registers(),
        vm.memory().content_digest(),
        vm.output().to_vec(),
        vm.v_instructions(),
    )
}

/// Runs a delay-64 VM in short chunks until a translation is parked,
/// drops it before its anchor, and runs on to the halt (the dropped
/// region re-heats and translates again). Returns the dropped entry
/// address.
fn run_with_staged_drop(vm: &mut Vm, budget: u64) -> (VmExit, Option<u64>) {
    let mut dropped = None;
    loop {
        let exit = vm.run(vm.v_instructions() + 97, &mut NullSink);
        if exit != VmExit::Budget || vm.v_instructions() >= budget {
            return (exit, dropped);
        }
        if let Some(&vstart) = vm.staged_vstarts().first() {
            assert!(vm.drop_staged(vstart));
            dropped = Some(vstart);
            return (vm.run(budget, &mut NullSink), dropped);
        }
    }
}

/// Runs every install route over one workload and form, checks the
/// routes agree architecturally, and returns the folded outcomes.
fn routes(w: &Workload, form: IsaForm, drops: &mut u64) -> String {
    let budget = w.budget * 2;
    let mut text = String::new();

    let store = Arc::new(FragmentStore::new());
    let mut sync = Vm::new(base_config(form), &w.program);
    sync.attach_store(Arc::clone(&store));
    let exit = sync.run(budget, &mut NullSink);
    assert_eq!(exit, VmExit::Halted, "{} sync ({form:?})", w.name);
    text += &outcome(&sync, &exit);
    let arch = arch_state(&sync);
    let same_state = |vm: &Vm, route: &str| {
        assert_eq!(arch_state(vm), arch, "{} {route} ({form:?})", w.name);
    };

    for delay in [1, 64] {
        let mut vm = Vm::new(delayed(form, delay), &w.program);
        let exit = vm.run(budget, &mut NullSink);
        assert_eq!(exit, VmExit::Halted, "{} delay {delay}", w.name);
        same_state(&vm, "delay");
        text += &outcome(&vm, &exit);

        let mut pooled = Vm::new(delayed(form, delay), &w.program);
        pooled.attach_pool(TranslatePool::new(1));
        let pooled_exit = pooled.run(budget, &mut NullSink);
        assert_eq!(
            outcome(&pooled, &pooled_exit),
            outcome(&vm, &exit),
            "{} pool run at delay {delay} diverged",
            w.name
        );
    }

    // The staged drop, on a VM without a pool and on the pool route,
    // where the dropped region's code may still be on the pool.
    let mut vm = Vm::new(delayed(form, 64), &w.program);
    let (exit, dropped) = run_with_staged_drop(&mut vm, budget);
    assert_eq!(exit, VmExit::Halted, "{} staged drop", w.name);
    same_state(&vm, "staged drop");
    *drops += dropped.is_some() as u64;
    text += &format!("{dropped:?}|{}", outcome(&vm, &exit));
    let mut pooled = Vm::new(delayed(form, 64), &w.program);
    pooled.attach_pool(TranslatePool::new(1));
    let pooled_run = run_with_staged_drop(&mut pooled, budget);
    assert_eq!(
        (pooled_run.1, outcome(&pooled, &pooled_run.0)),
        (dropped, outcome(&vm, &exit)),
        "{} staged drop on the pool route diverged",
        w.name
    );

    let mut warm = Vm::new(
        VmConfig {
            store_validator: Some(artifact_validator),
            ..base_config(form)
        },
        &w.program,
    );
    warm.attach_store(store);
    let exit = warm.run(budget, &mut NullSink);
    assert_eq!(exit, VmExit::Halted, "{} warm", w.name);
    same_state(&warm, "warm");
    assert!(
        warm.stats().warm_hits > 0,
        "{}: warm start took nothing",
        w.name
    );
    text += &outcome(&warm, &exit);
    text
}

#[test]
fn install_routes_match_the_pinned_digest() {
    let mut digest = 0u64;
    let mut drops = 0;
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for w in suite(1) {
            let mut bytes = digest.to_le_bytes().to_vec();
            bytes.extend_from_slice(routes(&w, form, &mut drops).as_bytes());
            digest = wire::fnv1a(&bytes);
        }
    }
    assert!(drops > 0, "no staged translation was ever dropped");
    assert_eq!(
        digest, 0x37a2_9ad9_762b_81b7,
        "install routes changed: digest {digest:#018x} ({drops} staged drops)"
    );
}
