//! Record–replay and divergence-triage integration tests: a recorded
//! chaos cell replays to the identical report, a deliberately seeded
//! translator miscompile triages to the same first-divergent fragment
//! across repeated runs, and the `.repro` bundle round-trips through its
//! wire format to the same verdict.

use ildp_bench::chaos::{cell_config, chaos_cell_recorded, chaos_replay};
use ildp_bench::triage::{paced_run_events, triage_run, ReproBundle};
use ildp_core::{wire, ChainPolicy, NullSink, ReplayEvent, ReplayLog, Sabotage, SnapshotError, Vm};
use ildp_isa::IsaForm;
use spec_workloads::by_name;

#[test]
fn chaos_replay_reproduces_recorded_report() {
    for (name, form, chain, seed, delay) in [
        (
            "gzip",
            IsaForm::Modified,
            ChainPolicy::SwPredDualRas,
            7001,
            None,
        ),
        ("gcc", IsaForm::Basic, ChainPolicy::SwPred, 42, None),
        ("mcf", IsaForm::Modified, ChainPolicy::NoPred, 9_000, None),
        // Delayed-install cell: translations go to a private pool and
        // install at their count anchors, and the injection mix adds
        // staged-region drops.
        (
            "gzip",
            IsaForm::Modified,
            ChainPolicy::SwPredDualRas,
            7001,
            Some(64),
        ),
    ] {
        let w = by_name(name, 1).unwrap();
        let (res, log) = chaos_cell_recorded(&w, form, chain, seed, delay);
        let report = res.expect("recorded cell should pass");
        assert!(report.injections > 0, "{name}: cell injected nothing");
        let replayed = chaos_replay(&w, form, chain, &log, delay).expect("replay should pass");
        assert_eq!(replayed, report, "{name}: replay tally diverged");
        // And again through the wire format: artifact in, same tally out.
        let log2 = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        let replayed2 = chaos_replay(&w, form, chain, &log2, delay).unwrap();
        assert_eq!(replayed2, report, "{name}: wire-roundtrip replay diverged");
    }
}

#[test]
fn clean_run_triages_to_none() {
    let w = by_name("gzip", 1).unwrap();
    let log = ReplayLog {
        seed: 0,
        sabotage: vec![],
        events: vec![ReplayEvent::Run {
            budget: w.budget * 2,
        }],
    };
    let res = triage_run(
        &w.program,
        IsaForm::Modified,
        ChainPolicy::SwPredDualRas,
        None,
        &log,
        500,
        "gzip",
    )
    .expect("clean triage run should not error");
    assert!(res.is_none(), "clean run reported a divergence");
}

#[test]
fn seeded_miscompile_triages_deterministically() {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let w = by_name("gzip", 1).unwrap();
    let budget = w.budget * 2;
    // Enumerate sabotage candidates from a clean run's live fragments.
    let mut vm = Vm::new(cell_config(form, chain), &w.program);
    vm.run(budget, &mut NullSink);
    let mut vstarts: Vec<u64> = vm.cache().fragments().map(|f| f.vstart).collect();
    vstarts.sort_unstable();
    assert!(!vstarts.is_empty(), "clean run translated nothing");

    let log_for = |vstart: u64| ReplayLog {
        seed: 0,
        sabotage: vec![Sabotage {
            vstart,
            slot: 0,
            imm_xor: 1,
        }],
        events: paced_run_events(budget, 500),
    };
    // The first candidate whose corrupted immediate actually changes the
    // architected outcome.
    let (vstart, result) = vstarts
        .iter()
        .find_map(|&vs| {
            triage_run(&w.program, form, chain, None, &log_for(vs), 500, "gzip")
                .unwrap()
                .map(|r| (vs, r))
        })
        .expect("no sabotage candidate produced a divergence");

    // The triage verdict must reproduce identically across repeated runs.
    for _ in 0..2 {
        let again = triage_run(&w.program, form, chain, None, &log_for(vstart), 500, "gzip")
            .unwrap()
            .expect("divergence vanished on re-run");
        assert_eq!(
            again.divergence, result.divergence,
            "triage nondeterministic"
        );
        assert_eq!(again.bundle, result.bundle, "bundle nondeterministic");
    }

    // The bundle survives its wire format and replays to the exact same
    // first-divergent fragment and state diff, repeatedly.
    let bytes = result.bundle.to_bytes();
    let bundle = ReproBundle::from_bytes(&bytes).expect("bundle wire roundtrip");
    assert_eq!(bundle, result.bundle);
    // A bundle of the previous version embeds a log whose retired
    // background-event tags would misread: it is refused as version skew.
    let mut old = bytes.clone();
    old[4] = 2;
    let body_len = old.len() - 8;
    let checksum = wire::checksum(&old[..body_len]);
    old[body_len..].copy_from_slice(&checksum.to_le_bytes());
    assert_eq!(
        ReproBundle::from_bytes(&old),
        Err(SnapshotError::BadVersion { version: 2 })
    );
    for _ in 0..3 {
        let replayed = bundle
            .replay()
            .expect("bundle replay errored")
            .expect("bundle replay found no divergence");
        assert_eq!(
            replayed, bundle.expected,
            "bundle replay diverged from verdict"
        );
    }
}
