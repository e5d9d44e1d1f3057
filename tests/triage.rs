//! Divergence-triage integration tests: the run triage monitors is the
//! plain cell, a clean cell triages to nothing, a deliberately seeded
//! translator miscompile triages to the same first-divergent fragment
//! across repeated runs, and the `.repro` bundle round-trips through its
//! wire format to the same verdict, while an older version is refused.

use alpha_isa::Program;
use ildp_bench::chaos::{cell_config, run_cell, CellRun};
use ildp_bench::triage::{monitor, triage_run, Divergence, RegDiff, ReproBundle, Sabotage};
use ildp_core::{oracle, wire, ChainPolicy, NullSink, SnapshotError, Vm};
use ildp_isa::IsaForm;
use spec_workloads::by_name;

#[test]
fn triage_monitors_the_plain_cell() {
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
        let run = CellRun::chaos(&w, form, chain, seed, delay);
        let plain = run_cell(&w, &run).expect("cell should pass");
        assert!(plain.report.injections > 0, "{name}: cell injected nothing");
        let retired = oracle::reference(&w.program, run.budget).unwrap().retired;
        // Checkpoints ride on the driver's own pauses, so watching the
        // run leaves it unchanged.
        let monitored = monitor(&w.program, &run, retired, 1);
        assert!(!monitored.diverged, "{name}: monitored run diverged");
        assert_eq!(monitored.report, plain.report, "{name}: tally differs");
        assert_eq!(monitored.end, plain.end, "{name}: end state differs");
    }
}

#[test]
fn clean_run_triages_to_none() {
    let w = by_name("gzip", 1).unwrap();
    let run = CellRun::new(&w, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let res = triage_run(&w.program, &run, 500, "gzip").expect("clean triage run should not error");
    assert!(res.is_none(), "clean run reported a divergence");
}

#[test]
fn seeded_miscompile_triages_deterministically() {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let w = by_name("gzip", 1).unwrap();
    let clean = CellRun::new(&w, form, chain);
    // Enumerate sabotage candidates from a clean run's live fragments.
    let mut vm = Vm::new(cell_config(form, chain), &w.program);
    vm.run(clean.budget, &mut NullSink);
    let mut vstarts: Vec<u64> = vm.cache().fragments().map(|f| f.vstart).collect();
    vstarts.sort_unstable();
    assert!(!vstarts.is_empty(), "clean run translated nothing");

    let run_for = |vstart: u64| CellRun {
        sabotage: vec![Sabotage {
            vstart,
            slot: 0,
            imm_xor: 1,
        }],
        ..clean.clone()
    };
    // The first candidate whose corrupted immediate actually changes the
    // architected outcome.
    let (vstart, result) = vstarts
        .iter()
        .find_map(|&vs| {
            triage_run(&w.program, &run_for(vs), 500, "gzip")
                .unwrap()
                .map(|r| (vs, r))
        })
        .expect("no sabotage candidate produced a divergence");

    // The triage verdict must reproduce identically across repeated runs.
    for _ in 0..2 {
        let again = triage_run(&w.program, &run_for(vstart), 500, "gzip")
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
    let bundle = ReproBundle::from_bytes(&result.bundle.to_bytes()).expect("bundle wire roundtrip");
    assert_eq!(bundle, result.bundle);
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

#[test]
fn bundle_roundtrips_and_refuses_the_previous_version() {
    let w = by_name("gzip", 1).unwrap();
    // Every field the wire carries, data segments, seed and delay
    // included.
    let bundle = ReproBundle {
        workload: "gzip".to_string(),
        program: Program::new(0x1_0000, vec![0x47ff_041f, 0x0000_0000])
            .with_entry(0x1_0004)
            .with_initial_sp(0x7000_0000)
            .with_data(0x2_0000, vec![1, 2, 3]),
        run: CellRun {
            sabotage: vec![Sabotage {
                vstart: 0x1_0000,
                slot: 3,
                imm_xor: 0x8001,
            }],
            ..CellRun::chaos(&w, IsaForm::Basic, ChainPolicy::SwPred, 7001, Some(64))
        },
        checkpoint: 507,
        expected: Divergence {
            v_insts: 515,
            entry_vstart: 0x1_0000,
            entry_translated: true,
            pc_expected: 0x1_0008,
            pc_actual: 0x1_0008,
            pc_compared: true,
            regs: vec![RegDiff {
                index: 4,
                expected: 0x1f80,
                actual: 0xfc0,
            }],
            mem_expected: 1,
            mem_actual: 2,
            output_diverged: false,
            abnormal_exit: false,
        },
    };
    let bytes = bundle.to_bytes();
    assert_eq!(ReproBundle::from_bytes(&bytes), Ok(bundle));
    // A version-3 bundle carried a snapshot and a replay log instead of
    // the cell: re-sealed under its own version, it is refused as skew.
    let mut old = bytes;
    old[4] = 3;
    let body_len = old.len() - 8;
    let checksum = wire::checksum(&old[..body_len]);
    old[body_len..].copy_from_slice(&checksum.to_le_bytes());
    assert_eq!(
        ReproBundle::from_bytes(&old),
        Err(SnapshotError::BadVersion { version: 3 })
    );
}
