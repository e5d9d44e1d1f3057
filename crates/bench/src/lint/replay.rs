//! `lint replay`: snapshot/restore and run-reproduction conformance, in
//! five gates over the suite:
//!
//! 1. **snapshot roundtrip**: every workload × both ISA forms runs to a
//!    mid-run fragment boundary, snapshots (through the wire format), and
//!    restores onto a fresh VM; the resumed run must pass the oracle
//!    against an uninterrupted reference run, with statistics continuing
//!    cumulatively across the seam.
//! 2. **a run is its seed**: one chaos cell per workload (plus one
//!    delayed-install cell, which runs the pool route) run twice must give
//!    the identical tally, end state, engine counters and untimed
//!    statistics.
//! 3. **pool run = run without a pool**: every workload × both ISA forms
//!    runs with the background translation pool; a VM without one, its
//!    translations parked to the same count anchors
//!    ([`ildp_core::POOL_INSTALL_DELAY`]), must reach the identical
//!    architected state and statistics (wall-clock nanos excepted).
//!    Installs are count-anchored, so a pool run reproduces by running
//!    it again; there is no schedule to record.
//! 4. **region equality**: the same with region re-formation forced hot;
//!    the [`RegionEvent`](ildp_core::RegionEvent) witnesses must match.
//!    The matrix as a whole must record at least one region event.
//! 5. **triage bundle roundtrip**: a seeded miscompile must triage to a
//!    `.repro` bundle that survives its wire format and, re-run from the
//!    start, reproduces the identical divergence.
//!
//! The gates have no `--repro` form: a failure re-runs the family.

use super::{form_name, LintArgs, LintReport, ALL_FORMS};
use crate::chaos::{cell_config, rerun_identical, untimed, CellRun};
use crate::triage::{triage_run, ReproBundle, Sabotage};
use ildp_core::oracle::{self, EndState};
use ildp_core::{ChainPolicy, NullSink, Snapshot, Vm, VmConfig, VmExit, POOL_INSTALL_DELAY};
use ildp_isa::IsaForm;
use spec_workloads::{suite, Workload};

/// Runs `w` to a mid-run boundary, snapshots through the wire format,
/// restores, and requires the resumed run to finish exactly like an
/// uninterrupted reference run.
fn snapshot_roundtrip(w: &Workload, form: IsaForm) -> Result<(), String> {
    let cell = format!("{}:{}", w.name, form_name(form));
    let config = VmConfig {
        translator: ildp_core::Translator {
            form,
            ..ildp_core::Translator::default()
        },
        ..VmConfig::default()
    };
    let budget = w.budget * 2;
    let reference = oracle::reference(&w.program, budget).map_err(|e| format!("{cell}: {e}"))?;

    // Pause at (roughly) the midpoint, snapshot, wire-roundtrip, restore.
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run((reference.retired / 2).max(1), &mut NullSink);
    if exit != VmExit::Budget {
        return Err(format!("{cell}: reached {exit:?} before the midpoint"));
    }
    let snap = vm.snapshot();
    let snap = Snapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("{cell}: snapshot wire roundtrip: {e}"))?;
    let mut resumed =
        Vm::restore(config, &w.program, &snap).map_err(|e| format!("{cell}: restore: {e}"))?;
    let exit = resumed.run(budget, &mut NullSink);
    reference
        .check(&EndState::of(&resumed, &exit))
        .map_err(|e| format!("{cell}: resumed run: {e}"))?;
    // Statistics must continue cumulatively across the seam: the resumed
    // run's interpret/execute split covers the whole timeline, so the
    // fallback ratio stays meaningful after restore.
    let s = resumed.stats();
    let total = s.interpreted + s.engine.executed;
    if total < resumed.v_instructions() {
        return Err(format!(
            "{cell}: stats lost continuity across restore \
             (interpreted {} + executed {} < {} retired)",
            s.interpreted,
            s.engine.executed,
            resumed.v_instructions()
        ));
    }
    let ratio = s.interp_fallback_ratio();
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("{cell}: fallback ratio {ratio} out of range"));
    }
    Ok(())
}

/// Two runs of one chaos cell must be identical.
fn rerun(w: &Workload, seed: u64, delay: Option<u64>) -> Result<(), String> {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let cell = format!("{}:{}:{}:{}", w.name, form_name(form), chain.label(), seed);
    let run = CellRun::chaos(w, form, chain, seed, delay);
    rerun_identical(w, &run).map_err(|e| format!("{cell}: {e}"))?;
    Ok(())
}

/// A run with the background pool must equal a run without one at the
/// same install delay: identical end state, region witnesses and
/// statistics (wall-clock nanos excepted). With `region`, re-formation is
/// forced hot. Returns the number of region events recorded.
fn pool_equality(w: &Workload, form: IsaForm, region: bool) -> Result<u64, String> {
    let cell = format!(
        "{}:{}:{}",
        w.name,
        form_name(form),
        if region { "region" } else { "async" }
    );
    let mut config = VmConfig {
        translator: ildp_core::Translator {
            form,
            ..ildp_core::Translator::default()
        },
        ..VmConfig::default()
    };
    if region {
        // Low promotion trigger so region re-formation actually fires at
        // lint scale (the production default waits for thousands of
        // entries).
        config.engine.region_trigger = Some(64);
    }
    let budget = w.budget * 2;
    let mut pooled = Vm::new(config, &w.program);
    let exit = pooled.run(budget, &mut NullSink);
    if exit != VmExit::Halted {
        return Err(format!("{cell}: pool run exited {exit:?}"));
    }
    let mut parked = Vm::new(
        VmConfig {
            async_translate: false,
            install_delay: Some(POOL_INSTALL_DELAY),
            ..config
        },
        &w.program,
    );
    let parked_exit = parked.run(budget, &mut NullSink);
    EndState::of(&pooled, &exit)
        .check(&EndState::of(&parked, &parked_exit))
        .map_err(|e| format!("{cell}: run without a pool: {e}"))?;
    let events = pooled.region_events();
    if parked.region_events() != events {
        return Err(format!(
            "{cell}: region events differ from the run without a pool"
        ));
    }
    if untimed(parked.stats()) != untimed(pooled.stats()) {
        return Err(format!(
            "{cell}: statistics differ from the run without a pool"
        ));
    }
    Ok(events.len() as u64)
}

/// A seeded miscompile must produce a bundle that replays to the exact
/// bundled divergence.
fn triage_bundle_roundtrip(w: &Workload) -> Result<(), String> {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let clean = CellRun::new(w, form, chain);
    let mut vm = Vm::new(cell_config(form, chain), &w.program);
    vm.run(clean.budget, &mut NullSink);
    let mut vstarts: Vec<u64> = vm.cache().fragments().map(|f| f.vstart).collect();
    vstarts.sort_unstable();
    let interval = (w.budget / 128).max(100);
    for vs in vstarts {
        let run = CellRun {
            sabotage: vec![Sabotage {
                vstart: vs,
                slot: 0,
                imm_xor: 1,
            }],
            ..clean.clone()
        };
        let Some(result) = triage_run(&w.program, &run, interval, w.name)
            .map_err(|e| format!("{}: triage: {e}", w.name))?
        else {
            continue; // dead immediate; try the next fragment
        };
        let bundle = ReproBundle::from_bytes(&result.bundle.to_bytes())
            .map_err(|e| format!("{}: bundle wire roundtrip: {e}", w.name))?;
        if bundle != result.bundle {
            return Err(format!("{}: bundle changed across wire roundtrip", w.name));
        }
        let replayed = bundle
            .replay()
            .map_err(|e| format!("{}: bundle replay: {e}", w.name))?
            .ok_or_else(|| format!("{}: bundle replay found no divergence", w.name))?;
        if replayed != bundle.expected {
            return Err(format!(
                "{}: bundle replay diverged from the bundled expectation",
                w.name
            ));
        }
        return Ok(());
    }
    Err(format!(
        "{}: no sabotage candidate produced a divergence",
        w.name
    ))
}

/// Counts one gate check: prints its `ok` line, or files its failure
/// under `gate`.
fn tally(report: &mut LintReport, checks: &mut u64, gate: String, res: Result<String, String>) {
    *checks += 1;
    match res {
        Ok(line) => println!("{line}"),
        Err(e) => {
            println!("FAIL {e}");
            report.fail_gate(gate, vec![e]);
        }
    }
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    if args.repro.is_some() {
        return Err("replay has no --repro: its gates re-run as a whole".to_string());
    }
    let suite = suite(args.scale);
    let mut report = LintReport::default();
    let mut checks = 0u64;
    let r = &mut report;

    for w in &suite {
        let name = w.name;
        for form in ALL_FORMS {
            let f = form_name(form);
            let res = snapshot_roundtrip(w, form);
            let ok = format!("{name:<10} {f:>8} snapshot roundtrip ok");
            tally(
                r,
                &mut checks,
                format!("{name}:{f}:snapshot"),
                res.map(|()| ok),
            );
        }
        let res = rerun(w, 4242, None);
        let ok = format!("{name:<10} two runs of a seed identical ok");
        tally(r, &mut checks, format!("{name}:rerun"), res.map(|()| ok));
        let res = rerun(w, 4242, Some(96));
        let ok = format!("{name:<10} two runs of a seed identical (delayed install) ok");
        let gate = format!("{name}:rerun_delayed");
        tally(r, &mut checks, gate, res.map(|()| ok));
        for form in ALL_FORMS {
            let f = form_name(form);
            let ok = format!("{name:<10} {f:>8} pool run = run without a pool ok");
            let res = pool_equality(w, form, false).map(|_| ok);
            tally(r, &mut checks, format!("{name}:{f}:async"), res);
        }
    }
    // Region equality: every workload × both forms, with matrix-wide
    // coverage (at least one region event somewhere).
    let mut region_events = 0u64;
    for w in &suite {
        for form in ALL_FORMS {
            let f = form_name(form);
            let res = pool_equality(w, form, true).map(|n| {
                region_events += n;
                format!(
                    "{:<10} {f:>8} region pool run = run without a pool ok ({n} region events)",
                    w.name
                )
            });
            tally(r, &mut checks, format!("{}:{f}:region", w.name), res);
        }
    }
    let res = if region_events == 0 {
        Err(
            "no RegionPromote/RegionDrop events recorded anywhere in the matrix \
             — the region-event gate exercised nothing"
                .to_string(),
        )
    } else {
        Ok(format!("region event coverage ok ({region_events} events)"))
    };
    tally(r, &mut checks, "region:coverage".to_string(), res);
    // One triage bundle roundtrip (gzip): the full failing-run → monitor
    // → localize → bundle → replay pipeline.
    let name = suite[0].name;
    let res = triage_bundle_roundtrip(&suite[0]);
    let ok = format!("{name:<10} triage bundle roundtrip ok");
    tally(
        r,
        &mut checks,
        format!("{name}:triage_bundle"),
        res.map(|()| ok),
    );

    println!(
        "\nreplay: {checks} checks, {} failures",
        report.failures.len()
    );
    report
        .extra("checks", checks)
        .extra("region_events", region_events);
    Ok(report)
}
