//! `lint chaos`: every matrix cell runs a capacity-bounded, fuel-limited
//! VM while [`crate::chaos`] deterministically corrupts the translation
//! cache at chunk boundaries: severed and misdirected direct links,
//! poisoned branch targets, corrupted entry shapes, cache-epoch flips,
//! and external stores into translated source pages. Every structural
//! corruption must be flagged by the C01–C07 installed-fragment audit and
//! healed, and every run must halt interpreter-identical. Delayed-install
//! cells (one per workload × form) send translations to a private pool
//! that installs them at count anchors, and add dropped installs.
//!
//! Cells are named `workload:form:chain:seed[:dDELAY]`. `--repro <spec>`
//! re-runs one cell and verifies its record→replay; `--seed <n>` runs
//! every cell with that one seed. `ILDP_CHAOS_SEEDS` sets the seeds per
//! cell (default 1). A sweep must reach 500 injections.

use super::{cells, CellSpec, LintArgs, LintReport};
use crate::chaos::{chaos_cell_recorded, chaos_replay, ChaosReport};
use ildp_core::ChainPolicy;
use spec_workloads::Workload;

/// Injections below which the sweep's "0 undetected" verdict is vacuous.
const INJECTION_FLOOR: u64 = 500;

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let report = match args.repro_cell(true, true)? {
        Some(spec) => repro(args, spec),
        None => sweep(args),
    };
    for f in &report.failures {
        if f.repro {
            println!("triage: triage --chaos {} -o fail.repro", f.cell);
        }
    }
    Ok(report)
}

/// Re-runs one recorded cell, then verifies the recorded envelope replays
/// to the identical tally.
fn repro(args: &LintArgs, spec: CellSpec) -> LintReport {
    let mut report = LintReport::default();
    let w = spec.workload(args.scale);
    let seed = spec.seed.expect("chaos cells are seeded");
    println!("chaos: re-running cell {spec}");
    let (res, log) = chaos_cell_recorded(&w, spec.form, spec.chain, seed, spec.delay);
    let tally = match res {
        Ok(t) => t,
        Err(e) => {
            report.fail(spec.to_string(), vec![e]);
            return report;
        }
    };
    println!(
        "cell passed: {} injections, {} healed, {} undetected",
        tally.injections, tally.healed, tally.undetected
    );
    match chaos_replay(&w, spec.form, spec.chain, &log, spec.delay) {
        Ok(replayed) if replayed == tally => {
            println!("record/replay verified: replayed tally identical");
        }
        Ok(_) => report.fail(
            spec.to_string(),
            vec!["replayed tally differs from recorded run".to_string()],
        ),
        Err(e) => report.fail(
            spec.to_string(),
            vec![format!("replay failed where recording passed: {e}")],
        ),
    }
    report
}

fn sweep(args: &LintArgs) -> LintReport {
    let seeds: u64 = std::env::var("ILDP_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut report = LintReport::default();
    let mut total = ChaosReport::default();
    let mut cell_index = 0u64;
    // Runs one cell under every seed, filing each divergent seed.
    let mut run_cell = |w: &Workload, form, chain, delayed: bool, report: &mut LintReport| {
        let mut cell_total = ChaosReport::default();
        for s in 0..seeds {
            cell_index += 1;
            let seed = args.seed.unwrap_or(cell_index * 1000 + s);
            // Delayed-install cells install pool translations a
            // seed-varied number of retired instructions after their
            // submission, and the injection mix adds staged-region drops:
            // late, dropped and after-demotion installs must all contain
            // cleanly.
            let delay = delayed.then_some(64 + (seed % 7) * 37);
            match chaos_cell_recorded(w, form, chain, seed, delay).0 {
                Ok(r) => cell_total.merge(&r),
                Err(error) => {
                    let spec = CellSpec {
                        workload: w.name,
                        form,
                        chain,
                        seed: Some(seed),
                        delay,
                    };
                    report.fail(spec.to_string(), vec![error]);
                }
            }
        }
        total.merge(&cell_total);
        cell_total
    };

    for (w, form, chain, _) in cells(args.scale) {
        let cell_total = run_cell(&w, form, chain, false, &mut report);
        println!(
            "{:<10} {:>8} {:<14} {:>4} injected  {:>3} healed  {:>2} undetected",
            w.name,
            format!("{form:?}").to_lowercase(),
            chain.label(),
            cell_total.injections,
            cell_total.healed,
            cell_total.undetected,
        );
    }
    for (w, form, chain, _) in cells(args.scale).filter(|c| c.2 == ChainPolicy::SwPredDualRas) {
        let cell_total = run_cell(&w, form, chain, true, &mut report);
        println!(
            "{:<10} {:>8} {:<14} {:>4} injected  {:>3} healed  {:>2} undetected  ({} staged drops)",
            w.name,
            format!("{form:?}").to_lowercase(),
            "delayed",
            cell_total.injections,
            cell_total.healed,
            cell_total.undetected,
            cell_total.staged_drops,
        );
    }

    println!(
        "\nchaos: {} injections ({} link-clear, {} link-poison, \
         {} target-poison, {} vpc, {} epoch-flip, {} code-write, \
         {} staged-drop), {} fragments healed, {} undetected, \
         {} divergences",
        total.injections,
        total.link_clears,
        total.link_poisons,
        total.target_poisons,
        total.vpc_corruptions,
        total.epoch_flips,
        total.code_writes,
        total.staged_drops,
        total.healed,
        total.undetected,
        report.failures.len(),
    );
    if total.injections < INJECTION_FLOOR {
        report.fail_gate(
            "floor",
            vec![format!(
                "only {} injections (< {INJECTION_FLOOR}); raise ILDP_CHAOS_SEEDS",
                total.injections
            )],
        );
    }
    report
        .extra("injections", total.injections)
        .extra("undetected", total.undetected);
    report
}
