//! `lint pool`: fault injection into the supervised translation pool.
//!
//! Every matrix cell runs while the pool's seeded
//! [`PoolFaults`](ildp_core::PoolFaults) plan injects worker panics,
//! worker kills, dropped replies, deadline-busting delays, poisoned queue
//! locks, and queue saturation ([`crate::pool`] rotates three scenarios
//! across the chain columns so the sweep covers every fault kind). Every
//! cell must halt interpreter-identical, never block a VM step past
//! `translate_timeout` (+ slack), account every injected fault in the
//! pool/VM ledgers, heal the pool back to full worker strength, and
//! replay bit-identically from its recorded events on a synchronous VM.
//!
//! Cells are named `workload:form:chain:seed`; `--repro <spec>` re-runs
//! one, and `--seed <n>` sets the sweep seed each cell's seed derives
//! from. A default-seed sweep at scale ≥ 10 must land at least
//! [`INJECTION_FLOOR`] injections.

use super::{cells, CellSpec, LintArgs, LintReport};
use crate::pool::{pool_cell, PoolReport};
use spec_workloads::Workload;

/// Minimum injected faults the default-scale sweep must reach for its
/// "0 undetected" verdict to mean anything.
const INJECTION_FLOOR: u64 = 150;

/// The scale below which the injection floor is waived (reduced-scale
/// smoke runs still check containment, just not coverage).
const FLOOR_SCALE: u32 = 10;

/// The sweep seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xB0A7;

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let plan: Box<dyn Iterator<Item = (Workload, CellSpec)>> = match args.repro_cell(true, false)? {
        Some(spec) => Box::new(std::iter::once((spec.workload(args.scale), spec))),
        None => {
            let sweep_seed = args.seed.unwrap_or(DEFAULT_SEED);
            Box::new(
                cells(args.scale)
                    .enumerate()
                    .map(move |(i, (w, form, chain, _))| {
                        let spec = CellSpec {
                            workload: w.name,
                            form,
                            chain,
                            seed: Some(sweep_seed.wrapping_add(i as u64 + 1)),
                            delay: None,
                        };
                        (w, spec)
                    }),
            )
        }
    };

    let mut report = LintReport::default();
    let mut total = PoolReport::default();
    let mut checks = 0u64;
    for (w, spec) in plan {
        checks += 1;
        let seed = spec.seed.expect("pool cells are seeded");
        match pool_cell(&w, spec.form, spec.chain, seed) {
            Ok(r) => {
                total.merge(&r);
                println!(
                    "{:<10} {:>8} {:<14} {:>4} injected  {:>3} timeouts  \
                     {:>3} sheds  {:>2} undetected",
                    w.name,
                    format!("{:?}", spec.form).to_lowercase(),
                    spec.chain.label(),
                    r.injections,
                    r.timeouts,
                    r.sheds,
                    r.undetected,
                );
                if r.undetected > 0 {
                    report.fail(
                        spec.to_string(),
                        vec![format!(
                            "{} injected faults escaped the ledgers: {r:?}",
                            r.undetected
                        )],
                    );
                }
            }
            Err(error) => {
                println!("FAIL {error}");
                report.fail(spec.to_string(), vec![error]);
            }
        }
    }

    // Coverage floor: the default sweep must actually exercise the
    // envelope. Waived under --seed and --repro (exploratory runs) and at
    // reduced scale (smoke runs submit too few regions to guarantee it).
    let sweep = args.seed.is_none() && args.repro.is_none();
    if sweep && args.scale >= FLOOR_SCALE && total.injections < INJECTION_FLOOR {
        report.fail_gate(
            "sweep:floor",
            vec![format!(
                "only {} faults injected, floor is {INJECTION_FLOOR}",
                total.injections
            )],
        );
    }

    println!(
        "\npool: {} cells, {} injections ({} panics, {} kills, \
         {} drops, {} delays, {} poisons, {} saturations), {} timeouts, \
         {} sheds, {} sync fallbacks, {} undetected, {} failures",
        checks,
        total.injections,
        total.panics,
        total.kills,
        total.reply_drops,
        total.delays,
        total.poisons,
        total.saturations,
        total.timeouts,
        total.sheds,
        total.sync_fallbacks,
        total.undetected,
        report.failures.len()
    );
    report
        .extra("checks", checks)
        .extra("injections", total.injections)
        .extra("panics", total.panics)
        .extra("kills", total.kills)
        .extra("reply_drops", total.reply_drops)
        .extra("delays", total.delays)
        .extra("poisons", total.poisons)
        .extra("saturations", total.saturations)
        .extra("respawns", total.respawns)
        .extra("timeouts", total.timeouts)
        .extra("sheds", total.sheds)
        .extra("sync_fallbacks", total.sync_fallbacks)
        .extra("lock_recoveries", total.lock_recoveries)
        .extra("undetected", total.undetected);
    Ok(report)
}
