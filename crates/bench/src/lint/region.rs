//! `lint region`: profile-guided region re-formation, in two phases.
//!
//! 1. **Differential matrix**: every matrix cell runs with region
//!    re-formation forced on (a low promotion trigger so merging happens
//!    even at lint scale) and the full install gate recording
//!    violations on the VM, and must halt interpreter-identical; the
//!    gate must record nothing and the installed cache must pass the
//!    whole-cache dataflow audit. The matrix as a whole must form
//!    regions (a run where no promotion fires tests nothing).
//! 2. **Seeded detection**: every region-specific seeded miscompile
//!    ([`crate::miscompile::region_seeds`]: poisoned interior seam exits,
//!    rebound backedges, wrong seam copies, dropped recovery inside an
//!    unrolled iteration, truncated tails) must be detected by the
//!    install gate (`verify_translation`).

use super::{check_seeds, recording_config, LintArgs, LintReport};
use crate::miscompile::region_seeds;
use ildp_core::oracle::{self, EndState};
use ildp_core::{ChainPolicy, NullSink, Vm};
use ildp_isa::IsaForm;
use ildp_verifier::{flow, full_validator, verify_translation};
use spec_workloads::Workload;

/// Promotion trigger for the lint matrix: low enough that every loop
/// the suite keeps warm crosses it at lint scale, so region formation
/// is actually exercised.
const LINT_TRIGGER: u64 = 64;

/// One cell's observable outcome plus region/verification accounting.
struct CellResult {
    diverged: Vec<String>,
    violations: Vec<String>,
    regions_formed: u64,
    region_entries: u64,
    seams_eliminated: u64,
    regions_verified: u64,
}

/// Runs one matrix cell: region-enabled VM vs the interpreter.
fn run_cell(workload: &Workload, form: IsaForm, chain: ChainPolicy) -> CellResult {
    let mut config = recording_config(form, chain, full_validator);
    config.engine.region_trigger = Some(LINT_TRIGGER);
    let budget = workload.budget * 2;
    let mut vm = Vm::new(config, &workload.program);
    let exit = vm.run(budget, &mut NullSink);
    let mut violations: Vec<String> = vm.violations().iter().map(|(_, m)| m.clone()).collect();
    let (cache_violations, _seam) = flow::check_cache(vm.cache(), Some(chain));
    violations.extend(cache_violations.iter().map(|v| v.to_string()));

    let diverged: Vec<String> = oracle::reference(&workload.program, budget)
        .and_then(|r| r.check(&EndState::of(&vm, &exit)))
        .err()
        .into_iter()
        .collect();
    let stats = vm.stats();
    CellResult {
        diverged,
        violations,
        regions_formed: stats.regions_formed,
        region_entries: stats.engine.region_entries,
        seams_eliminated: stats.seam_pairs_eliminated,
        regions_verified: stats.regions_verified,
    }
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut regions_formed = 0u64;
    let mut region_entries = 0u64;
    let mut seams_eliminated = 0u64;
    let mut regions_verified = 0u64;
    for (w, form, chain, spec) in args.matrix()? {
        let r = run_cell(&w, form, chain);
        println!(
            "{spec:<40} {:>3} regions {:>9} entries {:>4} seams erased  {:>3} diverged {:>3} violations",
            r.regions_formed,
            r.region_entries,
            r.seams_eliminated,
            r.diverged.len(),
            r.violations.len(),
        );
        for d in &r.diverged {
            println!("    diverged: {d}");
        }
        for v in &r.violations {
            println!("    {v}");
        }
        regions_formed += r.regions_formed;
        region_entries += r.region_entries;
        seams_eliminated += r.seams_eliminated;
        regions_verified += r.regions_verified;
        if !r.diverged.is_empty() || !r.violations.is_empty() {
            let mut details = r.diverged;
            details.extend(r.violations);
            report.fail(spec, details);
        }
    }

    let (mut seeds, mut undetected) = (0, 0);
    if args.repro.is_none() {
        if regions_formed == 0 {
            report.fail_gate(
                "coverage",
                vec![format!(
                    "no regions formed anywhere in the matrix at scale {} \
                     (trigger {LINT_TRIGGER}) — region re-formation was not exercised",
                    args.scale
                )],
            );
        }
        let corpus = region_seeds().into_iter().map(|seed| {
            let (sb, code, tr) = seed.build();
            (seed.name, seed.rule, verify_translation(&sb, &code, &tr))
        });
        (seeds, undetected) = check_seeds(&mut report, corpus);
    }

    println!(
        "\nregion: {regions_formed} regions formed, {region_entries} region entries, \
         {seams_eliminated} seam pairs eliminated, {regions_verified} regions verified; \
         {seeds} seeds, {undetected} undetected"
    );
    report
        .extra("regions_formed", regions_formed)
        .extra("region_entries", region_entries)
        .extra("seam_pairs_eliminated", seams_eliminated)
        .extra("regions_verified", regions_verified)
        .extra("seeds", seeds)
        .extra("undetected", undetected);
    Ok(report)
}
