//! The `lint` families inside tier-1: each test runs one family at scale
//! 1 through the library the `lint` binary wraps, requires it to pass,
//! and pins its deterministic totals.
//!
//! Installs are count-anchored, so the pool family's install count is a
//! pure function of the suite and the sweep seed however its faults land.
//! Its other counters (timeouts, sheds, respawns, lock recoveries, and
//! under the saturating scenario which fault-plan entries a worker ever
//! runs) are timing by nature and stay out of the pins.

use ildp_bench::lint::{LintArgs, FAMILIES};

/// Runs the named family at scale 1, requires it to pass, and returns its
/// counters.
fn run_family(name: &str) -> Vec<(&'static str, u64)> {
    let family = FAMILIES
        .iter()
        .find(|f| f.name == name)
        .expect("known family");
    let args = LintArgs {
        scale: 1,
        seed: None,
        repro: None,
    };
    let report = (family.run)(&args).expect("no usage error");
    assert!(
        report.is_clean(),
        "{name} failed: {}",
        report.to_json(name, 1)
    );
    report.extras
}

/// The counter `key` of a family's report.
fn extra(extras: &[(&'static str, u64)], key: &str) -> u64 {
    extras
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no counter {key}"))
        .1
}

#[test]
fn lint_verify_passes_with_pinned_totals() {
    let extras = run_family("verify");
    assert_eq!(
        extras,
        [
            ("fragments_verified", 315),
            ("fragments", 306),
            ("resolved_edges", 360),
            ("dead_copy_outs", 0),
            ("redundant_seam_pairs", 67),
            ("seeds", 10),
            ("undetected", 0),
        ]
    );
}

#[test]
fn lint_chaos_passes_with_pinned_totals() {
    let extras = run_family("chaos");
    assert_eq!(
        extras,
        [
            ("injections", 1303),
            ("undetected", 0),
            ("healed", 689),
            ("staged_drops", 26),
        ]
    );
}

#[test]
fn lint_store_passes_with_pinned_totals() {
    let extras = run_family("store");
    assert_eq!(
        extras,
        [
            ("injections", 218),
            ("undetected", 0),
            ("quarantined", 176),
            ("load_rejects", 53),
        ]
    );
}

#[test]
fn lint_region_passes_with_pinned_totals() {
    let extras = run_family("region");
    assert_eq!(
        extras,
        [
            ("regions_formed", 99),
            ("region_entries", 87_912),
            ("seam_pairs_eliminated", 99),
            ("regions_verified", 99),
            ("seeds", 9),
            ("undetected", 0),
        ]
    );
}

#[test]
fn lint_pool_passes_with_pinned_totals() {
    let extras = run_family("pool");
    let pinned: Vec<u64> = ["checks", "installs", "undetected"]
        .iter()
        .map(|key| extra(&extras, key))
        .collect();
    assert_eq!(pinned, [72, 3848, 0], "checks, installs, undetected");
}

#[test]
fn lint_replay_passes_with_pinned_totals() {
    let extras = run_family("replay");
    assert_eq!(extras, [("checks", 98), ("region_events", 45)]);
}
