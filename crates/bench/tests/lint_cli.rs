//! Command-line contract of the `lint` binary at `ILDP_SCALE=1`: usage
//! errors exit 2 before anything runs, and a `--repro` cell re-runs alone.

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .env("ILDP_SCALE", "1")
        .output()
        .expect("lint runs")
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["nope"][..],
        &["verify", "--seed", "1"],
        &["chaos", "pool", "--repro", "gzip:basic:no_pred:1"],
        &["--seed"],
    ] {
        assert_eq!(lint(args).status.code(), Some(2), "lint {args:?}");
    }
}

#[test]
fn repro_cells_rerun_alone() {
    assert_eq!(
        lint(&["verify", "--repro", "gzip:basic:no_pred"])
            .status
            .code(),
        Some(0)
    );
    let out = lint(&["chaos", "--repro", "gzip:modified:sw_pred.ras:7001:d64"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rerun verified"), "{stdout}");
}
