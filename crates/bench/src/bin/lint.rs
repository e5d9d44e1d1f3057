//! `lint` — the lint family: six gates that every translation, fault
//! and replay path must pass (see `ildp_bench::lint`).
//!
//! Usage: `lint [verify|chaos|replay|store|pool|region …] [--seed N] [--repro SPEC]`
//!
//! With no family named, runs all six in order. Exits 1 if any family
//! fails, 2 on a usage error. `--repro` re-runs one failing cell and
//! needs exactly one family; `--seed` replaces the seed schedule of the
//! seeded families (chaos, store, pool) and is refused by the others.
//! Every failure prints the family's JSON report and a `rerun:` line.
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::harness_scale;
use ildp_bench::lint::{Family, LintArgs, FAMILIES};

const USAGE: &str =
    "usage: lint [verify|chaos|replay|store|pool|region …] [--seed N] [--repro SPEC]";

/// Parses the command line into the families to run and their arguments.
fn parse(args: &[String]) -> Result<(Vec<&'static Family>, LintArgs), String> {
    let mut families: Vec<&'static Family> = Vec::new();
    let mut lint = LintArgs {
        scale: harness_scale(),
        seed: None,
        repro: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let n = it.next().and_then(|s| s.parse().ok());
                lint.seed = Some(n.ok_or("--seed needs a number")?);
            }
            "--repro" => lint.repro = Some(it.next().ok_or("--repro needs a cell")?.clone()),
            name => match FAMILIES.iter().find(|f| f.name == name) {
                Some(f) if !families.iter().any(|g| g.name == name) => families.push(f),
                Some(_) => {}
                None => return Err(format!("unknown family or argument {name:?}")),
            },
        }
    }
    if families.is_empty() {
        families = FAMILIES.iter().collect();
    }
    if lint.repro.is_some() && families.len() != 1 {
        return Err("--repro needs exactly one family".to_string());
    }
    if lint.seed.is_some() {
        if let Some(f) = families.iter().find(|f| !f.seeded) {
            return Err(format!("{} takes no --seed", f.name));
        }
    }
    Ok((families, lint))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (families, args) = parse(&args).unwrap_or_else(|e| {
        eprintln!("lint: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let seed_arg = args
        .seed
        .map(|s| format!(" --seed {s}"))
        .unwrap_or_default();
    let mut failed: Vec<&str> = Vec::new();
    for family in &families {
        println!("==== {} ====", family.name);
        let report = (family.run)(&args).unwrap_or_else(|e| {
            eprintln!("lint {}: {e}\n{USAGE}", family.name);
            std::process::exit(2);
        });
        if report.is_clean() {
            println!("==== {}: PASS ====\n", family.name);
            continue;
        }
        failed.push(family.name);
        println!("{}: FAILURE REPORT", family.name);
        println!("{}", report.to_json(family.name, args.scale));
        for f in report.failures.iter().filter(|f| f.repro) {
            println!("rerun: lint {}{seed_arg} --repro {}", family.name, f.cell);
        }
        if report.failures.iter().any(|f| !f.repro) {
            println!("rerun: lint {}{seed_arg}", family.name);
        }
        println!("==== {}: FAIL ====\n", family.name);
    }
    if failed.is_empty() {
        println!("lint: all {} families passed", families.len());
    } else {
        println!("lint: FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}
