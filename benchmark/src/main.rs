//! Command line of the repository benchmark.

use ildp_benchmark::bench::{self, Options, END_TO_END, PER_LAYER};
use ildp_benchmark::workload::{Kind, Sizes};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload <loops|calls|cold|warm> [--seed N] [--seconds S] [--trace 0|1]
  benchmark run   [--seed N] [--seconds S]   every workload, each in its own process
  benchmark trace [--seed N] [--seconds S]   the same, traced
  benchmark smoke [--seed N]                 every workload, reduced sizes, one pass";

struct Flags {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                f.workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                f.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                f.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not in 0..=3600"))?;
            }
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "smoke")) => (m, &args[1..]),
        _ => ("workload", &args[..]),
    };
    let flags = match parse(rest) {
        Ok(f) if mode != "workload" || f.workload.is_some() => f,
        Ok(_) => return usage("--workload is required"),
        Err(e) => return usage(&e),
    };
    match mode {
        "run" => every_workload(&flags, false),
        "trace" => every_workload(&flags, true),
        "smoke" => smoke(flags.seed),
        _ => one_workload(&flags),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("benchmark: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// One workload in this process; the last stdout line is the result.
fn one_workload(f: &Flags) -> ExitCode {
    let kind = f.workload.expect("checked by main");
    let opts = Options {
        kind,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        sizes: Sizes::FULL,
        setup_reps: 3,
    };
    let mut o = match bench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if f.trace { &PER_LAYER } else { &END_TO_END };
    for name in bench::missing(&o, names) {
        o.problems.push(format!("metric {name} was not measured"));
    }
    for (name, unit) in names {
        if let Some(v) = o.metrics.get(name) {
            println!("  {name:<38} {v:>16.4} {unit}");
        }
    }
    for p in &o.problems {
        println!("  FAIL {p}");
    }
    println!("{}", bench::json_line(&o, names));
    ExitCode::SUCCESS
}

/// Every workload, each in a child process of this binary, so no
/// workload's memory or threads leak into another's numbers.
fn every_workload(f: &Flags, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let out = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &f.seed.to_string()])
            .args(["--seconds", &f.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let last = text.lines().last().unwrap_or("");
                ok &= out.status.success() && last.contains("\"correct\": true");
            }
            Err(e) => {
                eprintln!("benchmark: running {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at reduced size, one untraced and one traced pass,
/// oracle on. Fails on any failed run, fired gate, or missing metric.
fn smoke(seed: u64) -> ExitCode {
    let t = Instant::now();
    let mut ok = true;
    for kind in Kind::ALL {
        let opts = Options {
            kind,
            seed,
            seconds: 0.0,
            trace: true,
            sizes: Sizes::SMOKE,
            setup_reps: 1,
        };
        match bench::run(&opts) {
            Ok(o) => {
                let mut missing = bench::missing(&o, &END_TO_END);
                missing.extend(bench::missing(&o, &PER_LAYER));
                let good = o.correct() && missing.is_empty();
                ok &= good;
                println!(
                    "smoke {}: {} ({} runs, {} failed; missing metrics {missing:?}; {:?})",
                    kind.name(),
                    if good { "ok" } else { "FAIL" },
                    o.attempted,
                    o.failed,
                    o.problems
                );
            }
            Err(e) => {
                ok = false;
                println!("smoke {}: FAIL ({e})", kind.name());
            }
        }
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "ok" } else { "FAIL" },
        t.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
