//! `triage` — divergence triage and `.repro` bundle tooling.
//!
//! Three modes:
//!
//! * `triage --chaos workload:form:chain:seed[:dDELAY] [-o out.repro]`
//!   — records that chaos cell (`:dN` selects the delayed-install
//!   variant, installing translations N retired instructions after
//!   submission); if it
//!   fails, bisects to the first divergent fragment execution and
//!   (with `-o`) writes the minimized `.repro` bundle.
//! * `triage --sabotage workload:form:chain:vstart:slot:xor [-o out.repro]`
//!   — plants a standing translator-miscompile rule (XOR `xor` into the
//!   first immediate at/after `slot` of the fragment installed at
//!   `vstart`), runs, and triages the resulting divergence.
//! * `triage --repro path` — replays a `.repro` bundle and exits 0 iff
//!   the reproduced divergence is identical to the bundled expectation.
//!
//! `vstart`, `slot`, and `xor` accept decimal or `0x` hex.
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::chaos::chaos_cell_recorded;
use ildp_bench::harness_scale;
use ildp_bench::lint::parse_cell_spec;
use ildp_bench::triage::{paced_run_events, triage_run, ReproBundle, TriageResult};
use ildp_core::{ReplayLog, Sabotage};

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad number {s:?}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: triage --chaos workload:form:chain:seed[:dDELAY] [-o out.repro]\n\
         \x20      triage --sabotage workload:form:chain:vstart:slot:xor [-o out.repro]\n\
         \x20      triage --repro path"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("triage: {msg}");
    std::process::exit(2);
}

/// Prints a triage verdict and optionally writes the bundle.
fn deliver(result: TriageResult, out: Option<&str>) -> i32 {
    print!("{}", result.divergence);
    println!(
        "entry checkpoint at v_insts {} ({} events kept, {} sabotage rules)",
        result.bundle.snapshot.v_insts,
        result.bundle.log.events.len(),
        result.bundle.log.sabotage.len()
    );
    if let Some(path) = out {
        let bytes = result.bundle.to_bytes();
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("triage: writing {path}: {e}");
            return 1;
        }
        println!("wrote {} bytes to {path}", bytes.len());
        println!("replay: triage --repro {path}");
    }
    1
}

fn run_chaos(spec: &str, out: Option<&str>) -> i32 {
    let spec = parse_cell_spec(spec).unwrap_or_else(|e| fail(&e));
    let Some(seed) = spec.seed else {
        fail("--chaos wants workload:form:chain:seed[:dDELAY]");
    };
    let w = spec.workload(harness_scale());
    println!("triage: recording chaos cell {spec}");
    let (res, log) = chaos_cell_recorded(&w, spec.form, spec.chain, seed, spec.delay);
    match res {
        Ok(report) => {
            println!(
                "cell passed ({} injections, {} healed): nothing to triage",
                report.injections, report.healed
            );
            return 0;
        }
        Err(e) => println!("cell failed: {e}"),
    }
    let interval = (w.budget / 128).max(100);
    match triage_run(
        &w.program,
        spec.form,
        spec.chain,
        spec.delay,
        &log,
        interval,
        spec.workload,
    ) {
        Ok(Some(result)) => deliver(result, out),
        Ok(None) => {
            // The cell can fail on tally grounds (audit-escaped
            // corruption) while the architected state still matches.
            println!(
                "architected state matches the reference end-to-end; no divergence to localize"
            );
            1
        }
        Err(e) => {
            eprintln!("triage: {e}");
            1
        }
    }
}

fn run_sabotage(spec: &str, out: Option<&str>) -> i32 {
    let parts: Vec<&str> = spec.split(':').collect();
    let [workload, form, chain, vstart, slot, xor] = parts[..] else {
        fail("--sabotage wants workload:form:chain:vstart:slot:xor");
    };
    let cell = parse_cell_spec(&format!("{workload}:{form}:{chain}")).unwrap_or_else(|e| fail(&e));
    let rule = Sabotage {
        vstart: parse_u64(vstart).unwrap_or_else(|e| fail(&e)),
        slot: parse_u64(slot).unwrap_or_else(|e| fail(&e)) as u32,
        imm_xor: parse_u64(xor).unwrap_or_else(|e| fail(&e)) as u16,
    };
    let w = cell.workload(harness_scale());
    let log = ReplayLog {
        seed: 0,
        sabotage: vec![rule],
        events: paced_run_events(w.budget * 2, 500),
    };
    println!(
        "triage: sabotaging fragment at {:#x} (slot {}, xor {:#x}) in {}",
        rule.vstart, rule.slot, rule.imm_xor, cell
    );
    let interval = (w.budget / 128).max(100);
    match triage_run(
        &w.program,
        cell.form,
        cell.chain,
        None,
        &log,
        interval,
        cell.workload,
    ) {
        Ok(Some(result)) => deliver(result, out),
        Ok(None) => {
            println!("sabotage did not change the architected outcome (dead immediate?)");
            0
        }
        Err(e) => {
            eprintln!("triage: {e}");
            1
        }
    }
}

fn run_repro(path: &str) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    let bundle = match ReproBundle::from_bytes(&bytes) {
        Ok(b) => b,
        Err(e) => fail(&format!("{path}: {e}")),
    };
    println!(
        "triage: replaying {path} ({}, entry checkpoint at v_insts {})",
        bundle.workload, bundle.snapshot.v_insts
    );
    match bundle.replay() {
        Ok(Some(found)) if found == bundle.expected => {
            println!("reproduced the bundled divergence exactly:");
            print!("{found}");
            0
        }
        Ok(Some(found)) => {
            println!("divergence found, but it DIFFERS from the bundled expectation");
            println!("expected:");
            print!("{}", bundle.expected);
            println!("found:");
            print!("{found}");
            1
        }
        Ok(None) => {
            println!("no divergence reproduced — the failure appears fixed in this build");
            1
        }
        Err(e) => {
            eprintln!("triage: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<(&str, String)> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            m @ ("--chaos" | "--sabotage" | "--repro") => {
                let Some(v) = args.get(i + 1) else { usage() };
                if mode.is_some() {
                    fail("choose exactly one of --chaos, --sabotage, --repro");
                }
                mode = Some((
                    match m {
                        "--chaos" => "chaos",
                        "--sabotage" => "sabotage",
                        _ => "repro",
                    },
                    v.clone(),
                ));
                i += 2;
            }
            "-o" | "--out" => {
                let Some(v) = args.get(i + 1) else { usage() };
                out = Some(v.clone());
                i += 2;
            }
            _ => usage(),
        }
    }
    let code = match mode {
        Some(("chaos", spec)) => run_chaos(&spec, out.as_deref()),
        Some(("sabotage", spec)) => run_sabotage(&spec, out.as_deref()),
        Some(("repro", path)) => run_repro(&path),
        _ => usage(),
    };
    std::process::exit(code);
}
