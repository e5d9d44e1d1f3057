//! Functional-engine throughput snapshot → `BENCH_engine.json`, and the
//! multi-VM scaling harness → `BENCH_throughput.json`.
//!
//! Default mode runs the whole workload suite under the functional
//! engine (no timing model, `NullSink`) and emits a machine-readable
//! JSON report — guest (V-ISA) instructions per second, dispatch counts,
//! dual-RAS hit rate, and the install-time translation-validator
//! overhead (fragments verified per second) — so successive PRs have a
//! perf trajectory to compare against. Each workload (and the aggregate)
//! also carries a `seam_report` from the whole-cache dataflow pass
//! (`ildp_verifier::flow`): dead and redundant cross-fragment
//! communication counts that quantify the region re-formation
//! opportunity.
//!
//! `--throughput` instead runs the multi-VM harness
//! ([`ildp_bench::throughput`]): N VMs per (workload × ISA form) cell on
//! a sweep of OS thread counts with asynchronous translation, plus the
//! shared warm-start store section, plus the **cross-process** warm
//! start: phase 1 pretranslates the whole matrix and saves the store to
//! disk, phase 2 re-execs this binary cold (`--warm-child <store>`) and
//! the fresh process must serve its fragments from the file. `--check`
//! additionally enforces the warm-start gates (nonzero reuse ≥ 90%, zero
//! retranslations, zero reverifications — in-process *and* across the
//! exec boundary) plus the clean-path pool-health gate (zero pool
//! timeouts and zero backpressure sheds: with no fault injection the
//! supervised pool must absorb every submission) and exits non-zero on
//! violation.
//!
//! Both JSON schemas are documented in `crates/bench/src/report.rs`.
//!
//! In the default engine mode `--check` enforces the steady-state seam
//! gate instead: the whole-cache dataflow pass must find **zero**
//! redundant seam pairs and **zero** dead copy-outs across the suite's
//! installed caches — erasable cross-fragment copy traffic the region
//! re-formation tier should have claimed.
//!
//! Usage: `cargo run --release -p ildp-bench --bin perfstat -- \
//! [--check] [--throughput [--check]] [<out.json>]`
//! (`ILDP_SCALE` scales the workloads, default 30 — or 5 for
//! `--throughput`; `PERFSTAT_REPS` repetitions per workload, default 3;
//! `ILDP_VMS` VM instances per throughput cell, default 8.)

use ildp_bench::store::{pretranslate_suite, run_cell_against_store};
use ildp_bench::throughput::{run_throughput, ThroughputOptions};
use ildp_core::{ChainPolicy, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_verifier::flow::{self, FlowReport};
use spec_workloads::suite;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    name: &'static str,
    wall_s: f64,
    v_insts: u64,
    executed: u64,
    interpreted: u64,
    dispatches: u64,
    ras_hits: u64,
    ras_misses: u64,
    fragment_entries: u64,
    fragments: u64,
    fragments_verified: u64,
    verify_nanos: u64,
    evictions: u64,
    smc_invalidations: u64,
    demotions: u64,
    warmup_interpreted: u64,
    regions_formed: u64,
    region_entries: u64,
    seam_pairs_eliminated: u64,
    /// Whole-cache dataflow summary of the final rep's installed cache:
    /// per-seam dead/redundant cross-fragment communication counts (the
    /// region re-formation opportunity report; see DESIGN.md §10).
    seam: FlowReport,
}

fn run_workload(w: &spec_workloads::Workload, reps: u32) -> Row {
    let config = VmConfig {
        translator: Translator {
            chain: ChainPolicy::SwPredDualRas,
            ..Translator::default()
        },
        // Any verifier violation panics the run (the default
        // `OnViolation::Panic`).
        validator: Some(ildp_verifier::install_validator),
        // The single-VM trajectory numbers isolate engine speed from
        // pipeline timing; `--throughput` measures async mode.
        async_translate: false,
        ..VmConfig::default()
    };
    let mut row = Row {
        name: w.name,
        wall_s: 0.0,
        v_insts: 0,
        executed: 0,
        interpreted: 0,
        dispatches: 0,
        ras_hits: 0,
        ras_misses: 0,
        fragment_entries: 0,
        fragments: 0,
        fragments_verified: 0,
        verify_nanos: 0,
        evictions: 0,
        smc_invalidations: 0,
        demotions: 0,
        warmup_interpreted: 0,
        regions_formed: 0,
        region_entries: 0,
        seam_pairs_eliminated: 0,
        seam: FlowReport::default(),
    };
    for _ in 0..reps {
        let mut vm = Vm::new(config, &w.program);
        let start = Instant::now();
        let exit = vm.run(w.budget * 2, &mut NullSink);
        row.wall_s += start.elapsed().as_secs_f64();
        match exit {
            VmExit::Halted | VmExit::Budget => {}
            VmExit::Trapped { vaddr, trap, .. } => {
                panic!("{}: unexpected trap at {vaddr:#x}: {trap}", w.name)
            }
            VmExit::Fault { error } => {
                panic!("{}: runtime fault: {error}", w.name)
            }
        }
        let s = vm.stats();
        row.v_insts += s.engine.v_insts;
        row.executed += s.engine.executed;
        row.interpreted += s.interpreted;
        row.dispatches += s.engine.dispatches;
        row.ras_hits += s.engine.ras_hits;
        row.ras_misses += s.engine.ras_misses;
        row.fragment_entries += s.engine.fragment_entries;
        row.fragments += s.fragments;
        row.fragments_verified += s.fragments_verified;
        row.verify_nanos += s.verify_nanos;
        row.evictions += s.evictions;
        row.smc_invalidations += s.smc_invalidations;
        row.demotions += s.demotions;
        row.warmup_interpreted += s.warmup_interpreted;
        row.regions_formed += s.regions_formed;
        row.region_entries += s.engine.region_entries;
        row.seam_pairs_eliminated += s.seam_pairs_eliminated;
        // Whole-cache dataflow pass over the installed cache (last rep
        // wins — every rep installs the same fragments deterministically):
        // the seam report feeds the region re-formation roadmap item.
        let (flow_violations, seam) =
            flow::check_cache(vm.cache(), Some(ChainPolicy::SwPredDualRas));
        assert!(
            flow_violations.is_empty(),
            "{}: {} flow violations during a perf run",
            w.name,
            flow_violations.len()
        );
        row.seam = seam;
    }
    row
}

/// The cold half of the cross-process warm start: a freshly exec'd
/// process opens the pretranslated store from disk and runs the full
/// (workload × form × chain) matrix against it, checking every cell
/// against the pure interpreter. Emits one JSON line on stdout for the
/// parent to parse.
fn warm_child_main(store_path: &Path) -> i32 {
    let scale: u32 = std::env::var("ILDP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let (store, report) = FragmentStore::open(store_path);
    if report.missing || !report.seal_intact || report.rejected > 0 || report.error.is_some() {
        eprintln!(
            "perfstat --warm-child: store {} did not open clean: loaded {} rejected {} \
             seal_intact {} missing {} error {:?}",
            store_path.display(),
            report.loaded,
            report.rejected,
            report.seal_intact,
            report.missing,
            report.error,
        );
        return 1;
    }
    let store = Arc::new(store);
    let (mut cells, mut hits, mut misses, mut quarantined, mut reverified) = (0u64, 0, 0, 0, 0);
    for (w, form, chain, _) in ildp_bench::cells(scale) {
        match run_cell_against_store(&w, form, chain, &store, false) {
            Ok(o) => {
                cells += 1;
                hits += o.warm_hits;
                misses += o.warm_misses;
                quarantined += o.store_quarantined;
                reverified += o.fragments_verified;
            }
            Err(e) => {
                eprintln!("perfstat --warm-child: {e}");
                return 1;
            }
        }
    }
    println!(
        "{{\"cells\":{cells},\"loaded\":{},\"warm_hits\":{hits},\"warm_misses\":{misses},\
         \"store_quarantined\":{quarantined},\"reverifications\":{reverified}}}",
        report.loaded
    );
    0
}

/// A `u64` value by key out of the child's single-line JSON report.
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = s.find(&pat)? + pat.len();
    let rest = s[i..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Tally of the cross-process warm start (parent side).
struct CrossProcess {
    entries: u64,
    store_bytes: u64,
    pretranslate_seconds: f64,
    cold_boot_seconds: f64,
    cells: u64,
    warm_hits: u64,
    warm_misses: u64,
    store_quarantined: u64,
    reverifications: u64,
}

impl CrossProcess {
    fn reuse_rate(&self) -> f64 {
        self.warm_hits as f64 / (self.warm_hits + self.warm_misses).max(1) as f64
    }
}

/// Phase 1: pretranslate the whole matrix and save the store to disk.
/// Phase 2: re-exec this binary cold against the saved file. The child
/// shares no memory with this process, so every fragment it reuses
/// demonstrably came through the crash-safe store.
fn cross_process_warm_start(scale: u32) -> CrossProcess {
    let store_path =
        std::env::temp_dir().join(format!("perfstat-store-{}.bin", std::process::id()));
    let t0 = Instant::now();
    let (store, pre) = match pretranslate_suite(scale) {
        Ok(r) => r,
        Err(e) => panic!("cross-process pretranslation failed: {e}"),
    };
    store
        .save(&store_path)
        .unwrap_or_else(|e| panic!("saving {}: {e}", store_path.display()));
    let pretranslate_seconds = t0.elapsed().as_secs_f64();
    let store_bytes = std::fs::metadata(&store_path).map(|m| m.len()).unwrap_or(0);

    let exe = std::env::current_exe().expect("current executable path");
    let t1 = Instant::now();
    let out = std::process::Command::new(exe)
        .arg("--warm-child")
        .arg(&store_path)
        .env("ILDP_SCALE", scale.to_string())
        .output()
        .expect("spawning --warm-child");
    let cold_boot_seconds = t1.elapsed().as_secs_f64();
    let lock_path = store_path.with_file_name(format!(
        "{}.lock",
        store_path.file_name().unwrap_or_default().to_string_lossy()
    ));
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&lock_path);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        panic!("--warm-child exited {:?}", out.status.code());
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("--warm-child printed no JSON line: {stdout:?}"));
    let field = |key: &str| {
        json_u64(line, key).unwrap_or_else(|| panic!("--warm-child report lacks {key:?}: {line}"))
    };
    CrossProcess {
        entries: pre.entries,
        store_bytes,
        pretranslate_seconds,
        cold_boot_seconds,
        cells: field("cells"),
        warm_hits: field("warm_hits"),
        warm_misses: field("warm_misses"),
        store_quarantined: field("store_quarantined"),
        reverifications: field("reverifications"),
    }
}

/// Runs the multi-VM harness and writes `BENCH_throughput.json` (schema
/// in `report.rs`). With `check`, enforces the warm-start gate.
fn throughput_main(out_path: &str, check: bool) {
    let opts = ThroughputOptions {
        scale: std::env::var("ILDP_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5),
        vms: std::env::var("ILDP_VMS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8),
        ..ThroughputOptions::default()
    };
    let report = run_throughput(&opts);
    let cross = cross_process_warm_start(opts.scale);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"multi_vm_throughput\",");
    let _ = writeln!(json, "  \"scale\": {},", report.scale);
    let _ = writeln!(json, "  \"vms_per_cell\": {},", report.vms);
    let _ = writeln!(json, "  \"pool_workers\": {},", report.pool_workers);
    let _ = writeln!(
        json,
        "  \"throughput_metric\": \"guest_insts / max per-thread cpu seconds (cpu critical path)\","
    );
    let _ = writeln!(json, "  \"scaling_ratio\": {:.3},", report.scaling_ratio());
    let _ = writeln!(json, "  \"scaling\": [");
    for (k, r) in report.scaling.iter().enumerate() {
        let comma = if k + 1 < report.scaling.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"runs\": {}, \"guest_insts\": {}, \
             \"guest_insts_per_sec\": {:.0}, \"cpu_critical_path_seconds\": {:.4}, \
             \"cpu_total_seconds\": {:.4}, \"wall_seconds\": {:.4}, \
             \"translate_stall_seconds\": {:.6}, \"translate_wall_seconds\": {:.6}, \
             \"async_installs\": {}, \"async_dropped\": {}, \
             \"pool_timeouts\": {}, \"pool_shed\": {}}}{comma}",
            r.threads,
            r.runs,
            r.total_guest_insts,
            r.guest_insts_per_sec,
            r.cpu_critical_path_seconds,
            r.cpu_total_seconds,
            r.wall_seconds,
            r.translate_stall_seconds,
            r.translate_wall_seconds,
            r.async_installs,
            r.async_dropped,
            r.pool_timeouts,
            r.pool_shed,
        );
    }
    let _ = writeln!(json, "  ],");
    let w = &report.warm;
    let _ = writeln!(json, "  \"warm_start\": {{");
    let _ = writeln!(json, "    \"cold_runs\": {},", w.cold_runs);
    let _ = writeln!(json, "    \"cold_fragments\": {},", w.cold_fragments);
    let _ = writeln!(json, "    \"warm_runs\": {},", w.warm_runs);
    let _ = writeln!(json, "    \"warm_hits\": {},", w.warm_hits);
    let _ = writeln!(json, "    \"warm_misses\": {},", w.warm_misses);
    let _ = writeln!(json, "    \"reuse_rate\": {:.4},", w.reuse_rate());
    let _ = writeln!(json, "    \"retranslations\": {},", w.retranslations());
    let _ = writeln!(json, "    \"reverifications\": {}", w.reverifications);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cross_process\": {{");
    let _ = writeln!(json, "    \"store_entries\": {},", cross.entries);
    let _ = writeln!(json, "    \"store_bytes\": {},", cross.store_bytes);
    let _ = writeln!(
        json,
        "    \"pretranslate_seconds\": {:.4},",
        cross.pretranslate_seconds
    );
    let _ = writeln!(
        json,
        "    \"cold_boot_seconds\": {:.4},",
        cross.cold_boot_seconds
    );
    let _ = writeln!(json, "    \"cells\": {},", cross.cells);
    let _ = writeln!(json, "    \"warm_hits\": {},", cross.warm_hits);
    let _ = writeln!(json, "    \"warm_misses\": {},", cross.warm_misses);
    let _ = writeln!(json, "    \"reuse_rate\": {:.4},", cross.reuse_rate());
    let _ = writeln!(
        json,
        "    \"store_quarantined\": {},",
        cross.store_quarantined
    );
    let _ = writeln!(json, "    \"reverifications\": {}", cross.reverifications);
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(out_path, &json).expect("write report");
    println!("{json}");
    println!(
        "wrote {out_path}: scaling {:.2}x across {:?} threads, warm reuse {:.1}%, \
         cross-process reuse {:.1}%",
        report.scaling_ratio(),
        report.scaling.iter().map(|r| r.threads).collect::<Vec<_>>(),
        w.reuse_rate() * 100.0,
        cross.reuse_rate() * 100.0
    );

    if check {
        let mut bad = Vec::new();
        // Clean-path pool health: with no fault injection, the shared
        // pool must absorb every submission — a deadline expiry or a
        // backpressure shed here is a real capacity regression, not a
        // contained fault.
        let timeouts: u64 = report.scaling.iter().map(|r| r.pool_timeouts).sum();
        let shed: u64 = report.scaling.iter().map(|r| r.pool_shed).sum();
        if timeouts > 0 {
            bad.push(format!(
                "{timeouts} pool timeouts on the clean path (want 0)"
            ));
        }
        if shed > 0 {
            bad.push(format!(
                "{shed} submissions shed by pool backpressure on the clean path (want 0)"
            ));
        }
        if w.warm_hits == 0 {
            bad.push("warm-start hit rate is 0 for a repeated-program run".to_string());
        }
        if w.reuse_rate() < 0.9 {
            bad.push(format!("warm reuse rate {:.4} < 0.9", w.reuse_rate()));
        }
        if w.retranslations() > 0 {
            bad.push(format!(
                "{} warm retranslations (want 0)",
                w.retranslations()
            ));
        }
        if w.reverifications > 0 {
            bad.push(format!(
                "{} warm reverifications (want 0)",
                w.reverifications
            ));
        }
        if cross.warm_hits == 0 {
            bad.push("cross-process warm-start hit rate is 0".to_string());
        }
        if cross.reuse_rate() < 0.9 {
            bad.push(format!(
                "cross-process reuse rate {:.4} < 0.9",
                cross.reuse_rate()
            ));
        }
        if cross.warm_misses > 0 {
            bad.push(format!(
                "{} cross-process retranslations (want 0)",
                cross.warm_misses
            ));
        }
        if cross.reverifications > 0 {
            bad.push(format!(
                "{} cross-process reverifications (want 0)",
                cross.reverifications
            ));
        }
        if cross.store_quarantined > 0 {
            bad.push(format!(
                "{} artifacts quarantined from a clean pretranslated store",
                cross.store_quarantined
            ));
        }
        if !bad.is_empty() {
            for b in &bad {
                println!("perfstat --check: FAIL: {b}");
            }
            std::process::exit(1);
        }
        println!("perfstat --check: warm-start gate passed");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--warm-child") {
        let Some(path) = args.get(1) else {
            eprintln!("perfstat: --warm-child needs a store path");
            std::process::exit(2);
        };
        std::process::exit(warm_child_main(Path::new(path)));
    }
    let mut throughput = false;
    let mut check = false;
    let mut out: Option<String> = None;
    for a in &args {
        match a.as_str() {
            "--throughput" => throughput = true,
            "--check" => check = true,
            other if !other.starts_with('-') => out = Some(other.to_string()),
            other => {
                eprintln!("perfstat: unknown argument {other:?}");
                eprintln!("usage: perfstat [--throughput [--check]] [out.json]");
                std::process::exit(2);
            }
        }
    }
    if throughput {
        let out_path = out.unwrap_or_else(|| "BENCH_throughput.json".to_string());
        throughput_main(&out_path, check);
        return;
    }
    let out_path = out.unwrap_or_else(|| "BENCH_engine.json".to_string());
    let scale: u32 = std::env::var("ILDP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let reps: u32 = std::env::var("PERFSTAT_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let rows: Vec<Row> = suite(scale).iter().map(|w| run_workload(w, reps)).collect();

    let total_wall: f64 = rows.iter().map(|r| r.wall_s).sum();
    let total_v: u64 = rows.iter().map(|r| r.v_insts).sum();
    let total_hits: u64 = rows.iter().map(|r| r.ras_hits).sum();
    let total_misses: u64 = rows.iter().map(|r| r.ras_misses).sum();
    let agg_ips = total_v as f64 / total_wall.max(1e-9);
    // No dual-RAS dispatches at all (every return was link-predicted or
    // the workloads are call-free): the rate is undefined, not perfect.
    let ras_rate = if total_hits + total_misses == 0 {
        None
    } else {
        Some(total_hits as f64 / (total_hits + total_misses) as f64)
    };
    let total_verified: u64 = rows.iter().map(|r| r.fragments_verified).sum();
    let verify_wall: f64 = rows.iter().map(|r| r.verify_nanos).sum::<u64>() as f64 * 1e-9;
    let verified_per_s = total_verified as f64 / verify_wall.max(1e-9);
    let total_interp: u64 = rows.iter().map(|r| r.interpreted).sum();
    let total_evictions: u64 = rows.iter().map(|r| r.evictions).sum();
    let total_smc: u64 = rows.iter().map(|r| r.smc_invalidations).sum();
    let total_demotions: u64 = rows.iter().map(|r| r.demotions).sum();
    // Steady-state fallback: exclude the warmup phase (everything
    // interpreted before the first install), matching
    // `VmStats::interp_fallback_ratio` — short workloads otherwise
    // report an inflated ratio dominated by profiling warmup.
    let total_warmup: u64 = rows.iter().map(|r| r.warmup_interpreted).sum();
    let total_regions: u64 = rows.iter().map(|r| r.regions_formed).sum();
    let total_region_entries: u64 = rows.iter().map(|r| r.region_entries).sum();
    let total_seam_elim: u64 = rows.iter().map(|r| r.seam_pairs_eliminated).sum();
    let steady = total_interp.saturating_sub(total_warmup);
    let interp_fallback = steady as f64 / (steady + total_v).max(1) as f64;
    let mut total_seam = FlowReport::default();
    for r in &rows {
        total_seam.merge(&r.seam);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"engine_functional\",");
    let _ = writeln!(json, "  \"mode\": \"null_sink\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"guest_insts_per_sec\": {agg_ips:.0},");
    let _ = writeln!(json, "  \"total_guest_insts\": {total_v},");
    let _ = writeln!(json, "  \"total_wall_seconds\": {total_wall:.4},");
    match ras_rate {
        Some(r) => {
            let _ = writeln!(json, "  \"ras_hit_rate\": {r:.4},");
        }
        None => {
            let _ = writeln!(json, "  \"ras_hit_rate\": null,");
        }
    }
    let _ = writeln!(json, "  \"fragments_verified\": {total_verified},");
    let _ = writeln!(json, "  \"verify_wall_seconds\": {verify_wall:.6},");
    let _ = writeln!(json, "  \"fragments_verified_per_s\": {verified_per_s:.0},");
    let _ = writeln!(json, "  \"evictions\": {total_evictions},");
    let _ = writeln!(json, "  \"smc_invalidations\": {total_smc},");
    let _ = writeln!(json, "  \"demotions\": {total_demotions},");
    let _ = writeln!(json, "  \"regions_formed\": {total_regions},");
    let _ = writeln!(json, "  \"region_entries\": {total_region_entries},");
    let _ = writeln!(json, "  \"seam_pairs_eliminated\": {total_seam_elim},");
    let _ = writeln!(json, "  \"interp_fallback_ratio\": {interp_fallback:.6},");
    let _ = writeln!(json, "  \"seam_report\": {{{}}},", total_seam.json_fields());
    let _ = writeln!(json, "  \"workloads\": [");
    for (k, r) in rows.iter().enumerate() {
        let ips = r.v_insts as f64 / r.wall_s.max(1e-9);
        let row_steady = r.interpreted.saturating_sub(r.warmup_interpreted);
        let comma = if k + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"guest_insts_per_sec\": {ips:.0}, \
             \"v_insts\": {}, \"executed\": {}, \"interpreted\": {}, \
             \"dispatches\": {}, \"ras_hits\": {}, \"ras_misses\": {}, \
             \"fragment_entries\": {}, \"fragments\": {}, \
             \"fragments_verified\": {}, \"verify_wall_seconds\": {:.6}, \
             \"evictions\": {}, \"smc_invalidations\": {}, \
             \"demotions\": {}, \"regions_formed\": {}, \
             \"region_entries\": {}, \"seam_pairs_eliminated\": {}, \
             \"interp_fallback_ratio\": {:.6}, \
             \"wall_seconds\": {:.4}, \"seam_report\": {{{}}}}}{comma}",
            r.name,
            r.v_insts,
            r.executed,
            r.interpreted,
            r.dispatches,
            r.ras_hits,
            r.ras_misses,
            r.fragment_entries,
            r.fragments,
            r.fragments_verified,
            r.verify_nanos as f64 * 1e-9,
            r.evictions,
            r.smc_invalidations,
            r.demotions,
            r.regions_formed,
            r.region_entries,
            r.seam_pairs_eliminated,
            row_steady as f64 / (row_steady + r.v_insts).max(1) as f64,
            r.wall_s,
            r.seam.json_fields(),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    println!("wrote {out_path}: {agg_ips:.2e} guest insts/sec over {total_wall:.2}s");
    println!(
        "seam report: {} fragments, {} resolved edges, {} dead copy-outs, \
         {} redundant seam pairs ({} regions formed, {} seam pairs eliminated)",
        total_seam.fragments,
        total_seam.resolved_edges,
        total_seam.dead_copy_outs,
        total_seam.redundant_seam_pairs,
        total_regions,
        total_seam_elim,
    );
    if check {
        // Steady-state seam gate: with region re-formation in place the
        // suite's installed caches must carry no erasable cross-fragment
        // copy traffic — every redundant pair or dead copy-out here is
        // communication the region tier failed to claim.
        let mut bad = Vec::new();
        if total_seam.redundant_seam_pairs > 0 {
            bad.push(format!(
                "{} redundant seam pairs in the steady-state caches (want 0)",
                total_seam.redundant_seam_pairs
            ));
        }
        if total_seam.dead_copy_outs > 0 {
            bad.push(format!(
                "{} dead copy-outs in the steady-state caches (want 0)",
                total_seam.dead_copy_outs
            ));
        }
        if !bad.is_empty() {
            for b in &bad {
                println!("perfstat --check: FAIL: {b}");
            }
            std::process::exit(1);
        }
        println!("perfstat --check: steady-state seam gate passed");
    }
}
