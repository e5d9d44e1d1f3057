//! Measurement: timed passes over a workload's programs, the metrics
//! derived from them, and the per-workload flow the command line drives.

use crate::oracle;
use crate::trace::{self, Replay};
use crate::workload::{self, Kind, Setup, Sizes};
use crate::{gen, host};
use alpha_isa::Program;
use ildp_core::{FragmentStore, InstallValidator, NullSink, TranslatePool, Vm, VmConfig, VmStats};
use spec_workloads::XorShift;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, in reporting order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("guest_mips", "M/s"),
    ("run_ms_p50", "ms"),
    ("cpu_ns_per_inst", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run and their units, in reporting
/// order. `*_ns_per_inst` divides by translated source instructions.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("alpha.interp_mips", "M/s"),
    ("profile.interp_frac", "frac"),
    ("profile.warmup_frac", "frac"),
    ("profile.interp_only_mips", "M/s"),
    ("superblock.decompose_ns_per_inst", "ns"),
    ("classify.analyze_ns_per_inst", "ns"),
    ("classify.oracle_ns_per_inst", "ns"),
    ("strands.plan_ns_per_inst", "ns"),
    ("translate.total_ns_per_inst", "ns"),
    ("translate.emit_ns_per_inst", "ns"),
    ("translate.fragments", "count/pass"),
    ("translate.static_expansion", "ratio"),
    ("translate.modelled_overhead_per_inst", "insts"),
    ("verifier.verify_ns_per_inst", "ns"),
    ("verifier.calls", "count/pass"),
    ("verifier.rejects", "count"),
    ("verifier.ce_ns_per_inst", "ns"),
    ("verifier.ap_ns_per_inst", "ns"),
    ("pipeline.stall_frac", "frac"),
    ("pipeline.translate_ms", "ms/pass"),
    ("pipeline.await_max_ms", "ms"),
    ("pipeline.async_installs", "count/pass"),
    ("pipeline.async_dropped", "count/pass"),
    ("pipeline.useful_ratio", "frac"),
    ("pipeline.sync_fallbacks", "count/pass"),
    ("pipeline.pool_timeouts", "count"),
    ("pipeline.pool_shed", "count"),
    ("engine.dynamic_expansion", "ratio"),
    ("engine.entries_per_kinst", "1/kinst"),
    ("engine.dispatches_per_kinst", "1/kinst"),
    ("engine.ras_hit_rate", "frac"),
    ("vm.exec_ms", "ms/pass"),
    ("region.formed", "count/pass"),
    ("region.entry_frac", "frac"),
    ("region.seam_pairs_eliminated", "count/pass"),
    ("region.verified", "count/pass"),
    ("artifact.warm_hits", "count/pass"),
    ("artifact.warm_misses", "count"),
    ("artifact.reuse_rate", "frac"),
    ("artifact.publishes", "count/pass"),
    ("artifact.quarantined", "count"),
    ("artifact.publish_ns_per_frag", "ns"),
    ("artifact.rehydrate_ns_per_frag", "ns"),
    ("artifact.store_save_ms", "ms"),
    ("artifact.store_open_ms", "ms"),
    ("artifact.store_mb", "MB"),
    ("trace.overhead_frac", "frac"),
    ("trace.replay_gap", "frac"),
    ("host.calib_ms", "ms"),
    ("failed_frac", "frac"),
];

/// What one benchmark invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seeds generated programs and the per-pass program order.
    pub seed: u64,
    /// Seconds of timed passes (split evenly between untraced and
    /// traced passes in a traced run); at least one pass always runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Program sizes.
    pub sizes: Sizes,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs measured and checked against the oracle.
    pub attempted: u64,
    /// Runs that failed the oracle or a workload gate.
    pub failed: u64,
    /// Every metric computed, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failures and gate violations, for the report.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every run passed and no gate fired.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One measured program run.
struct RunRecord {
    prog: usize,
    wall_ns: u64,
    cpu_ns: u64,
    insts: u64,
    error: Option<String>,
    stats: VmStats,
}

/// One pass: every program once, in a seeded order.
struct Pass {
    runs: Vec<RunRecord>,
}

struct Ctx<'a> {
    kind: Kind,
    setup: &'a Setup,
    pool: Option<Arc<TranslatePool>>,
}

/// Throughput figures over a set of passes.
struct Summary {
    guest_mips: f64,
    run_ms_p50: f64,
    cpu_ns_per_inst: f64,
    best_ms: Vec<f64>,
    all_median_ms: f64,
    all_p90_ms: f64,
    runs: usize,
}

/// Directory for files a run leaves behind (saved stores, traces).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("out")
}

/// Runs one workload end to end: set-up, timed passes, and in a traced
/// run the traced passes, the interpreter-only runs and the offline
/// replay. Prints a human-readable report; the caller prints the result
/// line. `Err` is a set-up failure, with no result.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    if opts.trace {
        trace::enable();
    }
    let kind = opts.kind;
    let mut o = Outcome::default();
    if !host::pin_to_cpu0() {
        println!("  not pinned to one CPU: thread placement is left to the scheduler");
    }
    let calib = host::calibrate();
    o.metrics.insert("host.calib_ms", calib);
    let noisy = calib > host::CALIB_REFERENCE_MS * host::NOISY_FACTOR;
    println!(
        "{} seed {}: host.calib_ms {calib:.2} (reference {:.1}){}",
        kind.name(),
        opts.seed,
        host::CALIB_REFERENCE_MS,
        if noisy { "  NOISY HOST" } else { "" }
    );

    let setup_validator: InstallValidator = if opts.trace {
        trace::traced_validator
    } else {
        ildp_verifier::install_validator
    };
    let store_path = out.join(format!("warm-{}.store", std::process::id()));
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..opts.setup_reps.max(1) {
        drop(setup.take());
        // A warm traced run captures its corpus from the pretranslation:
        // its measured runs translate nothing.
        trace::set_collect(opts.trace && rep + 1 == opts.setup_reps.max(1));
        let t = Instant::now();
        setup = Some(workload::setup(
            kind,
            opts.seed,
            opts.sizes,
            setup_validator,
            &store_path,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_collect(false);
    let setup = setup.expect("at least one set-up rep");
    o.metrics.insert("setup_s", median(&mut setup_s));
    let insts: u64 = setup.progs.iter().map(|p| p.expected.retired).sum();
    o.metrics.insert(
        "alpha.interp_mips",
        ratio(insts as f64 * 1e3, setup.reference_ns as f64),
    );
    println!(
        "  set-up {:?} s; {} programs, {:.2}M guest instructions per pass",
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setup.progs.len(),
        insts as f64 / 1e6
    );

    let ctx = Ctx {
        kind,
        setup: &setup,
        pool: kind.is_async().then(|| TranslatePool::new(1)),
    };
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = workload::vm_config(ildp_verifier::install_validator);
    let untraced = passes(&ctx, opts.seed, 0, plain, None, budget, 1);
    o.metrics.insert("peak_rss_mb", host::peak_rss_mb());
    let s = summarize(&untraced, setup.progs.len());
    o.metrics.insert("guest_mips", s.guest_mips);
    o.metrics.insert("run_ms_p50", s.run_ms_p50);
    o.metrics.insert("cpu_ns_per_inst", s.cpu_ns_per_inst);
    print_summary("untraced", &s, &untraced, &setup);
    tally(&mut o, &untraced);
    layer_metrics(&mut o, &untraced);

    if opts.trace {
        traced_run(&mut o, &ctx, opts, budget, &untraced, s.guest_mips)?;
    }
    drop(ctx);
    o.metrics
        .insert("failed_frac", ratio(o.failed as f64, o.attempted as f64));
    Ok(o)
}

/// The traced half of a traced run: traced passes (the first captures
/// the corpus), interpreter-only runs, the offline replay, and the
/// trace file.
fn traced_run(
    o: &mut Outcome,
    ctx: &Ctx<'_>,
    opts: &Options,
    budget: f64,
    untraced: &[Pass],
    untraced_mips: f64,
) -> Result<(), String> {
    let traced_cfg = workload::vm_config(trace::traced_validator);
    let base = untraced.len();
    let t = Instant::now();
    trace::set_collect(true);
    let mut traced = passes(ctx, opts.seed, base, traced_cfg, Some("vm.run"), 0.0, 1);
    trace::set_collect(false);
    let left = budget - t.elapsed().as_secs_f64();
    traced.extend(passes(
        ctx,
        opts.seed,
        base + 1,
        traced_cfg,
        Some("vm.run"),
        left,
        0,
    ));
    let s = summarize(&traced, ctx.setup.progs.len());
    print_summary("traced", &s, &traced, ctx.setup);
    tally(o, &traced);
    o.metrics.insert(
        "trace.overhead_frac",
        1.0 - ratio(s.guest_mips, untraced_mips),
    );

    // Interpretation alone: a VM that never translates.
    let interp_cfg = VmConfig {
        max_demotions: 0,
        ..workload::vm_config(ildp_verifier::install_validator)
    };
    let interp: Vec<RunRecord> = (0..ctx.setup.progs.len())
        .map(|i| run_one(ctx, i, interp_cfg, Some("vm.run_interp_only")))
        .collect();
    let wall: u64 = interp.iter().map(|r| r.wall_ns).sum();
    let insts: u64 = interp.iter().map(|r| r.insts).sum();
    o.metrics.insert(
        "profile.interp_only_mips",
        ratio(insts as f64 * 1e3, wall as f64),
    );
    tally(o, &[Pass { runs: interp }]);

    let corpus = trace::take_corpus();
    let programs: Vec<&Program> = ctx.setup.progs.iter().map(|p| &p.program).collect();
    let root = trace::new_id();
    let t0 = trace::now_ns();
    let (r, store) = trace::replay(&corpus, &programs, root);
    trace::record(root, 0, "replay", t0, trace::now_ns());
    drop(corpus);
    if r.mismatches > 0 {
        o.problems.push(format!(
            "{} replayed translations differ from the VM's",
            r.mismatches
        ));
    }
    if r.rejects > 0 {
        o.problems.push(format!(
            "{} replayed translations fail verification",
            r.rejects
        ));
    }
    // The untraced passes translated the same fragments without the
    // capture's cloning perturbing the pool worker.
    let runs = || untraced.iter().flat_map(|p| &p.runs);
    let in_vm_ns = ratio(
        runs().map(|r| r.stats.translate_wall_nanos).sum::<u64>() as f64,
        runs().map(|r| r.stats.fragments_verified).sum::<u64>() as f64,
    );
    let offline_ns = ratio((r.translate + r.verify) as f64, r.fragments as f64);
    // Nothing to compare where the runs translated nothing (warm).
    let gap = if in_vm_ns == 0.0 {
        0.0
    } else {
        (offline_ns / in_vm_ns - 1.0).abs()
    };
    o.metrics.insert("trace.replay_gap", gap);
    println!(
        "  replay: {} fragments, {} source insts; translate+verify {:.1} us/frag offline, \
         {:.1} us/frag in the VM",
        r.fragments,
        r.src_insts,
        offline_ns / 1e3,
        in_vm_ns / 1e3
    );
    replay_metrics(o, &r);
    store_metrics(o, &store)?;

    let spans = trace::take_spans();
    print_self_times(&spans);
    let path = out_dir().join(format!("trace-{}-{}.json", opts.kind.name(), opts.seed));
    std::fs::write(&path, trace::chrome_json(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  trace: {} spans -> {}", spans.len(), path.display());
    Ok(())
}

/// Runs passes until `seconds` have elapsed and at least `min` passes
/// are done. `span` names the per-run trace span, when traced.
fn passes(
    ctx: &Ctx<'_>,
    seed: u64,
    first: usize,
    config: VmConfig,
    span: Option<&'static str>,
    seconds: f64,
    min: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        let order = permutation(seed, first + out.len(), ctx.setup.progs.len());
        let runs = order
            .into_iter()
            .map(|i| run_one(ctx, i, config, span))
            .collect();
        out.push(Pass { runs });
    }
    out
}

/// One program in a fresh VM, timed from `Vm::new` to halt. CPU time
/// also covers draining the run's background translations, so work the
/// pool did for this run is charged to it.
fn run_one(ctx: &Ctx<'_>, prog: usize, config: VmConfig, span: Option<&'static str>) -> RunRecord {
    let p = &ctx.setup.progs[prog];
    let traced = span.map(|_| trace::begin_run(prog));
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let mut vm = Vm::new(config, &p.program);
    if let Some(pool) = &ctx.pool {
        vm.attach_pool(Arc::clone(pool));
    }
    match (ctx.kind, &ctx.setup.store) {
        (Kind::Cold, _) => vm.attach_store(Arc::new(FragmentStore::new())),
        (Kind::Warm, Some(store)) => vm.attach_store(Arc::clone(store)),
        _ => {}
    }
    let exit = vm.run(p.budget, &mut NullSink);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let halted = trace::now_ns();
    if let Some(pool) = &ctx.pool {
        drain(pool);
    }
    let cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
    if let (Some((id, start)), Some(name)) = (traced, span) {
        trace::end_run(id, name, start, halted);
    }
    let stats = vm.stats().clone();
    let error = oracle::check(&exit, &vm, &p.expected)
        .err()
        .or_else(|| {
            (stats.verify_rejected > 0)
                .then(|| format!("verifier rejected {} translations", stats.verify_rejected))
        })
        .or_else(|| {
            (ctx.kind == Kind::Warm && !ctx.setup.store_clean)
                .then(|| "the warm store did not reopen cleanly".to_string())
        })
        .or_else(|| {
            (ctx.kind == Kind::Warm && stats.warm_misses > 0)
                .then(|| format!("{} warm-store misses", stats.warm_misses))
        })
        .map(|e| format!("{}: {e}", p.name));
    RunRecord {
        prog,
        wall_ns,
        cpu_ns,
        insts: p.expected.retired,
        error,
        stats,
    }
}

/// Waits (bounded) until every request submitted to `pool` has been
/// answered, so no translation for one run overlaps the next.
fn drain(pool: &TranslatePool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let s = pool.stats();
        if s.completed >= s.submitted {
            return;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// A seeded shuffle of `0..n` for pass number `pass`.
fn permutation(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = XorShift::new(gen::splitmix(seed ^ gen::splitmix(!(pass as u64))));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

fn tally(o: &mut Outcome, passes: &[Pass]) {
    for r in passes.iter().flat_map(|p| &p.runs) {
        o.attempted += 1;
        if let Some(e) = &r.error {
            o.failed += 1;
            if o.problems.len() < 8 {
                o.problems.push(e.clone());
            }
        }
    }
}

/// Best-of-passes throughput: each program's fastest run, because
/// host interference only ever slows a run down.
fn summarize(passes: &[Pass], nprogs: usize) -> Summary {
    let mut best = vec![u64::MAX; nprogs];
    let mut best_cpu = vec![u64::MAX; nprogs];
    let mut insts = vec![0u64; nprogs];
    for r in passes.iter().flat_map(|p| &p.runs) {
        best[r.prog] = best[r.prog].min(r.wall_ns);
        best_cpu[r.prog] = best_cpu[r.prog].min(r.cpu_ns);
        insts[r.prog] = r.insts;
    }
    let ran: Vec<usize> = (0..nprogs).filter(|&i| best[i] != u64::MAX).collect();
    let total = |v: &[u64]| ran.iter().map(|&i| v[i]).sum::<u64>() as f64;
    let best_ms: Vec<f64> = ran.iter().map(|&i| best[i] as f64 / 1e6).collect();
    let mut all: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.wall_ns as f64 / 1e6)
        .collect();
    let all_median_ms = median(&mut all);
    let p90_rank = (all.len() as f64 * 0.9).ceil() as usize;
    Summary {
        guest_mips: ratio(total(&insts) * 1e3, total(&best)),
        run_ms_p50: median(&mut best_ms.clone()),
        cpu_ns_per_inst: ratio(total(&best_cpu), total(&insts)),
        best_ms,
        all_median_ms,
        all_p90_ms: all.get(p90_rank.saturating_sub(1)).copied().unwrap_or(0.0),
        runs: all.len(),
    }
}

fn print_summary(label: &str, s: &Summary, passes: &[Pass], setup: &Setup) {
    println!(
        "  {label}: {} passes, guest_mips {:.2}, run_ms_p50 {:.3} (best of passes); \
         all runs: median {:.3} ms, p90 {:.3} ms, n {}",
        passes.len(),
        s.guest_mips,
        s.run_ms_p50,
        s.all_median_ms,
        s.all_p90_ms,
        s.runs
    );
    if setup.progs.len() <= 12 {
        let rows: Vec<String> = setup
            .progs
            .iter()
            .zip(&s.best_ms)
            .map(|(p, ms)| format!("{} {ms:.2}", p.name))
            .collect();
        println!("    best ms: {}", rows.join(", "));
    }
}

/// Counter- and ratio-style layer metrics from the untraced passes.
fn layer_metrics(o: &mut Outcome, passes: &[Pass]) {
    let runs = || passes.iter().flat_map(|p| &p.runs);
    let sum = |f: fn(&VmStats) -> u64| runs().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let n = passes.len() as f64;
    let guest = sum(|s| s.interpreted + s.engine.v_insts);
    let wall = runs().map(|r| r.wall_ns).sum::<u64>() as f64;
    let stall = sum(|s| s.translate_stall_nanos);
    let installs = sum(|s| s.fragments - s.warm_hits - s.regions_formed);
    let attempts = sum(|s| s.fragments_verified - s.regions_verified);
    let hits = sum(|s| s.warm_hits);
    let misses = sum(|s| s.warm_misses);
    let ras = sum(|s| s.engine.ras_hits);
    let m = &mut o.metrics;
    m.insert("profile.interp_frac", ratio(sum(|s| s.interpreted), guest));
    m.insert(
        "profile.warmup_frac",
        ratio(sum(|s| s.warmup_interpreted), guest),
    );
    m.insert(
        "translate.fragments",
        sum(|s| s.fragments - s.warm_hits) / n,
    );
    m.insert(
        "translate.static_expansion",
        ratio(sum(|s| s.emitted_insts), sum(|s| s.translated_src_insts)),
    );
    m.insert(
        "translate.modelled_overhead_per_inst",
        ratio(
            sum(|s| s.translation_overhead),
            sum(|s| s.translated_src_insts),
        ),
    );
    m.insert("verifier.calls", sum(|s| s.fragments_verified) / n);
    m.insert("verifier.rejects", sum(|s| s.verify_rejected));
    m.insert("pipeline.stall_frac", ratio(stall, wall));
    m.insert(
        "pipeline.translate_ms",
        sum(|s| s.translate_wall_nanos) / n / 1e6,
    );
    let await_max = runs()
        .map(|r| r.stats.pool_await_max_nanos)
        .max()
        .unwrap_or(0);
    m.insert("pipeline.await_max_ms", await_max as f64 / 1e6);
    m.insert("pipeline.async_installs", sum(|s| s.async_installs) / n);
    m.insert("pipeline.async_dropped", sum(|s| s.async_dropped) / n);
    m.insert(
        "pipeline.useful_ratio",
        if attempts == 0.0 {
            1.0
        } else {
            installs / attempts
        },
    );
    m.insert("pipeline.sync_fallbacks", sum(|s| s.sync_fallbacks) / n);
    m.insert("pipeline.pool_timeouts", sum(|s| s.pool_timeouts));
    m.insert("pipeline.pool_shed", sum(|s| s.pool_shed));
    m.insert(
        "engine.dynamic_expansion",
        ratio(sum(|s| s.engine.executed), sum(|s| s.engine.v_insts)),
    );
    m.insert(
        "engine.entries_per_kinst",
        ratio(sum(|s| s.engine.fragment_entries) * 1e3, guest),
    );
    m.insert(
        "engine.dispatches_per_kinst",
        ratio(sum(|s| s.engine.dispatches) * 1e3, guest),
    );
    m.insert(
        "engine.ras_hit_rate",
        ratio(ras, ras + sum(|s| s.engine.ras_misses)),
    );
    m.insert("vm.exec_ms", (wall - stall) / n / 1e6);
    m.insert("region.formed", sum(|s| s.regions_formed) / n);
    m.insert(
        "region.entry_frac",
        ratio(
            sum(|s| s.engine.region_entries),
            sum(|s| s.engine.fragment_entries),
        ),
    );
    m.insert(
        "region.seam_pairs_eliminated",
        sum(|s| s.seam_pairs_eliminated) / n,
    );
    m.insert("region.verified", sum(|s| s.regions_verified) / n);
    m.insert("artifact.warm_hits", hits / n);
    m.insert("artifact.warm_misses", misses);
    m.insert("artifact.reuse_rate", ratio(hits, hits + misses));
    m.insert("artifact.publishes", sum(|s| s.warm_stores) / n);
    m.insert("artifact.quarantined", sum(|s| s.store_quarantined));
}

/// Per-stage cost of the offline replay.
fn replay_metrics(o: &mut Outcome, r: &Replay) {
    let per_inst = |ns: u64| ratio(ns as f64, r.src_insts as f64);
    let per_frag = |ns: u64| ratio(ns as f64, r.fragments as f64);
    let stages = r.decompose + r.analyze + r.oracle + r.plan;
    let m = &mut o.metrics;
    m.insert("superblock.decompose_ns_per_inst", per_inst(r.decompose));
    m.insert("classify.analyze_ns_per_inst", per_inst(r.analyze));
    m.insert("classify.oracle_ns_per_inst", per_inst(r.oracle));
    m.insert("strands.plan_ns_per_inst", per_inst(r.plan));
    m.insert("translate.total_ns_per_inst", per_inst(r.translate));
    m.insert(
        "translate.emit_ns_per_inst",
        per_inst(r.translate_warm.saturating_sub(stages)),
    );
    m.insert("verifier.verify_ns_per_inst", per_inst(r.verify));
    m.insert("verifier.ce_ns_per_inst", per_inst(r.verify_artifact));
    m.insert(
        "verifier.ap_ns_per_inst",
        per_inst(r.verify_warm.saturating_sub(r.verify_artifact)),
    );
    m.insert("artifact.publish_ns_per_frag", per_frag(r.publish));
    m.insert("artifact.rehydrate_ns_per_frag", per_frag(r.rehydrate));
}

/// Saves the replay's store and reopens it: the persistence costs.
fn store_metrics(o: &mut Outcome, store: &FragmentStore) -> Result<(), String> {
    let path = out_dir().join(format!("replay-{}.store", std::process::id()));
    workload::remove_store_files(&path);
    let (saved, save_ns) = trace::timed("artifact.store_save", 0, || store.save(&path));
    saved.map_err(|e| format!("saving {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let ((opened, _), open_ns) =
        trace::timed("artifact.store_open", 0, || FragmentStore::open(&path));
    workload::remove_store_files(&path);
    if opened.len() != store.len() {
        o.problems.push(format!(
            "replay store reopened with {} of {} entries",
            opened.len(),
            store.len()
        ));
    }
    o.metrics
        .insert("artifact.store_save_ms", save_ns as f64 / 1e6);
    o.metrics
        .insert("artifact.store_open_ms", open_ns as f64 / 1e6);
    o.metrics.insert("artifact.store_mb", bytes as f64 / 1e6);
    Ok(())
}

fn print_self_times(spans: &[trace::Span]) {
    println!(
        "  {:<34} {:>8} {:>11} {:>11} {:>10}",
        "span", "n", "total ms", "self ms", "mean us"
    );
    for (name, (n, total, own)) in trace::self_times(spans) {
        println!(
            "  {name:<34} {n:>8} {:>11.3} {:>11.3} {:>10.2}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            total as f64 / n as f64 / 1e3
        );
    }
}

/// The result line: one JSON object with the named metrics.
pub fn json_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|&(name, unit)| {
            let v = o.metrics.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Names in `names` that `o` lacks or holds as a non-finite value.
pub fn missing(o: &Outcome, names: &[(&'static str, &str)]) -> Vec<&'static str> {
    names
        .iter()
        .filter(|(n, _)| !o.metrics.get(n).is_some_and(|v| v.is_finite()))
        .map(|&(n, _)| n)
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}
