//! The four workloads, their programs, VM configurations and set-up.

use crate::oracle::{self, Expected};
use crate::{gen, trace};
use alpha_isa::Program;
use ildp_core::{
    FragmentStore, InstallValidator, NullSink, OnViolation, StoreLoadReport, Vm, VmConfig,
};
use std::path::Path;
use std::sync::Arc;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Loop-dominated suite programs: engine execution and the region
    /// tier, with no dispatches and negligible translation.
    Loops,
    /// Call- and indirect-jump-heavy suite programs: shared dispatch,
    /// the dual-RAS and indirect-jump chaining.
    Calls,
    /// Generated programs of many short hot loops, translated
    /// asynchronously into a fresh store: translation, verification and
    /// the store's write path.
    Cold,
    /// The same generated programs warm-started from a pretranslated
    /// store reopened from disk: the store's read path.
    Warm,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [Kind::Loops, Kind::Calls, Kind::Cold, Kind::Warm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Loops => "loops",
            Kind::Calls => "calls",
            Kind::Cold => "cold",
            Kind::Warm => "warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether translation runs on the background pool.
    pub fn is_async(self) -> bool {
        matches!(self, Kind::Cold | Kind::Warm)
    }
}

/// Suite programs of `loops`, with the scale that gives each about 8M
/// guest instructions.
const LOOPS: [(&str, u32); 7] = [
    ("gzip", 310),
    ("vpr", 790),
    ("mcf", 300),
    ("crafty", 455),
    ("gap", 1650),
    ("bzip2", 30),
    ("twolf", 890),
];

/// Suite programs of `calls`, about 8M guest instructions each.
const CALLS: [(&str, u32); 5] = [
    ("gcc", 205),
    ("parser", 560),
    ("eon", 570),
    ("perlbmk", 1800),
    ("vortex", 1770),
];

/// How big a workload is built.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Divisor applied to every suite scale.
    pub scale_div: u32,
    /// Generated programs in `cold` and `warm`.
    pub generated: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        scale_div: 1,
        generated: 24,
    };
    /// The quick smoke configuration.
    pub const SMOKE: Sizes = Sizes {
        scale_div: 20,
        generated: 2,
    };
}

/// One program of a workload, with its reference end state.
pub struct Prog {
    /// Display name.
    pub name: String,
    /// The program.
    pub program: Program,
    /// Run budget.
    pub budget: u64,
    /// The oracle's end state.
    pub expected: Expected,
}

/// Everything a workload's runs need, built before timing starts.
pub struct Setup {
    /// The programs.
    pub progs: Vec<Prog>,
    /// Nanoseconds the reference interpreter took over all programs.
    pub reference_ns: u64,
    /// `warm` only: the pretranslated store as reopened from disk.
    pub store: Option<Arc<FragmentStore>>,
    /// Whether the reopened store came back whole (see
    /// [`store_is_clean`]); vacuously true without a store.
    pub store_clean: bool,
}

/// The VM configuration of every workload: `validator` at install time,
/// a rejection counted rather than fatal, and no process-global pool —
/// the asynchronous workloads attach a benchmark-owned one per run.
pub fn vm_config(validator: InstallValidator) -> VmConfig {
    VmConfig {
        validator: Some(validator),
        on_violation: OnViolation::Reject,
        async_translate: false,
        ..VmConfig::default()
    }
}

/// The programs of `kind`, with their names and run budgets.
pub fn programs(kind: Kind, seed: u64, sizes: Sizes) -> Vec<(String, Program, u64)> {
    let suite = |list: &[(&str, u32)]| {
        list.iter()
            .map(|&(name, scale)| {
                let w = spec_workloads::by_name(name, (scale / sizes.scale_div).max(1))
                    .expect("workload tables name suite programs");
                (name.to_string(), w.program, w.budget)
            })
            .collect()
    };
    match kind {
        Kind::Loops => suite(&LOOPS),
        Kind::Calls => suite(&CALLS),
        Kind::Cold | Kind::Warm => gen::programs(seed, sizes.generated)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("gen{i}"), p, gen::BUDGET))
            .collect(),
    }
}

/// Builds `kind`'s programs and their reference end states; for `warm`
/// also pretranslates them synchronously into one store, saves it to
/// `store_path` and reopens it, as a fresh process would.
pub fn setup(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    validator: InstallValidator,
    store_path: &Path,
) -> Result<Setup, String> {
    let root = trace::new_id();
    let t0 = trace::now_ns();
    let mut progs = Vec::new();
    let mut reference_ns = 0;
    for (name, program, budget) in programs(kind, seed, sizes) {
        let (expected, ns) = trace::timed("alpha.reference", root, || {
            oracle::reference(&program, budget)
        });
        reference_ns += ns;
        let expected = expected.map_err(|e| format!("{name}: {e}"))?;
        progs.push(Prog {
            name,
            program,
            budget,
            expected,
        });
    }
    let (store, store_clean) = if kind == Kind::Warm {
        let (store, clean) = pretranslate(&progs, validator, store_path, root)?;
        (Some(store), clean)
    } else {
        (None, true)
    };
    trace::record(root, 0, "setup", t0, trace::now_ns());
    Ok(Setup {
        progs,
        reference_ns,
        store,
        store_clean,
    })
}

fn pretranslate(
    progs: &[Prog],
    validator: InstallValidator,
    path: &Path,
    parent: u64,
) -> Result<(Arc<FragmentStore>, bool), String> {
    let store = Arc::new(FragmentStore::new());
    for (i, p) in progs.iter().enumerate() {
        let (run, start) = trace::begin_run(i);
        let mut vm = Vm::new(vm_config(validator), &p.program);
        vm.attach_store(Arc::clone(&store));
        let exit = vm.run(p.budget, &mut NullSink);
        trace::end_run(run, "vm.run_pretranslate", start, trace::now_ns());
        oracle::check(&exit, &vm, &p.expected)
            .map_err(|e| format!("pretranslating {}: {e}", p.name))?;
    }
    remove_store_files(path);
    let (saved, _) = trace::timed("artifact.store_save", parent, || store.save(path));
    saved.map_err(|e| format!("saving the warm store to {}: {e}", path.display()))?;
    let entries = store.len();
    // Freed before the reopen, so the copy the runs use takes its place
    // in the heap instead of adding to resident memory.
    drop(store);
    let ((opened, report), _) =
        trace::timed("artifact.store_open", parent, || FragmentStore::open(path));
    remove_store_files(path);
    Ok((Arc::new(opened), store_is_clean(&report, entries)))
}

/// Whether a reopened store came back whole: every entry loaded, its
/// seal intact, nothing skewed, missing or rejected.
fn store_is_clean(report: &StoreLoadReport, expected_entries: usize) -> bool {
    report.loaded == expected_entries
        && report.rejected == 0
        && report.seal_intact
        && !report.version_skew
        && !report.missing
        && report.error.is_none()
}

/// Removes a saved store and the sibling lock file its save leaves.
pub fn remove_store_files(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.as_os_str().to_owned();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}
