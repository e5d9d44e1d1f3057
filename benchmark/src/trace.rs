//! The traced run: spans recorded around calls into each layer's public
//! API, an install-validator wrapper that captures every translation the
//! VM makes, and the offline replay that times each translator and
//! verifier stage on that corpus.
//!
//! Spans are kept in memory and written once, at exit, as Chrome
//! trace-event JSON. Recording is off unless [`enable`] was called, so
//! untraced runs pay one relaxed load per span site.

use ildp_core::{
    analyze, analyze_oracle, artifact_key, decompose_with, plan, FragmentArtifact, FragmentStore,
    InstallReview, Superblock, Translator,
};
use ildp_isa::{IInst, IsaForm};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The `vm.run` this span belongs to; 0 outside any run.
    pub run: u64,
    /// Layer and operation, `layer.call`.
    pub name: &'static str,
    /// Start, in ns since the process's first trace call.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
    /// Small per-process thread number.
    pub tid: u64,
}

/// One translation the VM made, as the install validator saw it.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Index of the program being run, into the workload's program list.
    pub program: usize,
    /// The collected source superblock.
    pub sb: Superblock,
    /// The instructions the VM installed for it (the translation's
    /// analysis trace is not kept: the replay re-derives it).
    pub insts: Vec<IInst>,
    /// The translator configuration that produced it.
    pub translator: Translator,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECT: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// The open run span's id, which is also the run id of every span
/// recorded while it is open.
static RUN: AtomicU64 = AtomicU64::new(0);
static PROGRAM: AtomicUsize = AtomicUsize::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static CORPUS: Mutex<Vec<CorpusEntry>> = Mutex::new(Vec::new());

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Switches span recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Starts or stops capturing translations into the corpus.
pub fn set_collect(on: bool) {
    COLLECT.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id, for a parent whose children are recorded before it.
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished span on the calling thread (no-op when disabled).
pub fn record(id: u64, parent: u64, name: &'static str, start: u64, end: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let span = Span {
        id,
        parent,
        run: RUN.load(Ordering::Relaxed),
        name,
        start,
        end,
        tid: TID.with(|t| *t),
    };
    SPANS.lock().expect("span log lock").push(span);
}

/// Runs `f` inside a span named `name`; returns its result and duration.
pub fn timed<T>(name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    record(new_id(), parent, name, start, end);
    (out, end - start)
}

/// Marks the start of a `vm.run` span: validator spans recorded until
/// [`end_run`], on any thread, take it as their parent. Returns the
/// span's id and start time.
pub fn begin_run(program: usize) -> (u64, u64) {
    let id = new_id();
    RUN.store(id, Ordering::SeqCst);
    PROGRAM.store(program, Ordering::SeqCst);
    (id, now_ns())
}

/// Closes the run span opened by [`begin_run`] as `name`, ending at
/// `end`. Call it once the run's background translations have drained,
/// so their validator spans still find their parent.
pub fn end_run(id: u64, name: &'static str, start: u64, end: u64) {
    record(id, 0, name, start, end);
    RUN.store(0, Ordering::SeqCst);
}

/// The traced install validator: runs
/// [`ildp_verifier::install_validator`] inside a span parented to the
/// current `vm.run`, and captures the translation into the corpus while
/// collection is on.
pub fn traced_validator(review: &InstallReview<'_>) -> Result<(), String> {
    let start = now_ns();
    let verdict = ildp_verifier::install_validator(review);
    let end = now_ns();
    record(
        new_id(),
        RUN.load(Ordering::Relaxed),
        "verifier.install_validator",
        start,
        end,
    );
    if COLLECT.load(Ordering::Relaxed) {
        let entry = CorpusEntry {
            program: PROGRAM.load(Ordering::Relaxed),
            sb: review.sb.clone(),
            insts: review.code.insts.clone(),
            translator: *review.translator,
        };
        CORPUS.lock().expect("corpus lock").push(entry);
    }
    verdict
}

/// Takes the captured corpus.
pub fn take_corpus() -> Vec<CorpusEntry> {
    std::mem::take(&mut *CORPUS.lock().expect("corpus lock"))
}

/// Takes every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log lock"))
}

/// Summed nanoseconds per stage of an offline replay.
///
/// Each fragment is first translated and verified once, cold, exactly
/// as the VM's translation job does it: those two calls are what the VM
/// pays. The per-stage breakdown is then timed warm, right after, each
/// stage as the best of three back-to-back calls, so the stages and the
/// warm whole they are subtracted from are measured alike.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Fragments replayed.
    pub fragments: u64,
    /// Source instructions across them.
    pub src_insts: u64,
    /// `Translator::translate`, first (cold) call.
    pub translate: u64,
    /// `verify_translation` of that translation, first (cold) call.
    pub verify: u64,
    /// `decompose_with`, warm (best of three, as every warm stage).
    pub decompose: u64,
    /// `analyze`, warm.
    pub analyze: u64,
    /// `analyze_oracle`, warm.
    pub oracle: u64,
    /// `plan`, warm.
    pub plan: u64,
    /// `Translator::translate` again, warm.
    pub translate_warm: u64,
    /// `verify_translation` again, warm: all four families.
    pub verify_warm: u64,
    /// `verify_artifact`, warm: the C and E families.
    pub verify_artifact: u64,
    /// `FragmentArtifact::from_translation` + `to_bytes`.
    pub publish: u64,
    /// `FragmentArtifact::from_bytes` + `to_translated_code`.
    pub rehydrate: u64,
    /// Replayed translations or artifacts that differ from the VM's.
    pub mismatches: u64,
    /// Replayed translations the verifier rejected.
    pub rejects: u64,
}

/// Replays `corpus` through each translator, verifier and artifact
/// stage, and publishes every artifact into the returned store.
pub fn replay(
    corpus: &[CorpusEntry],
    programs: &[&alpha_isa::Program],
    parent: u64,
) -> (Replay, FragmentStore) {
    let mut r = Replay::default();
    let store = FragmentStore::new();
    for e in corpus {
        let tr = &e.translator;
        r.fragments += 1;
        r.src_insts += e.sb.len() as u64;
        let (code, ns) = timed("translate.translate", parent, || tr.translate(&e.sb));
        r.translate += ns;
        if code.insts != e.insts {
            r.mismatches += 1;
        }
        let (violations, ns) = timed("verifier.verify_translation", parent, || {
            ildp_verifier::verify_translation(&e.sb, &code, tr)
        });
        r.verify += ns;
        if !violations.is_empty() {
            r.rejects += 1;
        }

        let nodes = decompose_with(&e.sb, tr.fuse_memory);
        let df = analyze(&nodes);
        r.decompose += best_of_3("superblock.decompose_with", parent, || {
            decompose_with(&e.sb, tr.fuse_memory)
        });
        r.analyze += best_of_3("classify.analyze", parent, || analyze(&nodes));
        r.oracle += best_of_3("classify.analyze_oracle", parent, || analyze_oracle(&nodes));
        r.plan += best_of_3("strands.plan", parent, || {
            plan(&nodes, &df, tr.acc_count, tr.form == IsaForm::Basic)
        });
        r.translate_warm += best_of_3("translate.translate_warm", parent, || tr.translate(&e.sb));
        r.verify_warm += best_of_3("verifier.verify_translation_warm", parent, || {
            ildp_verifier::verify_translation(&e.sb, &code, tr)
        });
        r.verify_artifact += best_of_3("verifier.verify_artifact", parent, || {
            ildp_verifier::verify_artifact(&e.sb, &code, tr)
        });

        let (key, _) = timed("artifact.artifact_key", parent, || {
            artifact_key(programs[e.program], &e.sb, tr)
        });
        let (artifact, a) = timed("artifact.from_translation", parent, || {
            FragmentArtifact::from_translation(&code, tr.form)
        });
        let (bytes, b) = timed("artifact.to_bytes", parent, || artifact.to_bytes(key));
        r.publish += a + b;
        let (decoded, a) = timed("artifact.from_bytes", parent, || {
            FragmentArtifact::from_bytes(&bytes)
        });
        let (_, b) = timed("artifact.to_translated_code", parent, || match &decoded {
            Ok((_, art)) => Some(black_box(art.to_translated_code())),
            Err(_) => None,
        });
        r.rehydrate += a + b;
        match decoded {
            Ok((k, art)) if k == key && art.insts == code.insts => {}
            _ => r.mismatches += 1,
        }
        store.put(key, &artifact);
    }
    (r, store)
}

/// Times three back-to-back calls of `f`, each as a span named `name`,
/// and returns the fastest, in ns.
fn best_of_3<T>(name: &'static str, parent: u64, f: impl Fn() -> T) -> u64 {
    (0..3)
        .map(|_| timed(name, parent, || black_box(f())).1)
        .min()
        .expect("three calls")
}

/// Per-name totals: `(count, total ns, self ns)`. A span's self time is
/// its duration minus the part its children on the same thread cover;
/// a child on another thread (an asynchronous validator) ran alongside
/// its parent, not inside it, and is not subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut inner: Vec<(u64, u64)> = children
            .get(&s.id)
            .into_iter()
            .flatten()
            .filter(|c| c.tid == s.tid)
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        inner.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start);
        for (a, b) in inner {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end - s.start;
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += total - covered;
    }
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.id,
            s.parent,
            s.run,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64, tid: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: if parent == 0 { "p" } else { "c" },
            start,
            end,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_same_thread_children() {
        let spans = [
            span(1, 0, 0, 100, 1),
            span(2, 1, 10, 40, 1),
            span(3, 1, 30, 50, 1),
            span(4, 1, 60, 90, 2),
        ];
        let t = self_times(&spans);
        assert_eq!(t["p"], (1, 100, 60));
        assert_eq!(t["c"], (3, 80, 80));
    }
}
