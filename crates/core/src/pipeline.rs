//! The supervised background translation pipeline (worker pool).
//!
//! The paper's two-stage model performs MRET superblock formation,
//! strand/accumulator assignment and (in this reproduction) the verifier
//! passes synchronously on the execution hot path: every hot-region
//! promotion stalls the guest for the full translate + verify latency.
//! This module moves the *pure* part of that work off-thread.
//!
//! The split is dictated by determinism: superblock **collection**
//! executes the guest path once and mutates architected state, so it
//! stays synchronous on the VM thread. Translation and verification are
//! pure functions of the collected [`Superblock`] and the
//! [`Translator`] configuration, so a [`TranslateRequest`] carries the
//! owned superblock to a detached worker, and the finished (translated
//! and verified) fragment travels back over a per-VM channel to be
//! installed at its count anchor, a fragment-boundary safe point fixed at
//! submit time. Per-region
//! in-flight dedup and the install decision itself (stale-epoch,
//! demotion and SMC checks) remain on the VM thread — the worker never
//! touches VM state.
//!
//! # Supervision and the failure envelope
//!
//! The pool is one failure domain shared by every VM in the process, so
//! it is built never to propagate a fault into a VM thread:
//!
//! - **Panic containment.** Each job runs under `catch_unwind`; a panic
//!   in translate/verify becomes a structured
//!   [`TranslateError::Panicked`] reply instead of a lost request.
//! - **Dead-worker detection and respawn.** A live-worker count is
//!   maintained by drop guards; [`TranslatePool::submit`] respawns
//!   missing workers under capped exponential backoff, and
//!   [`TranslatePool::heal`] forces a full respawn immediately.
//! - **Bounded queue with backpressure.** The submission queue is
//!   bounded; a saturated pool returns
//!   [`SubmitOutcome::Saturated`] (handing the request back) and the VM
//!   sheds to its synchronous path instead of queueing unboundedly.
//! - **Poison recovery.** Every pool lock acquisition recovers from
//!   poisoning (`clear_poison` + `into_inner`, counted in
//!   [`PoolStats::lock_recoveries`]); a worker that dies holding the
//!   queue lock cannot take the pool down with it.
//!
//! The VM-side half of the envelope lives in `vm/background.rs`: every
//! reply is taken at a count anchor, under a deadline, and every fault
//! (timeout, dropped reply, dead worker, shed, contained panic) falls
//! back to translating inline for the same anchor, so a fault never
//! changes what the guest retires. The `lint pool` harness injects every
//! fault class via [`PoolFaults`] and gates the whole envelope.
//!
//! The pool is plain `std::thread` + a condvar'd `VecDeque` (the build
//! is offline; no runtime deps). Workers are detached and shared
//! process-wide via [`TranslatePool::global`], so N VMs on M OS threads
//! share one translation service, as a warehouse-scale deployment would.

use crate::error::TranslateError;
use crate::translate::{TranslatedCode, Translator};
use crate::vm::{InstallReview, InstallValidator};
use crate::Superblock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One unit of background translation work: an owned superblock plus the
/// translator tier to run it through. The collected block is a pure
/// value — translating it does not touch guest state.
pub struct TranslateRequest {
    /// Entry V-address of the region (echoed back in the response).
    pub vstart: u64,
    /// Caller-chosen submission token, echoed back verbatim. The VM uses
    /// it to tell a live reply from a late one (a submission it already
    /// timed out and resolved synchronously): a reply whose token does
    /// not match the current in-flight submission is discarded, so a
    /// delayed worker can never install code from a superseded tier.
    pub token: u64,
    /// The collected superblock (owned; collection already ran on the VM
    /// thread).
    pub sb: Superblock,
    /// The translator tier for this region's current ladder level.
    pub translator: Translator,
    /// Optional install validator to run worker-side. Validator reports
    /// collected via thread-local side channels stay on the worker
    /// thread; only the verdict travels back.
    pub validator: Option<InstallValidator>,
    /// Where the finished translation goes (the submitting VM's reply
    /// channel).
    pub reply: Sender<TranslateResponse>,
}

/// A successfully produced translation (the `Ok` half of a
/// [`TranslateResponse`]).
#[derive(Debug)]
pub struct TranslateOutput {
    /// The emitted translation.
    pub code: TranslatedCode,
    /// The validator's verdict (`Ok` when no validator was configured).
    pub verdict: Result<(), String>,
    /// Of the response's `wall_nanos`, the nanoseconds spent in the
    /// validator.
    pub verify_nanos: u64,
}

/// A finished background translation (or a contained worker fault),
/// ready for the safe-point install decision on the VM thread.
pub struct TranslateResponse {
    /// Entry V-address of the region.
    pub vstart: u64,
    /// The submission token from the originating request.
    pub token: u64,
    /// Wall nanoseconds the worker spent on the job.
    pub wall_nanos: u64,
    /// The translation, or the structured fault that prevented it.
    pub result: Result<TranslateOutput, TranslateError>,
}

/// Which fault a seeded [`PoolFaults`] plan injects into one request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoolFaultKind {
    /// The worker panics mid-job (contained by `catch_unwind`, surfaces
    /// as a [`TranslateError::Panicked`] reply).
    Panic,
    /// The worker thread dies without replying (the supervisor must
    /// detect and respawn; the VM's deadline must fire).
    Kill,
    /// The job completes but its reply is dropped (indistinguishable
    /// from a kill on the VM side: the deadline must fire).
    DropReply,
    /// The worker stalls for [`PoolFaults::delay`] before completing —
    /// an unbounded-latency stand-in that must trip the VM's deadline,
    /// with the late reply arriving after the region was given up on.
    Delay,
    /// The worker panics while holding the queue lock, poisoning it;
    /// every later acquisition must recover
    /// ([`PoolStats::lock_recoveries`]), and the job itself still
    /// completes.
    PoisonQueue,
}

/// A deterministic seeded fault-injection plan for the pool. Each
/// submitted request gets a sequence number; [`PoolFaults::decide`] is a
/// pure function of `(seed, seq)`, so a plan replays identically for the
/// same submission order. Injected panics carry
/// [`INJECTED_PANIC_MARKER`] so harnesses can silence exactly them (see
/// [`silence_injected_panics`]).
#[derive(Clone, Debug)]
pub struct PoolFaults {
    /// Plan seed.
    pub seed: u64,
    /// One in `rate` requests is faulted (`1` faults every request; `0`
    /// is rejected at parse time and treated as `1` here).
    pub rate: u32,
    /// The fault kinds drawn from, pseudo-randomly per faulted request.
    pub kinds: Vec<PoolFaultKind>,
    /// Stall length for [`PoolFaultKind::Delay`] injections.
    pub delay: Duration,
}

impl PoolFaults {
    /// The fault (if any) this plan injects into request number `seq`.
    /// Pure: the same `(seed, seq)` always decides the same fault.
    pub fn decide(&self, seq: u64) -> Option<PoolFaultKind> {
        if self.kinds.is_empty() {
            return None;
        }
        let draw = splitmix64(self.seed ^ splitmix64(seq.wrapping_add(1)));
        if !draw.is_multiple_of(u64::from(self.rate.max(1))) {
            return None;
        }
        let pick = splitmix64(draw) as usize % self.kinds.len();
        Some(self.kinds[pick])
    }
}

/// SplitMix64: the tiny, high-quality seed scrambler behind
/// [`PoolFaults::decide`] (kept local — `core` depends on no workload
/// crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Marker embedded in every panic message the fault-injection plan (and
/// [`TranslatePool::poison_queue_lock`]) raises on purpose, so test
/// harnesses can suppress exactly the expected panic-hook noise while
/// real translator panics still print.
pub const INJECTED_PANIC_MARKER: &str = "ildp-pool injected fault";

/// Installs a process-wide panic hook that silences panics carrying
/// [`INJECTED_PANIC_MARKER`] and delegates everything else to the
/// previous hook. Idempotent; meant for fault-injection harnesses whose
/// runs would otherwise print hundreds of expected backtrace headers.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Aggregate pool counters, snapshotted by [`TranslatePool::stats`].
/// Injection counters increment at the injection site itself, so a
/// fault plan's effects are fully accounted even when the faulted reply
/// never reaches a VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Replies actually sent (successful or structured-error).
    pub completed: u64,
    /// Submissions refused because the bounded queue was full.
    pub saturations: u64,
    /// Worker panics contained at the `catch_unwind` boundary (injected
    /// or real).
    pub panics_caught: u64,
    /// Workers that died without replying (injected kills).
    pub workers_killed: u64,
    /// Completed jobs whose reply was deliberately dropped (injected).
    pub replies_dropped: u64,
    /// Injected worker stalls.
    pub delays_injected: u64,
    /// Injected queue-lock poisonings (worker-side and external).
    pub poisons_injected: u64,
    /// Poisoned-lock acquisitions recovered (`clear_poison`).
    pub lock_recoveries: u64,
    /// Workers respawned by the supervisor.
    pub respawns: u64,
}

#[derive(Default)]
struct PoolCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    saturations: AtomicU64,
    panics_caught: AtomicU64,
    workers_killed: AtomicU64,
    replies_dropped: AtomicU64,
    delays_injected: AtomicU64,
    poisons_injected: AtomicU64,
    lock_recoveries: AtomicU64,
    respawns: AtomicU64,
}

/// One queued job: the request plus its fault-plan sequence number.
struct Job {
    seq: u64,
    req: TranslateRequest,
}

/// The bounded submission queue. `closed` tells drained workers to exit
/// (set when the pool is dropped); remaining jobs still complete first.
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// State shared between the pool handle and its worker threads. Workers
/// hold only this (never the pool itself), so dropping the pool closes
/// the queue and lets every worker exit.
struct WorkerShared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    live: AtomicUsize,
    counters: PoolCounters,
    faults: Option<PoolFaults>,
    name_seq: AtomicUsize,
}

impl WorkerShared {
    /// Locks the queue, recovering (and counting) a poisoned lock: pool
    /// state never propagates a worker panic into the caller.
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.counters
                    .lock_recoveries
                    .fetch_add(1, Ordering::Relaxed);
                self.queue.clear_poison();
                poisoned.into_inner()
            }
        }
    }
}

/// Capped exponential backoff between supervisor respawn bursts, so a
/// crash-looping worker (every spawn dies immediately) cannot turn the
/// submit path into a spawn storm.
struct RespawnState {
    attempts: u32,
    next_allowed: Option<Instant>,
}

const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(1);
const RESPAWN_BACKOFF_CAP_EXP: u32 = 8; // base << 8 = 256ms max

/// What [`TranslatePool::submit`] did with a request.
pub enum SubmitOutcome {
    /// The request was queued; a worker will reply on the request's
    /// channel. `respawned` workers were revived by the submit-side
    /// supervision pass.
    Queued {
        /// Dead workers respawned during this submission.
        respawned: u64,
    },
    /// The bounded queue was full: the request is handed back untouched
    /// so the caller can translate synchronously (backpressure — the VM
    /// sheds instead of queueing unboundedly).
    Saturated {
        /// Dead workers respawned during this submission.
        respawned: u64,
        /// The rejected request, returned to the caller.
        request: TranslateRequest,
    },
}

/// A shared, supervised pool of detached translation worker threads.
///
/// Jobs are distributed over one bounded multi-consumer queue; each job
/// carries its own reply sender, so any number of VMs can share the pool
/// concurrently. See the module docs for the failure envelope.
pub struct TranslatePool {
    shared: Arc<WorkerShared>,
    workers: usize,
    queue_cap: usize,
    seq: AtomicU64,
    respawn: Mutex<RespawnState>,
}

impl std::fmt::Debug for TranslatePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranslatePool")
            .field("workers", &self.workers)
            .field("live", &self.live_workers())
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

impl TranslatePool {
    /// Spawns a pool with `workers` detached worker threads (clamped to
    /// at least one) and a default queue bound of 64 jobs per worker.
    pub fn new(workers: usize) -> Arc<TranslatePool> {
        TranslatePool::with_options(workers, workers.max(1) * 64, None)
    }

    /// Spawns a pool with an explicit queue bound and an optional seeded
    /// fault-injection plan (`lint pool` and the resilience tests; `None`
    /// in production).
    pub fn with_options(
        workers: usize,
        queue_cap: usize,
        faults: Option<PoolFaults>,
    ) -> Arc<TranslatePool> {
        let workers = workers.max(1);
        let shared = Arc::new(WorkerShared {
            queue: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            live: AtomicUsize::new(0),
            counters: PoolCounters::default(),
            faults,
            name_seq: AtomicUsize::new(0),
        });
        for _ in 0..workers {
            // Startup spawn failure is a process-level resource problem;
            // the supervisor retries on the next submit either way.
            let _ = spawn_worker(&shared);
        }
        Arc::new(TranslatePool {
            shared,
            workers,
            queue_cap,
            seq: AtomicU64::new(0),
            respawn: Mutex::new(RespawnState {
                attempts: 0,
                next_allowed: None,
            }),
        })
    }

    /// The process-wide shared pool, sized by the `ILDP_TRANSLATE_WORKERS`
    /// environment variable when set, otherwise one less than the
    /// available parallelism, clamped to 1..=4. An `ILDP_POOL_FAULTS`
    /// plan (see [`parse_pool_faults`]) attaches seeded fault injection.
    ///
    /// # Panics
    ///
    /// An invalid `ILDP_TRANSLATE_WORKERS` or `ILDP_POOL_FAULTS` value is
    /// a startup configuration error and panics with a clear message —
    /// never a silent fallback to defaults.
    pub fn global() -> &'static Arc<TranslatePool> {
        static GLOBAL: OnceLock<Arc<TranslatePool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = match std::env::var("ILDP_TRANSLATE_WORKERS") {
                Ok(v) => parse_workers(&v)
                    .unwrap_or_else(|e| panic!("invalid ILDP_TRANSLATE_WORKERS: {e}")),
                Err(_) => {
                    let cores = std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(2);
                    cores.saturating_sub(1).clamp(1, 4)
                }
            };
            let faults = match std::env::var("ILDP_POOL_FAULTS") {
                Ok(v) => Some(
                    parse_pool_faults(&v)
                        .unwrap_or_else(|e| panic!("invalid ILDP_POOL_FAULTS: {e}")),
                ),
                Err(_) => None,
            };
            TranslatePool::with_options(workers, workers * 64, faults)
        })
    }

    /// Number of worker threads the pool targets.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of worker threads currently alive.
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            saturations: c.saturations.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            workers_killed: c.workers_killed.load(Ordering::Relaxed),
            replies_dropped: c.replies_dropped.load(Ordering::Relaxed),
            delays_injected: c.delays_injected.load(Ordering::Relaxed),
            poisons_injected: c.poisons_injected.load(Ordering::Relaxed),
            lock_recoveries: c.lock_recoveries.load(Ordering::Relaxed),
            respawns: c.respawns.load(Ordering::Relaxed),
        }
    }

    /// Current submission-queue depth. Takes (and, if necessary,
    /// recovers) the queue lock, so calling it after a run also observes
    /// any still-poisoned lock.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_queue().jobs.len()
    }

    /// Enqueues a translation request, after a supervision pass that
    /// respawns any dead workers (under capped exponential backoff).
    /// Never panics and never blocks on a full queue: saturation hands
    /// the request back as [`SubmitOutcome::Saturated`].
    pub fn submit(&self, req: TranslateRequest) -> SubmitOutcome {
        let respawned = self.supervise();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut q = self.shared.lock_queue();
        if q.jobs.len() >= self.queue_cap {
            drop(q);
            self.shared
                .counters
                .saturations
                .fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Saturated {
                respawned,
                request: req,
            };
        }
        q.jobs.push_back(Job { seq, req });
        drop(q);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.ready.notify_one();
        SubmitOutcome::Queued { respawned }
    }

    /// Respawns every dead worker immediately, ignoring the backoff
    /// window, and resets the backoff state. Returns the number
    /// respawned. Harnesses call this to assert the pool heals to full
    /// strength after a kill storm.
    pub fn heal(&self) -> u64 {
        let mut st = self.lock_respawn();
        st.attempts = 0;
        st.next_allowed = None;
        drop(st);
        let mut spawned = 0u64;
        while self.shared.live.load(Ordering::Acquire) < self.workers {
            if spawn_worker(&self.shared).is_err() {
                break;
            }
            spawned += 1;
        }
        if spawned > 0 {
            self.shared
                .counters
                .respawns
                .fetch_add(spawned, Ordering::Relaxed);
        }
        spawned
    }

    /// Poisons the submission-queue lock from the calling thread (a
    /// deliberate panic under `catch_unwind` while holding it) — the
    /// fault-injection entry point for external lock poisoning. The next
    /// acquisition recovers and is counted in
    /// [`PoolStats::lock_recoveries`].
    pub fn poison_queue_lock(&self) {
        self.shared
            .counters
            .poisons_injected
            .fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = shared.queue.lock();
            panic!("{INJECTED_PANIC_MARKER}: external queue-lock poison");
        }));
    }

    /// The submit-side supervision pass: when workers have died, respawn
    /// up to the target count — but only once per backoff window, with
    /// the window growing exponentially (capped) while the deficit
    /// persists. Returns the number respawned.
    fn supervise(&self) -> u64 {
        if self.shared.live.load(Ordering::Acquire) >= self.workers {
            // Fully staffed: reset the backoff so the next real death
            // respawns promptly.
            let mut st = self.lock_respawn();
            if st.attempts != 0 {
                st.attempts = 0;
                st.next_allowed = None;
            }
            return 0;
        }
        let mut st = self.lock_respawn();
        let now = Instant::now();
        if st.next_allowed.is_some_and(|t| now < t) {
            return 0;
        }
        let mut spawned = 0u64;
        while self.shared.live.load(Ordering::Acquire) < self.workers {
            if spawn_worker(&self.shared).is_err() {
                break;
            }
            spawned += 1;
        }
        let backoff = RESPAWN_BACKOFF_BASE * 2u32.pow(st.attempts.min(RESPAWN_BACKOFF_CAP_EXP));
        st.attempts = st.attempts.saturating_add(1);
        st.next_allowed = Some(now + backoff);
        drop(st);
        if spawned > 0 {
            self.shared
                .counters
                .respawns
                .fetch_add(spawned, Ordering::Relaxed);
        }
        spawned
    }

    fn lock_respawn(&self) -> MutexGuard<'_, RespawnState> {
        match self.respawn.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.shared
                    .counters
                    .lock_recoveries
                    .fetch_add(1, Ordering::Relaxed);
                self.respawn.clear_poison();
                poisoned.into_inner()
            }
        }
    }
}

impl Drop for TranslatePool {
    fn drop(&mut self) {
        // Close the queue and wake every idle worker so they exit;
        // workers drain any remaining jobs first.
        self.shared.lock_queue().closed = true;
        self.shared.ready.notify_all();
    }
}

/// Validates an `ILDP_TRANSLATE_WORKERS` value: a positive integer
/// worker count. Anything else is a configuration error to surface at
/// startup, not to paper over with a default.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{value:?}: worker count must be at least 1 (unset the variable for the default)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{value:?}: expected a positive integer worker count"
        )),
    }
}

/// Validates an `ILDP_POOL_FAULTS` value: `seed:rate:kinds`, where
/// `seed` is the plan seed, one in `rate` requests is faulted, and
/// `kinds` is a non-empty string over `p`anic, `k`ill, `d`rop-reply,
/// dela`y`, poison-`q`ueue (e.g. `42:8:pkdyq`). Injected delays are
/// fixed at 50ms.
pub fn parse_pool_faults(value: &str) -> Result<PoolFaults, String> {
    let parts: Vec<&str> = value.split(':').collect();
    let [seed, rate, kinds] = parts[..] else {
        return Err(format!("{value:?}: expected seed:rate:kinds"));
    };
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("{value:?}: seed {seed:?} is not a u64"))?;
    let rate = match rate.parse::<u32>() {
        Ok(0) | Err(_) => {
            return Err(format!(
                "{value:?}: rate {rate:?} must be a positive integer (1 faults every request)"
            ))
        }
        Ok(n) => n,
    };
    if kinds.is_empty() {
        return Err(format!("{value:?}: kinds must be non-empty"));
    }
    let kinds = kinds
        .chars()
        .map(|c| match c {
            'p' => Ok(PoolFaultKind::Panic),
            'k' => Ok(PoolFaultKind::Kill),
            'd' => Ok(PoolFaultKind::DropReply),
            'y' => Ok(PoolFaultKind::Delay),
            'q' => Ok(PoolFaultKind::PoisonQueue),
            other => Err(format!(
                "{value:?}: unknown fault kind {other:?} (want [pkdyq])"
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PoolFaults {
        seed,
        rate,
        kinds,
        delay: Duration::from_millis(50),
    })
}

/// Spawns one worker, crediting the live count up front (so a racing
/// supervision pass never over-spawns) and rolling it back if the OS
/// refuses the thread.
fn spawn_worker(shared: &Arc<WorkerShared>) -> std::io::Result<()> {
    shared.live.fetch_add(1, Ordering::AcqRel);
    let idx = shared.name_seq.fetch_add(1, Ordering::Relaxed);
    let cloned = Arc::clone(shared);
    let result = std::thread::Builder::new()
        .name(format!("ildp-translate-{idx}"))
        .spawn(move || worker_loop(&cloned));
    if result.is_err() {
        shared.live.fetch_sub(1, Ordering::AcqRel);
    }
    result.map(|_| ())
}

/// Decrements the live-worker count however the worker exits — normal
/// shutdown, injected kill, or an unwinding panic that escaped the job
/// boundary — so the supervisor's deficit view is always accurate.
struct LiveGuard<'a>(&'a AtomicUsize);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Translates and verifies one request; pure with respect to VM state.
/// Shared so the VM's synchronous fallback path produces byte-identical
/// results to the worker threads. Returns the translation with its
/// verdict, and the total wall nanoseconds (of which the output's
/// `verify_nanos` were spent in the validator).
pub fn translate_job(
    sb: &Superblock,
    translator: &Translator,
    validator: Option<InstallValidator>,
) -> (TranslateOutput, u64) {
    let t0 = std::time::Instant::now();
    let code = translator.translate(sb);
    let v0 = std::time::Instant::now();
    let verdict = match validator {
        Some(v) => {
            let review = InstallReview {
                sb,
                code: &code,
                translator,
            };
            v(&review)
        }
        None => Ok(()),
    };
    let verify_nanos = v0.elapsed().as_nanos() as u64;
    let out = TranslateOutput {
        code,
        verdict,
        verify_nanos,
    };
    (out, t0.elapsed().as_nanos() as u64)
}

fn worker_loop(shared: &Arc<WorkerShared>) {
    let _live = LiveGuard(&shared.live);
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = match shared.ready.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => {
                        shared
                            .counters
                            .lock_recoveries
                            .fetch_add(1, Ordering::Relaxed);
                        shared.queue.clear_poison();
                        poisoned.into_inner()
                    }
                };
            }
        };
        let Some(job) = job else {
            // Queue closed and drained: the pool was dropped.
            return;
        };
        let fault = shared.faults.as_ref().and_then(|f| f.decide(job.seq));
        match fault {
            Some(PoolFaultKind::Kill) => {
                // Die without replying: the VM-side deadline and the
                // supervisor's respawn are the recovery path.
                shared
                    .counters
                    .workers_killed
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(PoolFaultKind::PoisonQueue) => {
                shared
                    .counters
                    .poisons_injected
                    .fetch_add(1, Ordering::Relaxed);
                // Panic while holding the queue lock (idle peers wait on
                // the condvar without holding it, so this acquisition
                // cannot deadlock); the mutex is now poisoned and every
                // later acquisition must recover. The job itself still
                // completes below.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _guard = shared.queue.lock();
                    panic!("{INJECTED_PANIC_MARKER}: worker queue-lock poison");
                }));
            }
            Some(PoolFaultKind::Delay) => {
                shared
                    .counters
                    .delays_injected
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(f) = &shared.faults {
                    std::thread::sleep(f.delay);
                }
            }
            _ => {}
        }
        let req = job.req;
        let inject_panic = fault == Some(PoolFaultKind::Panic);
        let t0 = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "{INJECTED_PANIC_MARKER}: worker panic on request {}",
                    job.seq
                );
            }
            translate_job(&req.sb, &req.translator, req.validator)
        }));
        let wall_nanos = t0.elapsed().as_nanos() as u64;
        let result = match outcome {
            Ok((out, _)) => Ok(out),
            Err(payload) => {
                shared
                    .counters
                    .panics_caught
                    .fetch_add(1, Ordering::Relaxed);
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(TranslateError::Panicked { message })
            }
        };
        if fault == Some(PoolFaultKind::DropReply) {
            shared
                .counters
                .replies_dropped
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // The VM may have been dropped while we worked; that is fine.
        if req
            .reply
            .send(TranslateResponse {
                vstart: req.vstart,
                token: req.token,
                wall_nanos,
                result,
            })
            .is_ok()
        {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{collect_superblock, ProfileConfig};
    use alpha_isa::{Assembler, Reg};
    use std::sync::mpsc::channel;

    fn hot_superblock() -> Superblock {
        let mut asm = Assembler::new(0x1_0000);
        asm.lda_imm(Reg::A0, 50);
        let top_pc = asm.current_pc();
        let top = asm.here("top");
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        cpu.pc = top_pc;
        cpu.write(Reg::A0, 50);
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default())
            .expect("collection");
        assert!(!sb.is_empty());
        sb
    }

    fn request(sb: &Superblock, reply: Sender<TranslateResponse>) -> TranslateRequest {
        TranslateRequest {
            vstart: sb.start,
            token: 0,
            sb: sb.clone(),
            translator: Translator::default(),
            validator: None,
            reply,
        }
    }

    #[test]
    fn pool_translates_off_thread() {
        let sb = hot_superblock();
        let pool = TranslatePool::new(2);
        assert_eq!(pool.workers(), 2);
        let translator = Translator::default();
        let (reply, inbox) = channel();
        // Reference result from the shared synchronous job.
        let (reference, _) = translate_job(&sb, &translator, None);
        assert!(reference.verdict.is_ok());
        assert!(matches!(
            pool.submit(request(&sb, reply)),
            SubmitOutcome::Queued { .. }
        ));
        let resp = inbox
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("worker reply");
        assert_eq!(resp.vstart, sb.start);
        let out = resp.result.expect("clean translation");
        assert!(out.verdict.is_ok());
        assert_eq!(out.code.insts, reference.code.insts);
        assert_eq!(out.code.meta, reference.code.meta);
        assert_eq!(out.code.src_inst_count, reference.code.src_inst_count);
        // The worker counts a reply only once `send` has returned, so the
        // counter may trail the reply this thread already received.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pool.stats().completed == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn injected_panic_returns_structured_error() {
        silence_injected_panics();
        let sb = hot_superblock();
        let pool = TranslatePool::with_options(
            1,
            16,
            Some(PoolFaults {
                seed: 3,
                rate: 1,
                kinds: vec![PoolFaultKind::Panic],
                delay: Duration::from_millis(1),
            }),
        );
        let (reply, inbox) = channel();
        assert!(matches!(
            pool.submit(request(&sb, reply)),
            SubmitOutcome::Queued { .. }
        ));
        let resp = inbox
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("structured panic reply");
        let Err(TranslateError::Panicked { message }) = resp.result else {
            panic!("expected a panic reply");
        };
        assert!(message.contains(INJECTED_PANIC_MARKER));
        assert_eq!(pool.stats().panics_caught, 1);
        // The worker survived its contained panic and still serves.
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn killed_workers_are_respawned() {
        let sb = hot_superblock();
        let pool = TranslatePool::with_options(
            2,
            16,
            Some(PoolFaults {
                seed: 11,
                rate: 1,
                kinds: vec![PoolFaultKind::Kill],
                delay: Duration::from_millis(1),
            }),
        );
        let (reply, inbox) = channel();
        for _ in 0..3 {
            assert!(matches!(
                pool.submit(request(&sb, reply.clone())),
                SubmitOutcome::Queued { .. }
            ));
        }
        // Killed workers never reply; the deadline-free wait here is on
        // the *stats*, not a reply channel.
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.stats().workers_killed < 3 && Instant::now() < deadline {
            pool.heal();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.stats().workers_killed, 3);
        assert!(inbox.try_recv().is_err(), "killed workers must not reply");
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.live_workers() < 2 && Instant::now() < deadline {
            pool.heal();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.live_workers(), 2, "supervisor must restore the pool");
        assert!(pool.stats().respawns >= 1);
    }

    #[test]
    fn saturated_queue_hands_the_request_back() {
        let sb = hot_superblock();
        // Capacity zero: every submission sheds.
        let pool = TranslatePool::with_options(1, 0, None);
        let (reply, _inbox) = channel();
        let SubmitOutcome::Saturated { request: back, .. } = pool.submit(request(&sb, reply))
        else {
            panic!("zero-capacity queue must saturate");
        };
        assert_eq!(back.vstart, sb.start);
        assert_eq!(pool.stats().saturations, 1);
        assert_eq!(pool.stats().submitted, 0);
    }

    #[test]
    fn poisoned_queue_lock_is_recovered() {
        silence_injected_panics();
        let sb = hot_superblock();
        let pool = TranslatePool::with_options(1, 16, None);
        pool.poison_queue_lock();
        // The next submission recovers the lock and still queues.
        let (reply, inbox) = channel();
        assert!(matches!(
            pool.submit(request(&sb, reply)),
            SubmitOutcome::Queued { .. }
        ));
        let resp = inbox
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("reply after poison recovery");
        assert!(resp.result.is_ok());
        let stats = pool.stats();
        assert_eq!(stats.poisons_injected, 1);
        assert!(stats.lock_recoveries >= 1, "poison must be recovered");
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = PoolFaults {
            seed: 42,
            rate: 2,
            kinds: vec![PoolFaultKind::Panic, PoolFaultKind::Kill],
            delay: Duration::from_millis(1),
        };
        let a: Vec<_> = (0..64).map(|s| plan.decide(s)).collect();
        let b: Vec<_> = (0..64).map(|s| plan.decide(s)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()), "rate 2 must fault some");
        assert!(a.iter().any(|f| f.is_none()), "rate 2 must spare some");
    }

    #[test]
    fn env_knobs_reject_invalid_values() {
        assert_eq!(parse_workers("3"), Ok(3));
        assert_eq!(parse_workers(" 2 "), Ok(2));
        assert!(parse_workers("0").is_err());
        assert!(parse_workers("").is_err());
        assert!(parse_workers("many").is_err());
        assert!(parse_workers("-1").is_err());

        let plan = parse_pool_faults("42:8:pkdyq").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rate, 8);
        assert_eq!(plan.kinds.len(), 5);
        assert!(parse_pool_faults("").is_err());
        assert!(parse_pool_faults("42:8").is_err());
        assert!(parse_pool_faults("x:8:p").is_err());
        assert!(parse_pool_faults("42:0:p").is_err());
        assert!(parse_pool_faults("42:8:").is_err());
        assert!(parse_pool_faults("42:8:pz").is_err());
    }
}
