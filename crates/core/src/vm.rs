//! The co-designed virtual machine run loop (paper §4.1).
//!
//! Orchestrates the three modes: **interpret** (with candidate profiling),
//! **translate** (superblock collection → strand translation → fragment
//! installation and patching), and **execute** (the [`Engine`] running
//! translated code, streaming the retired-instruction trace into a timing
//! model). Matches the paper's simulation methodology: detailed timing is
//! collected for translated (and chained) code only, and the overall
//! performance metric is V-ISA instructions per cycle over that trace.

use crate::artifact::{artifact_key, ArtifactKey, FragmentArtifact, FragmentStore, StoreLookup};
use crate::classify::CategoryCounts;
use crate::cost::CostModel;
use crate::engine::{Engine, EngineConfig, FragExit, TraceSink};
use crate::error::{SnapshotError, VmError};
use crate::fragment::{FragmentId, TranslationCache};
use crate::pipeline::{
    translate_job, SubmitOutcome, TranslatePool, TranslateRequest, TranslateResponse,
};
use crate::profile::{
    collect_superblock_with_output, interp_block, Candidates, InterpEvent, ProfileConfig,
};
use crate::replay::ReplayEvent;
use crate::snapshot::{program_digest, Snapshot};
use crate::translate::{ChainPolicy, TranslatedCode, Translator};
use alpha_isa::{CpuState, DecodeCache, Memory, Program, Trap};
use ildp_uarch::{DynInst, InstClass};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Dynamo-style phase-change flushing (paper §4.1, after Dynamo): when
/// fragment formation accelerates abruptly — the signature of a program
/// phase change — the whole translation cache is flushed so the new
/// phase's code gets freshly formed fragments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlushPolicy {
    /// Window length, in V-ISA instructions executed.
    pub window: u64,
    /// Fragments created within one window that trigger a flush.
    pub max_new_fragments: u32,
}

impl Default for FlushPolicy {
    fn default() -> FlushPolicy {
        FlushPolicy {
            window: 200_000,
            max_new_fragments: 64,
        }
    }
}

/// One translation, presented to an [`InstallValidator`] before it is
/// installed in the translation cache.
#[derive(Debug)]
pub struct InstallReview<'a> {
    /// The collected source superblock.
    pub sb: &'a crate::Superblock,
    /// The emitted translation (code, metadata, recovery tables, and the
    /// analysis trace behind them).
    pub code: &'a crate::TranslatedCode,
    /// The translator configuration that produced it.
    pub translator: &'a Translator,
}

/// Install-time translation validation hook.
///
/// A plain function pointer (not a closure) so [`VmConfig`] stays `Copy`;
/// `Err` carries a human-readable diagnostic. The `ildp-verifier` crate
/// provides implementations running its static-analysis passes.
pub type InstallValidator = fn(&InstallReview<'_>) -> Result<(), String>;

/// What the VM does when the install validator rejects a translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OnViolation {
    /// Panic with the diagnostic — a rejected translation is a translator
    /// bug, and tests want to fail loudly.
    #[default]
    Panic,
    /// Refuse the installation and keep interpreting that code
    /// (`reject-on-violation` mode): the fragment never enters the cache,
    /// and [`VmStats::verify_rejected`] counts the refusal.
    Reject,
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Translator settings (ISA form, chaining policy, accumulators).
    pub translator: Translator,
    /// Profiling thresholds.
    pub profile: ProfileConfig,
    /// Engine settings.
    pub engine: EngineConfig,
    /// Translation-overhead cost model.
    pub cost: CostModel,
    /// Optional phase-change cache flushing (off by default, matching the
    /// paper's evaluated configuration).
    pub flush: Option<FlushPolicy>,
    /// Optional install-time translation validator.
    pub validator: Option<InstallValidator>,
    /// Response to validator rejections.
    pub on_violation: OnViolation,
    /// Optional translation-cache code budget in bytes: installing past it
    /// clock-evicts cold fragments ([`VmStats::evictions`]). `None` keeps
    /// the unbounded cache the paper assumes.
    pub cache_budget: Option<u64>,
    /// Optional per-dispatch watchdog fuel in V-ISA instructions: an
    /// engine dispatch retiring more is preempted at the next fragment
    /// boundary and its entry region demoted. `None` disables the
    /// watchdog.
    pub fuel: Option<u64>,
    /// Degradation-ladder depth: how many demotions a region takes before
    /// it is blacklisted to interpret-only. Level 0 translates with the
    /// configured translator, levels ≥ 1 without the optional
    /// optimizations; `max_demotions` of 0 means interpret everything.
    pub max_demotions: u8,
    /// Translate hot regions on the shared background worker pool
    /// (default). Superblock collection stays on the execution thread —
    /// architected state is identical in either mode — and the finished
    /// fragment installs at the next fragment-boundary safe point.
    /// `false` restores the fully synchronous pipeline (translation
    /// stalls the guest), the mode deterministic-replay harnesses pin.
    pub async_translate: bool,
    /// Per-request deadline for background translation: a blocking wait
    /// on an in-flight request ([`VmStats::pool_timeouts`]) gives up
    /// after this long and the VM translates synchronously instead — the
    /// upper bound on how long any VM step can block on the pool,
    /// whatever the pool's workers are doing.
    pub translate_timeout: Duration,
    /// Share translated-and-verified fragments through the process-wide
    /// [`FragmentStore`]: translations are published keyed by guest-code
    /// digest and translator configuration, and later VMs running the
    /// same code warm-start from the store instead of re-translating.
    pub shared_cache: bool,
    /// Optional re-verification of warm-start artifacts before install:
    /// when set, every fragment taken from the shared [`FragmentStore`]
    /// is rehydrated and run through this validator first (the
    /// `ildp-verifier` crate's `artifact_validator` runs the trace-free
    /// pass families). A refused artifact is removed from the store,
    /// counted in [`VmStats::store_quarantined`], and the VM falls back
    /// to translating fresh — the policy for stores whose provenance is
    /// not trusted, e.g. loaded from disk.
    pub store_validator: Option<InstallValidator>,
    /// Deterministic install delay, in retired V-ISA instructions:
    /// translations complete immediately (synchronously) but install
    /// only once the VM has retired this many further instructions —
    /// a reproducible stand-in for background-translation latency, used
    /// by the chaos harness's `delayed-install` sabotage cell. Takes
    /// precedence over `async_translate`.
    pub install_delay: Option<u64>,
    /// Source-instruction budget for a re-formed region: the promotion
    /// walk ([`EngineConfig::region_trigger`]) stops collecting
    /// constituent superblocks once the merged region would exceed this
    /// many V-ISA instructions. The first block is always taken, so a
    /// budget below one superblock degenerates to no re-formation (a
    /// single-block region adds nothing and is never installed).
    pub region_budget: u32,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            translator: Translator::default(),
            profile: ProfileConfig::default(),
            engine: EngineConfig::default(),
            cost: CostModel::default(),
            flush: None,
            validator: None,
            on_violation: OnViolation::default(),
            cache_budget: None,
            fuel: None,
            max_demotions: 2,
            async_translate: true,
            translate_timeout: Duration::from_secs(10),
            shared_cache: false,
            store_validator: None,
            install_delay: None,
            region_budget: 256,
        }
    }
}

/// Why a VM run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmExit {
    /// The guest program halted.
    Halted,
    /// A precise trap was delivered.
    Trapped {
        /// Faulting V-address.
        vaddr: u64,
        /// The condition.
        trap: Trap,
        /// Recovered architected register state.
        state: Box<[u64; 32]>,
    },
    /// The instruction budget was exhausted.
    Budget,
    /// A structural runtime invariant failed (a corrupted or stale
    /// fragment reached execution). The VM is stopped; the architected
    /// state is the last consistent fragment-boundary state.
    Fault {
        /// What failed.
        error: VmError,
    },
}

/// Aggregate statistics of a VM run (feeding Table 2, Figure 7 and the
/// §4.2 overhead numbers).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VmStats {
    /// Instructions interpreted (cold code).
    pub interpreted: u64,
    /// Fragments translated.
    pub fragments: u64,
    /// Source V-ISA instructions translated (static).
    pub translated_src_insts: u64,
    /// I-ISA instructions emitted (static).
    pub emitted_insts: u64,
    /// Static copy instructions emitted.
    pub static_copies: u64,
    /// Strands formed / prematurely terminated.
    pub strands: u64,
    /// Premature strand terminations.
    pub terminations: u64,
    /// Static translated code bytes installed in the cache.
    pub translated_code_bytes: u64,
    /// Modelled DBT overhead in Alpha instructions (§4.2).
    pub translation_overhead: u64,
    /// Modelled interpretation overhead in Alpha instructions.
    pub interpretation_overhead: u64,
    /// Translation-cache flushes performed (phase-change policy).
    pub cache_flushes: u64,
    /// Fragments checked by the install validator.
    pub fragments_verified: u64,
    /// Wall time spent in the install validator, in nanoseconds.
    pub verify_nanos: u64,
    /// Translations refused under [`OnViolation::Reject`].
    pub verify_rejected: u64,
    /// Fragments clock-evicted under the cache budget.
    pub evictions: u64,
    /// Fragments invalidated by guest stores into their source pages.
    pub smc_invalidations: u64,
    /// Degradation-ladder transitions (each region counts once per level
    /// it descends).
    pub demotions: u64,
    /// Regions that reached the bottom of the ladder (interpret-only).
    pub blacklisted: u64,
    /// Engine dispatches preempted by the watchdog fuel budget.
    pub fuel_preemptions: u64,
    /// Direct-link sites un-patched back to slow-path exits by precise
    /// invalidation.
    pub unlinked_sites: u64,
    /// Instructions interpreted before the first fragment install — the
    /// unavoidable cold-start share of `interpreted`, excluded from
    /// [`VmStats::interp_fallback_ratio`] so the ratio reflects
    /// steady-state fallback only.
    pub warmup_interpreted: u64,
    /// Wall nanoseconds the guest was stalled waiting on translation
    /// (synchronous translations, plus blocking waits on an in-flight
    /// background translation of a re-heated region).
    pub translate_stall_nanos: u64,
    /// Total wall nanoseconds of translation + verification work done on
    /// behalf of this VM, wherever it ran. With background translation
    /// this exceeds [`VmStats::translate_stall_nanos`] — the difference
    /// is work the pipeline hid from the guest.
    pub translate_wall_nanos: u64,
    /// Warm-start installs: fragments taken pre-translated (and
    /// pre-verified) from the shared [`FragmentStore`].
    pub warm_hits: u64,
    /// Shared-store lookups that missed and fell back to translation.
    pub warm_misses: u64,
    /// Fragments this VM published to the shared store.
    pub warm_stores: u64,
    /// Store entries this VM saw rejected: artifacts quarantined at
    /// lookup (broken seal, version skew, key mismatch) plus disk-loaded
    /// artifacts refused by [`VmConfig::store_validator`]. Each one
    /// degraded gracefully to the normal translate/verify path.
    pub store_quarantined: u64,
    /// Entries the attached store rejected while being opened from disk
    /// (unreadable framing — see
    /// [`StoreStats::load_rejects`](crate::StoreStats::load_rejects)),
    /// snapshotted at [`Vm::attach_store`] time.
    pub store_load_rejects: u64,
    /// Background translations installed at a safe point.
    pub async_installs: u64,
    /// Background translations dropped at their safe point (stale epoch,
    /// demoted or blacklisted region, SMC hit, validator rejection, or a
    /// chaos-injected drop).
    pub async_dropped: u64,
    /// In-flight background translations that blew the
    /// [`VmConfig::translate_timeout`] deadline; each fell back to
    /// synchronous translation on the VM thread.
    pub pool_timeouts: u64,
    /// Background translations that came back as a contained worker
    /// panic (structured `TranslateError` reply); each demoted the
    /// region down the degradation ladder.
    pub pool_panics: u64,
    /// Dead pool workers respawned by supervision passes this VM's
    /// submissions triggered. Pool-side health accounting only — a
    /// respawn is architecturally invisible, so replay comparisons zero
    /// it like the wall-clock counters.
    pub pool_respawns: u64,
    /// Submissions refused by the pool's bounded queue (backpressure);
    /// each shed to synchronous translation instead of queueing.
    pub pool_shed: u64,
    /// Translations performed synchronously on the VM thread as a pool
    /// degradation fallback (timeout or shed) — the count of times the
    /// failure envelope's "degrade to sync" edge was actually taken.
    pub sync_fallbacks: u64,
    /// Longest single blocking wait on the pool, in wall nanoseconds
    /// (bounded by [`VmConfig::translate_timeout`] plus one synchronous
    /// translation). Wall-clock measurement: replay comparisons zero it.
    pub pool_await_max_nanos: u64,
    /// Hot fragment chains re-formed into merged regions
    /// ([`EngineConfig::region_trigger`]).
    pub regions_formed: u64,
    /// Cross-fragment seams erased by region re-formation: one per
    /// constituent boundary folded into a merged region, each of which
    /// previously cost a fragment transfer (entry bookkeeping plus any
    /// redundant copy-out/copy-in pair) every iteration.
    pub seam_pairs_eliminated: u64,
    /// Verifier passes spent on re-formed regions (a subset of
    /// `fragments_verified`). Regions are profile-dependent and never
    /// published to the shared store, so a warm-started VM still runs
    /// these locally; accounting them separately lets warm-start audits
    /// check that nothing *store-eligible* was re-verified.
    pub regions_verified: u64,
    /// Dynamic engine statistics.
    pub engine: crate::engine::EngineStats,
    /// Static usage-category counts across all translations.
    pub static_categories: CategoryCounts,
}

impl VmStats {
    /// Dynamic I-ISA instructions per retired V-ISA instruction
    /// (Table 2: "relative number of dynamic instructions"; paper
    /// averages: basic 1.60, modified 1.36).
    pub fn dynamic_expansion(&self) -> f64 {
        if self.engine.v_insts == 0 {
            0.0
        } else {
            self.engine.executed as f64 / self.engine.v_insts as f64
        }
    }

    /// Percentage of executed instructions that are copies (Table 2;
    /// paper averages: basic 17.7%, modified 3.1%).
    pub fn copy_pct(&self) -> f64 {
        if self.engine.executed == 0 {
            0.0
        } else {
            self.engine.copies_executed as f64 * 100.0 / self.engine.executed as f64
        }
    }

    /// Translated static code bytes relative to the source code bytes
    /// (Table 2: "relative number of static instruction bytes"; paper
    /// averages: basic 1.17, modified 1.07).
    pub fn static_code_ratio(&self) -> f64 {
        if self.translated_src_insts == 0 {
            0.0
        } else {
            self.translated_code_bytes as f64 / (4.0 * self.translated_src_insts as f64)
        }
    }

    /// DBT instructions per translated source instruction (§4.2; paper
    /// average ≈ 1,125).
    pub fn overhead_per_translated_inst(&self) -> f64 {
        if self.translated_src_insts == 0 {
            0.0
        } else {
            self.translation_overhead as f64 / self.translated_src_insts as f64
        }
    }

    /// Fraction of retired V-ISA instructions that ran interpreted — the
    /// degradation metric: 0 is fully translated, 1 is interpret-only
    /// (everything evicted, invalidated or blacklisted).
    ///
    /// The instructions interpreted before the first fragment install
    /// ([`VmStats::warmup_interpreted`]) are excluded: every run pays
    /// that cold-start cost regardless of cache health, and counting it
    /// inflated the ratio badly for short workloads. A run that never
    /// installs anything has no steady state and reports 1.0 as before.
    pub fn interp_fallback_ratio(&self) -> f64 {
        let steady = self.interpreted.saturating_sub(self.warmup_interpreted);
        let total = steady + self.engine.v_insts;
        if total == 0 {
            0.0
        } else {
            steady as f64 / total as f64
        }
    }

    /// Guest-visible translation stall time, in seconds.
    pub fn translate_stall_seconds(&self) -> f64 {
        self.translate_stall_nanos as f64 / 1e9
    }

    /// Total translation + verification wall time, in seconds.
    pub fn translate_wall_seconds(&self) -> f64 {
        self.translate_wall_nanos as f64 / 1e9
    }
}

/// The co-designed VM. See the module documentation.
///
/// # Examples
///
/// ```
/// use alpha_isa::{Assembler, Reg};
/// use ildp_core::{NullSink, Vm, VmConfig, VmExit};
///
/// let mut asm = Assembler::new(0x1_0000);
/// asm.lda_imm(Reg::A0, 200);
/// let top = asm.here("top");
/// asm.subq_imm(Reg::A0, 1, Reg::A0);
/// asm.bne(Reg::A0, top);
/// asm.halt();
/// let program = asm.finish()?;
///
/// let mut vm = Vm::new(VmConfig::default(), &program);
/// let exit = vm.run(10_000, &mut NullSink);
/// assert_eq!(exit, VmExit::Halted);
/// assert!(vm.stats().fragments > 0, "the loop must get translated");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vm<'p> {
    config: VmConfig,
    program: &'p Program,
    /// Predecoded code segment driving the interpreter's fetches.
    decoded: DecodeCache,
    cpu: CpuState,
    mem: Memory,
    candidates: Candidates,
    cache: TranslationCache,
    engine: Engine,
    stats: VmStats,
    /// V-inst timestamps of recent fragment creations (flush policy).
    /// Meaningful only within `window_epoch`.
    recent_fragments: Vec<u64>,
    /// The cache epoch `recent_fragments` belongs to: an epoch bump from
    /// any source resets the flush window.
    window_epoch: u64,
    /// Degradation-ladder level per region entry V-address.
    demotion: HashMap<u64, u8>,
    /// SMC invalidations per region entry V-address (repeat offenders are
    /// demoted).
    smc_counts: HashMap<u64, u32>,
    /// Console bytes in emission order (interpreted + translated).
    output: Vec<u8>,
    /// Cache-derived stats carried over a snapshot restore:
    /// `finish_overheads` recomputes `translated_code_bytes`, `evictions`
    /// and `unlinked_sites` from the (fresh, empty) cache, so the totals
    /// accumulated before the restore are added back as baselines.
    base_code_bytes: u64,
    base_evictions: u64,
    base_unlinked: u64,
    /// The background translation pool (async mode), with the per-VM
    /// reply channel its workers answer on.
    pool: Option<Arc<TranslatePool>>,
    reply_tx: Sender<TranslateResponse>,
    reply_rx: Receiver<TranslateResponse>,
    /// The retired count at which the reply channel was last drained
    /// (see [`Vm::service_background`]).
    drained_at: Option<u64>,
    /// Regions whose translation is in flight on the pool, keyed by entry
    /// V-address — the per-region dedup, plus the liveness facts captured
    /// at submit time that the safe-point install decision re-checks.
    in_flight: HashMap<u64, Pending>,
    /// Monotonic source of [`TranslateRequest::token`] values for this
    /// VM's submissions.
    next_token: u64,
    /// Finished translations parked until their install point (the
    /// deterministic `install_delay` and scheduled-replay modes).
    staged: Vec<Staged>,
    /// Recorded install/drop schedule driving a deterministic replay of a
    /// background-translation run; `Some` switches `translate_at` to
    /// stage translations instead of submitting them.
    schedule: Option<VecDeque<ScheduledOp>>,
    /// Count-anchored install/drop events this run produced, for the
    /// record side of record/replay.
    bg_events: Vec<ReplayEvent>,
    /// The shared warm-start fragment store, when attached.
    store: Option<Arc<FragmentStore>>,
    /// Store keys of fragments this VM installed, so SMC invalidation and
    /// demotion also evict the shared copy.
    store_keys: HashMap<u64, ArtifactKey>,
    /// The source superblock behind each installed fragment, keyed by
    /// entry V-address and refreshed on every install — the raw material
    /// the region re-formation walk merges. Regions themselves are not
    /// recorded (they are never re-merged).
    region_src: HashMap<u64, crate::Superblock>,
    /// Region heads whose re-formation the verifier refused: banned from
    /// re-promotion so a rejected merge is attempted exactly once.
    region_banned: HashSet<u64>,
}

/// Liveness facts captured when a region's translation leaves the
/// execution thread; the install decision re-checks them at the safe
/// point and drops the translation if any moved. The collected
/// superblock rides along so the deadline fallback can re-translate
/// synchronously without re-executing the guest path.
#[derive(Clone, Debug)]
struct Pending {
    level: u8,
    epoch: u64,
    smc: u32,
    translator: Translator,
    key: Option<ArtifactKey>,
    /// Token matching this submission's eventual reply (see
    /// [`TranslateRequest::token`]); 0 for never-submitted pendings.
    token: u64,
    sb: crate::Superblock,
}

/// A finished translation waiting for its install point.
#[derive(Debug)]
struct Staged {
    vstart: u64,
    /// Install at the first safe point with `v_instructions() >= anchor`
    /// (`install_delay` mode; unused under a replay schedule).
    anchor: u64,
    pending: Pending,
    code: TranslatedCode,
    verdict: Result<(), String>,
    verify_nanos: u64,
}

/// Which recorded background-translation outcome a [`ScheduledOp`]
/// reproduces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    /// Install the parked translation ([`ReplayEvent::BgInstall`]).
    Install,
    /// Drop the parked translation ([`ReplayEvent::BgDrop`]).
    Drop,
    /// Deadline fallback: resolve the parked translation synchronously
    /// ([`ReplayEvent::PoolTimeout`]).
    Timeout,
    /// Contained worker panic: discard the parked translation and demote
    /// the region ([`ReplayEvent::PoolPanicReply`]).
    PanicReply,
    /// Backpressure shed: resolve the parked translation synchronously
    /// ([`ReplayEvent::PoolShed`]).
    Shed,
}

/// One recorded background-translation outcome to reproduce.
#[derive(Clone, Copy, Debug)]
struct ScheduledOp {
    vstart: u64,
    at_v_insts: u64,
    kind: OpKind,
}

impl<'p> Vm<'p> {
    /// Creates a VM with the program loaded and the PC at its entry.
    pub fn new(config: VmConfig, program: &'p Program) -> Vm<'p> {
        let (cpu, mem) = program.load();
        // The VmConfig-level fuel knob flows into the engine config; an
        // explicit EngineConfig::fuel wins if both are set.
        let engine_config = EngineConfig {
            fuel: config.engine.fuel.or(config.fuel),
            ..config.engine
        };
        let (reply_tx, reply_rx) = channel();
        let pool = config
            .async_translate
            .then(|| Arc::clone(TranslatePool::global()));
        let store = config
            .shared_cache
            .then(|| Arc::clone(FragmentStore::global()));
        Vm {
            config,
            program,
            decoded: DecodeCache::new(program),
            cpu,
            mem,
            candidates: Candidates::new(),
            cache: TranslationCache::new(),
            engine: Engine::new(engine_config),
            stats: VmStats::default(),
            recent_fragments: Vec::new(),
            window_epoch: 0,
            demotion: HashMap::new(),
            smc_counts: HashMap::new(),
            output: Vec::new(),
            base_code_bytes: 0,
            base_evictions: 0,
            base_unlinked: 0,
            pool,
            reply_tx,
            reply_rx,
            drained_at: None,
            in_flight: HashMap::new(),
            next_token: 0,
            staged: Vec::new(),
            schedule: None,
            bg_events: Vec::new(),
            store,
            store_keys: HashMap::new(),
            region_src: HashMap::new(),
            region_banned: HashSet::new(),
        }
    }

    /// Captures the complete resumable state as a [`Snapshot`].
    ///
    /// Must be taken at a fragment boundary — i.e. while [`run`](Vm::run)
    /// is not executing (any return from `run` is one): there the GPR
    /// file is architecturally complete, every accumulator is dead, and
    /// the dual-RAS is predictor-only state (misses fall back to
    /// dispatch), so none of the engine internals need capturing. The
    /// translation cache is deliberately omitted — a restored VM starts
    /// cold and retranslates on demand; the entry addresses of live
    /// fragments are recorded as re-heat hints instead.
    pub fn snapshot(&self) -> Snapshot {
        let mut pages: Vec<(u64, Vec<u8>)> = self
            .mem
            .pages()
            .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
            .map(|(n, bytes)| (n, bytes.to_vec()))
            .collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        let mut candidates: Vec<(u64, u32)> = self.candidates.counters().collect();
        candidates.sort_unstable();
        let mut translated: Vec<u64> = self.cache.fragments().map(|f| f.vstart).collect();
        translated.sort_unstable();
        let mut demotion: Vec<(u64, u8)> = self.demotion.iter().map(|(&a, &l)| (a, l)).collect();
        demotion.sort_unstable();
        let mut smc_counts: Vec<(u64, u32)> =
            self.smc_counts.iter().map(|(&a, &c)| (a, c)).collect();
        smc_counts.sort_unstable();
        // The captured stats are brought current exactly as
        // `finish_overheads` would, so a snapshot taken between `run`
        // calls is self-consistent even if the caller poked at the cache.
        let mut stats = self.stats.clone();
        stats.interpretation_overhead = stats.interpreted * self.config.cost.interp_cost_per_inst();
        stats.translated_code_bytes = self.base_code_bytes + self.cache.total_code_bytes();
        stats.evictions = self.base_evictions + self.cache.evictions();
        stats.unlinked_sites = self.base_unlinked + self.cache.unpatches();
        stats.engine = self.engine.stats.clone();
        Snapshot {
            program_digest: program_digest(self.program),
            v_insts: self.v_instructions(),
            pc: self.cpu.pc,
            regs: self.cpu.registers(),
            pages,
            output: self.output.clone(),
            candidates,
            translated,
            demotion,
            smc_counts,
            stats,
        }
    }

    /// Reconstructs a VM from a snapshot, onto a fresh (cold) translation
    /// cache. The program must be the one the snapshot was taken from
    /// (checked by digest). Continuing the restored VM retires the exact
    /// same architected instruction stream as the uninterrupted run;
    /// statistics continue cumulatively from the snapshot, so ratios like
    /// [`VmStats::interp_fallback_ratio`] remain correct across the
    /// resume.
    pub fn restore(
        config: VmConfig,
        program: &'p Program,
        snap: &Snapshot,
    ) -> Result<Vm<'p>, SnapshotError> {
        let expected = program_digest(program);
        if snap.program_digest != expected {
            return Err(SnapshotError::ProgramMismatch {
                expected,
                actual: snap.program_digest,
            });
        }
        let mut vm = Vm::new(config, program);
        vm.cpu = CpuState::with_registers(snap.pc, &snap.regs);
        vm.mem = snap.to_memory();
        // `bump` fires exactly once, when a counter *reaches* the
        // threshold — so every restored counter is clamped one below it.
        // Regions that were translated at snapshot time are primed to
        // re-heat on their next execution; everything else keeps its
        // progress (capped so over-threshold counters from translated or
        // blacklisted regions can fire again rather than sticking).
        let reheat = config.profile.threshold.saturating_sub(1);
        for &(vaddr, count) in &snap.candidates {
            vm.candidates.set(vaddr, count.min(reheat));
        }
        for &vstart in &snap.translated {
            vm.candidates.set(vstart, reheat);
        }
        vm.demotion = snap.demotion.iter().copied().collect();
        vm.smc_counts = snap.smc_counts.iter().copied().collect();
        vm.output = snap.output.clone();
        vm.stats = snap.stats.clone();
        vm.engine.stats = snap.stats.engine.clone();
        vm.base_code_bytes = snap.stats.translated_code_bytes;
        vm.base_evictions = snap.stats.evictions;
        vm.base_unlinked = snap.stats.unlinked_sites;
        Ok(vm)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The translation cache (inspection).
    pub fn cache(&self) -> &TranslationCache {
        &self.cache
    }

    /// Mutable access to the translation cache, for fault-injection
    /// harnesses and external cache management. Invalidation should go
    /// through [`invalidate_fragment`](Vm::invalidate_fragment) /
    /// [`notify_code_write`](Vm::notify_code_write), which also maintain
    /// the engine-side links and profile counters.
    pub fn cache_mut(&mut self) -> &mut TranslationCache {
        &mut self.cache
    }

    /// The architected CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// The guest memory (inspection, e.g. differential testing).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Console output produced so far (interpreted + translated), in
    /// emission order.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Total V-ISA instructions executed so far (interpreted or
    /// translated), excluding architectural NOPs — every execution mode
    /// elides them from the count, so this is a pure function of the
    /// architected position regardless of what was translated when.
    /// Snapshot/replay lockstep is count-anchored on exactly this value.
    pub fn v_instructions(&self) -> u64 {
        self.stats.interpreted + self.engine.stats.v_insts
    }

    /// The translator / profiler pair for one degradation level. Level 0
    /// is the configured pair; demoted regions lose the optional
    /// optimizations — predictive chaining (sw-pred, dual-RAS) and memory
    /// fusion — and translate shorter superblocks, the leaner tier the
    /// ladder retries before blacklisting.
    fn translation_tier(&self, level: u8) -> (Translator, ProfileConfig) {
        if level == 0 {
            (self.config.translator, self.config.profile)
        } else {
            (
                Translator {
                    chain: ChainPolicy::NoPred,
                    fuse_memory: false,
                    ..self.config.translator
                },
                ProfileConfig {
                    max_superblock: self.config.profile.max_superblock.min(32),
                    ..self.config.profile
                },
            )
        }
    }

    /// Descends one degradation-ladder level for the region at `vstart`
    /// and resets its profile counter so it can re-heat into the leaner
    /// tier (or, at the bottom, stay interpreted).
    fn demote(&mut self, vstart: u64) {
        let level = self.demotion.entry(vstart).or_insert(0);
        if *level >= self.config.max_demotions {
            return;
        }
        *level += 1;
        self.stats.demotions += 1;
        if *level >= self.config.max_demotions {
            self.stats.blacklisted += 1;
        }
        self.candidates.reset(vstart);
        // A demoted region's published translation came from a tier we no
        // longer trust for it; other VMs must not warm-start from it.
        self.invalidate_store_key(vstart);
    }

    /// Evicts the shared-store copy of this VM's fragment at `vstart`, if
    /// it published one — keeps the warm-start store coherent with SMC
    /// invalidation and ladder demotion.
    fn invalidate_store_key(&mut self, vstart: u64) {
        if let Some(key) = self.store_keys.remove(&vstart) {
            if let Some(store) = &self.store {
                store.remove(&key);
            }
        }
    }

    /// Precisely invalidates one fragment: the cache slot and every
    /// incoming direct link (cache side), the dual-RAS links (engine
    /// side), and the region's profile counter so it can re-heat. Returns
    /// the fragment's entry V-address, or `None` if the id was already
    /// dead.
    pub fn invalidate_fragment(&mut self, id: FragmentId) -> Option<u64> {
        let vstart = self.cache.invalidate(id)?;
        self.engine.unlink_fragment(id);
        self.candidates.reset(vstart);
        self.invalidate_store_key(vstart);
        Some(vstart)
    }

    /// Notifies the VM that guest memory in `[addr, addr + len)` was
    /// written: every fragment whose source code shares a page with the
    /// range is invalidated (self-modifying-code response), and regions
    /// invalidated repeatedly are demoted down the ladder. The engine and
    /// interpreter SMC detection paths both land here; it is public so an
    /// embedder can report external code writes (DMA, another core).
    pub fn notify_code_write(&mut self, addr: u64, len: u64) {
        for id in self.cache.fragments_on_write(addr, len) {
            if let Some(vstart) = self.invalidate_fragment(id) {
                self.stats.smc_invalidations += 1;
                let n = {
                    let n = self.smc_counts.entry(vstart).or_insert(0);
                    *n += 1;
                    *n
                };
                if n >= 2 {
                    self.demote(vstart);
                }
            }
        }
    }

    fn translate_at(&mut self, vaddr: u64) -> bool {
        debug_assert_eq!(self.cpu.pc, vaddr);
        if self.cache.lookup(vaddr).is_some() {
            return true;
        }
        // A finished translation is already parked for this region; keep
        // interpreting until its install point arrives.
        if self.staged.iter().any(|s| s.vstart == vaddr) {
            return false;
        }
        // The region re-heated while its translation is in flight: the
        // slack bound. Block on the pool rather than re-collecting.
        if self.in_flight.contains_key(&vaddr) {
            return self.await_in_flight(vaddr);
        }
        let level = self.demotion.get(&vaddr).copied().unwrap_or(0);
        if level >= self.config.max_demotions {
            // Bottom of the ladder: this region stays interpreted.
            return false;
        }
        let (translator, profile) = self.translation_tier(level);
        match collect_superblock_with_output(
            &mut self.cpu,
            &mut self.mem,
            &self.decoded,
            &profile,
            &mut self.output,
        ) {
            Ok(sb) if !sb.is_empty() => {
                // Collection executed the path once: count it as
                // interpreted work (the paper's collection runs during
                // interpretation). Counted here — identically in every
                // pipeline mode — so async and sync runs retire the same
                // count-anchored instruction stream. A block that ran
                // into the guest's halt is special: the halt stays at
                // the PC and re-raises through ordinary interpretation
                // (which counts it and ends the run), so counting it
                // here too would retire it twice.
                self.stats.interpreted += match sb.end {
                    crate::SbEnd::Halt => sb.len() as u64 - 1,
                    _ => sb.len() as u64,
                };
                let mut pending = Pending {
                    level,
                    epoch: self.cache.epoch(),
                    smc: self.smc_counts.get(&vaddr).copied().unwrap_or(0),
                    translator,
                    key: None,
                    token: 0,
                    sb,
                };
                // Warm start: if another VM already published this exact
                // translation, install it without translating at all. An
                // artifact the store quarantines (or the optional
                // re-verification refuses) degrades to a miss and the
                // normal translate/verify path below.
                if let Some(store) = self.store.clone() {
                    let key = artifact_key(self.program, &pending.sb, &translator);
                    pending.key = Some(key);
                    match store.lookup(&key) {
                        StoreLookup::Hit(art) => {
                            if self.reverify_artifact(&art, &pending.sb, &translator) {
                                self.stats.warm_hits += 1;
                                self.region_src.insert(vaddr, pending.sb);
                                self.install_artifact(*art, key);
                                return true;
                            }
                            store.remove(&key);
                            self.stats.store_quarantined += 1;
                            self.stats.warm_misses += 1;
                        }
                        StoreLookup::Miss => self.stats.warm_misses += 1,
                        StoreLookup::Quarantined(_) => {
                            self.stats.store_quarantined += 1;
                            self.stats.warm_misses += 1;
                        }
                    }
                }
                if self.schedule.is_some() {
                    // Deterministic replay of a recorded background run:
                    // translate inline, park the result, and let the
                    // recorded count-anchored schedule decide when (and
                    // whether) it installs.
                    let (code, verdict, wall, verify_nanos) =
                        translate_job(&pending.sb, &translator, self.config.validator);
                    self.stats.translate_wall_nanos += wall;
                    self.staged.push(Staged {
                        vstart: vaddr,
                        anchor: 0,
                        pending,
                        code,
                        verdict,
                        verify_nanos,
                    });
                    self.candidates.reset(vaddr);
                    return false;
                }
                if let Some(delay) = self.config.install_delay {
                    let (code, verdict, wall, verify_nanos) =
                        translate_job(&pending.sb, &translator, self.config.validator);
                    self.stats.translate_wall_nanos += wall;
                    self.staged.push(Staged {
                        vstart: vaddr,
                        anchor: self.v_instructions() + delay,
                        pending,
                        code,
                        verdict,
                        verify_nanos,
                    });
                    self.candidates.reset(vaddr);
                    return false;
                }
                if let Some(pool) = self.pool.clone() {
                    self.next_token += 1;
                    pending.token = self.next_token;
                    let request = TranslateRequest {
                        vstart: vaddr,
                        token: pending.token,
                        sb: pending.sb.clone(),
                        translator,
                        validator: self.config.validator,
                        reply: self.reply_tx.clone(),
                    };
                    match pool.submit(request) {
                        SubmitOutcome::Queued { respawned } => {
                            self.stats.pool_respawns += respawned;
                            self.in_flight.insert(vaddr, pending);
                            // Reset the counter so the region must
                            // re-heat to reach the blocking wait above:
                            // bounds how far the interpreter can run
                            // ahead of a pending install.
                            self.candidates.reset(vaddr);
                            return false;
                        }
                        SubmitOutcome::Saturated { respawned, .. } => {
                            // Backpressure: the pool handed the request
                            // back; shed to the synchronous path rather
                            // than queue unboundedly.
                            self.stats.pool_respawns += respawned;
                            self.stats.pool_shed += 1;
                            self.bg_events.push(ReplayEvent::PoolShed {
                                fragment_vstart: vaddr,
                                at_v_insts: self.v_instructions(),
                            });
                            let (code, verdict, wall, verify_nanos) =
                                translate_job(&pending.sb, &translator, self.config.validator);
                            self.stats.translate_wall_nanos += wall;
                            self.stats.translate_stall_nanos += wall;
                            return self.resolve_sync_fallback(
                                vaddr,
                                pending,
                                code,
                                verdict,
                                verify_nanos,
                            );
                        }
                    }
                }
                // Synchronous pipeline: translate and verify on the
                // execution thread — the guest stalls for all of it.
                let (code, verdict, wall, verify_nanos) =
                    translate_job(&pending.sb, &translator, self.config.validator);
                self.stats.translate_wall_nanos += wall;
                self.stats.translate_stall_nanos += wall;
                if self.config.validator.is_some() {
                    // Verifier time is accounted separately from the
                    // paper's translation-overhead model: it is a
                    // debugging aid, not part of the modeled DBT cost.
                    self.stats.verify_nanos += verify_nanos;
                    self.stats.fragments_verified += 1;
                }
                if let Err(msg) = verdict {
                    match self.config.on_violation {
                        OnViolation::Panic => panic!(
                            "translation validator rejected fragment at \
                             {:#x}: {msg}",
                            code.vstart
                        ),
                        OnViolation::Reject => {
                            self.stats.verify_rejected += 1;
                            // Ladder: retry without the optional
                            // optimizations, then blacklist.
                            self.demote(code.vstart);
                            return false;
                        }
                    }
                }
                self.region_src.insert(vaddr, pending.sb);
                self.install_translation(code, translator, pending.key);
                true
            }
            Ok(_) => false,
            Err((pc, _trap)) => {
                // Trap during collection: abandon the superblock; the trap
                // will be re-raised by ordinary interpretation.
                self.cpu.pc = pc;
                false
            }
        }
    }

    /// Installs a translation produced by this VM (synchronously or at a
    /// background safe point): merges its static statistics, publishes it
    /// to the shared store when one is attached, installs it in the
    /// cache, and enforces the cache budget. Returns the installed
    /// fragment's id (the just-installed fragment is protected from the
    /// budget's clock eviction, so the id is live).
    fn install_translation(
        &mut self,
        code: TranslatedCode,
        translator: Translator,
        key: Option<ArtifactKey>,
    ) -> FragmentId {
        self.maybe_flush();
        self.stats.fragments += 1;
        self.stats.translated_src_insts += code.src_inst_count as u64;
        self.stats.emitted_insts += code.insts.len() as u64;
        self.stats.static_copies += code.stats.copies as u64;
        self.stats.strands += code.stats.strands as u64;
        self.stats.terminations += code.stats.terminations as u64;
        self.stats.static_categories.merge(&code.stats.categories);
        self.stats.translation_overhead += self
            .config
            .cost
            .fragment_cost(code.src_inst_count as u64, code.insts.len() as u64);
        if let (Some(store), Some(key)) = (self.store.clone(), key) {
            let artifact = FragmentArtifact::from_translation(&code, translator.form);
            if store.put(key, &artifact) {
                self.stats.warm_stores += 1;
            }
            self.store_keys.insert(code.vstart, key);
        }
        if self.stats.warmup_interpreted == 0 {
            self.stats.warmup_interpreted = self.stats.interpreted;
        }
        let id = self.cache.install(
            code.vstart,
            translator.form,
            code.insts,
            code.meta,
            code.src_inst_count,
            code.recovery,
        );
        self.enforce_cache_budget(id);
        id
    }

    /// Applies the optional [`VmConfig::store_validator`] policy to a
    /// warm-start artifact: rehydrates it and runs the configured
    /// trace-free verifier. `true` means install may proceed.
    fn reverify_artifact(
        &self,
        artifact: &FragmentArtifact,
        sb: &crate::Superblock,
        translator: &Translator,
    ) -> bool {
        let Some(validate) = self.config.store_validator else {
            return true;
        };
        let code = artifact.to_translated_code();
        validate(&InstallReview {
            sb,
            code: &code,
            translator,
        })
        .is_ok()
    }

    /// Installs a pre-translated, pre-verified fragment taken from the
    /// shared store. No translation happened here, so no
    /// `translation_overhead` is charged — that is the point of the warm
    /// start — but the static code statistics still merge so Table 2
    /// ratios stay meaningful.
    fn install_artifact(&mut self, artifact: FragmentArtifact, key: ArtifactKey) {
        self.maybe_flush();
        self.stats.fragments += 1;
        self.stats.translated_src_insts += artifact.src_inst_count as u64;
        self.stats.emitted_insts += artifact.insts.len() as u64;
        self.stats.static_copies += artifact.copies as u64;
        self.stats.strands += artifact.strands as u64;
        self.stats.terminations += artifact.terminations as u64;
        self.stats.static_categories.merge(&artifact.categories);
        self.store_keys.insert(artifact.vstart, key);
        if self.stats.warmup_interpreted == 0 {
            self.stats.warmup_interpreted = self.stats.interpreted;
        }
        let id = self.cache.install(
            artifact.vstart,
            artifact.form,
            artifact.insts,
            artifact.meta,
            artifact.src_inst_count,
            artifact.recovery,
        );
        self.enforce_cache_budget(id);
    }

    fn enforce_cache_budget(&mut self, just_installed: FragmentId) {
        if let Some(budget) = self.config.cache_budget {
            for (fid, vstart) in self.cache.enforce_budget(budget, just_installed) {
                self.engine.unlink_fragment(fid);
                self.candidates.reset(vstart);
                self.invalidate_store_key(vstart);
            }
        }
    }

    /// Profile-guided region re-formation, the [`FragExit::RegionHot`]
    /// response: walks the installed chain from the hot head along the
    /// seams its source superblocks followed at collection time, merges
    /// the constituent superblocks into one region superblock
    /// ([`crate::merge_region`]), re-runs the full translate/verify
    /// pipeline — straightening, strand formation, E-family symbolic
    /// equivalence — across the merged region, and, when the verifier
    /// admits it, replaces the constituents with one region fragment
    /// installed at the head. Cross-fragment seams inside the region
    /// disappear: the merged block re-strands across them, so what was
    /// per-iteration fragment-entry bookkeeping and copy-out/copy-in
    /// traffic becomes intra-region accumulator flow. Every failure mode
    /// degrades to the status quo — the constituent fragments keep
    /// running exactly as before — and a verifier refusal bans the head
    /// so a rejected merge is attempted once.
    ///
    /// Promotion is derived purely from deterministic state (the cache,
    /// the retained superblocks, the demotion ladder), so a scheduled
    /// replay re-derives it at the same anchor; the recorded
    /// [`ReplayEvent::RegionPromote`] / [`ReplayEvent::RegionDrop`] pair
    /// is the witness the replay harness compares.
    fn promote_region(&mut self, head: u64) {
        if self.region_banned.contains(&head) || self.demotion.get(&head).copied().unwrap_or(0) != 0
        {
            return;
        }
        let budget = self.config.region_budget as usize;
        let mut blocks: Vec<crate::Superblock> = Vec::new();
        let mut members: Vec<u64> = Vec::new();
        let mut total = 0usize;
        let mut cur = head;
        let mut closed = false;
        // Only plain, live, level-0 fragments with retained source
        // superblocks merge; anything else ends the walk. (A warm
        // store install retains its collection-time superblock too,
        // so warm-started fragments participate.)
        while let Some(id) = self.cache.lookup(cur) {
            if self.cache.fragment(id).is_region
                || members.contains(&cur)
                || self.demotion.get(&cur).copied().unwrap_or(0) != 0
            {
                break;
            }
            let Some(sb) = self.region_src.get(&cur).cloned() else {
                break;
            };
            if !blocks.is_empty() && total + sb.len() > budget {
                break;
            }
            total += sb.len();
            members.push(cur);
            // Follow the seam the collector followed: the taken back-edge
            // of an ending branch, or the recorded continuation. A block
            // with no unique continuation ends the region.
            let next = match sb.end {
                crate::SbEnd::BackwardTakenBranch { target, .. } => Some(target),
                crate::SbEnd::Cycle { next } | crate::SbEnd::MaxSize { next } => Some(next),
                crate::SbEnd::IndirectJump | crate::SbEnd::Halt => None,
            };
            blocks.push(sb);
            match next {
                Some(n) if n != head => cur = n,
                // Closed loop back to the region head: the merged
                // region's final seam resolves to a self-transfer.
                Some(_) => {
                    closed = true;
                    break;
                }
                None => break,
            }
        }
        if closed && total > 0 {
            // The walk closed a loop: unroll the cycle to fill the region
            // budget (capped — past a handful of copies the per-entry
            // overhead is already amortized away and the merged block only
            // bloats translation and verification). Each unrolled seam is
            // an iteration boundary the re-strander flows accumulators
            // across, so even a single self-looping block — the degenerate
            // hot chain — sheds its per-iteration head copy-ins.
            let factor = (budget / total).clamp(1, 2);
            let cycle = blocks.len();
            for k in 0..cycle * (factor - 1) {
                blocks.push(blocks[k % cycle].clone());
            }
        }
        if blocks.len() < 2 {
            // A single block merges nothing (its self-loop is already a
            // direct link); leave it be. The trigger never re-fires.
            return;
        }
        let merged = crate::superblock::merge_region(&blocks);
        let (translator, _) = self.translation_tier(0);
        // Translate WITHOUT the validator first: the profitability gate
        // below only needs the emitted code, and an unprofitable region
        // must not charge the guest for symbolic verification of a body
        // it will never run (on a short-loop workload the wasted verify
        // pass alone is a measurable fraction of the whole run).
        let (code, _, wall, _) = translate_job(&merged, &translator, None);
        // Re-formation runs inline on the execution thread: the guest
        // stalls for it, exactly like a synchronous translation.
        self.stats.translate_wall_nanos += wall;
        self.stats.translate_stall_nanos += wall;
        let at_v_insts = self.v_instructions();
        // Profitability gate. Each pass over the region covers
        // `blocks.len() / members.len()` iterations of the constituent
        // cycle (the unroll replication; 1 for an open chain), so the
        // emitted-instruction saving per pass is
        // `replication * orig_sum - region_len`.
        //
        // For a merged chain (replication 1) any positive saving is a
        // win: the constituent bodies already executed back-to-back
        // every iteration, so the merged body adds no footprint.
        //
        // An unrolled self-loop is different: the body *grows* by
        // `region_len - orig_sum` instructions, and a bigger working
        // set carries a real per-iteration locality cost. When the
        // loop's carried values fit the accumulator file, re-stranding
        // erases the seam copy-ins and the saving dwarfs that cost;
        // when they do not (more live globals than accumulators), every
        // unrolled seam re-emits its copies and the saving is a couple
        // of chain instructions against a doubled body — measurably
        // slower. Require the saving to cover the growth at an 8:1
        // margin, which cleanly separates the two shapes. A dropped
        // region leaves the constituents running untouched and records
        // the drop.
        let replication = (blocks.len() / members.len()) as i64;
        let orig_sum: i64 = members
            .iter()
            .filter_map(|&v| self.cache.lookup(v))
            .map(|id| self.cache.fragment(id).insts.len() as i64)
            .sum();
        let region_len = code.insts.len() as i64;
        let saved = replication * orig_sum - region_len;
        let profitable = if replication > 1 {
            saved * 8 >= region_len - orig_sum
        } else {
            saved > 0
        };
        if !profitable {
            self.region_banned.insert(head);
            self.bg_events.push(ReplayEvent::RegionDrop {
                fragment_vstart: head,
                at_v_insts,
            });
            return;
        }
        // Profitable: now pay for the full verify gate.
        let verdict = match self.config.validator {
            Some(validate) => {
                let v0 = std::time::Instant::now();
                let verdict = validate(&InstallReview {
                    sb: &merged,
                    code: &code,
                    translator: &translator,
                });
                self.stats.verify_nanos += v0.elapsed().as_nanos() as u64;
                self.stats.fragments_verified += 1;
                self.stats.regions_verified += 1;
                verdict
            }
            None => Ok(()),
        };
        if let Err(msg) = verdict {
            match self.config.on_violation {
                OnViolation::Panic => {
                    panic!("translation validator rejected region at {head:#x}: {msg}")
                }
                OnViolation::Reject => {
                    // Refused merge: ban the head and leave the
                    // constituent fragments running untouched.
                    self.stats.verify_rejected += 1;
                    self.region_banned.insert(head);
                    self.bg_events.push(ReplayEvent::RegionDrop {
                        fragment_vstart: head,
                        at_v_insts,
                    });
                    return;
                }
            }
        }
        // Admitted: retire the constituents (precise invalidation keeps
        // incoming links and the engine RAS coherent), then install the
        // merged region at the head. Regions are not published to the
        // shared store — their shape is profile-dependent — and the
        // constituents' published artifacts stay PUT: promotion does not
        // change the guest code, so unlike the SMC path the artifacts
        // remain valid for other VMs warm-starting the same program.
        for &v in &members {
            if let Some(id) = self.cache.lookup(v) {
                self.cache.invalidate(id);
                self.engine.unlink_fragment(id);
                self.candidates.reset(v);
            }
        }
        let id = self.install_translation(code, translator, None);
        self.cache.mark_region(id);
        self.stats.regions_formed += 1;
        self.stats.seam_pairs_eliminated += blocks.len() as u64 - 1;
        self.bg_events.push(ReplayEvent::RegionPromote {
            fragment_vstart: head,
            at_v_insts,
        });
    }

    /// The safe-point install decision for a finished background
    /// translation: re-checks the liveness facts captured at submit time
    /// and installs, or drops, accordingly. `forced_drop` reproduces a
    /// recorded drop whose cause was outside these checks. Every outcome
    /// is recorded as a count-anchored [`ReplayEvent`].
    fn resolve_background(
        &mut self,
        vstart: u64,
        pending: Pending,
        code: TranslatedCode,
        verdict: Result<(), String>,
        verify_nanos: u64,
        forced_drop: bool,
    ) {
        if self.config.validator.is_some() {
            self.stats.verify_nanos += verify_nanos;
            self.stats.fragments_verified += 1;
        }
        let at_v_insts = self.v_instructions();
        let level_now = self.demotion.get(&vstart).copied().unwrap_or(0);
        let smc_now = self.smc_counts.get(&vstart).copied().unwrap_or(0);
        let stale = forced_drop
            || self.cache.lookup(vstart).is_some()
            || level_now != pending.level
            || level_now >= self.config.max_demotions
            || self.cache.epoch() != pending.epoch
            || smc_now != pending.smc;
        if stale {
            self.stats.async_dropped += 1;
            self.candidates.reset(vstart);
            self.bg_events.push(ReplayEvent::BgDrop {
                fragment_vstart: vstart,
                at_v_insts,
            });
            return;
        }
        if let Err(msg) = verdict {
            match self.config.on_violation {
                OnViolation::Panic => panic!(
                    "translation validator rejected fragment at {:#x}: {msg}",
                    code.vstart
                ),
                OnViolation::Reject => {
                    self.stats.verify_rejected += 1;
                    self.demote(vstart);
                    self.stats.async_dropped += 1;
                    self.bg_events.push(ReplayEvent::BgDrop {
                        fragment_vstart: vstart,
                        at_v_insts,
                    });
                    return;
                }
            }
        }
        self.stats.async_installs += 1;
        self.bg_events.push(ReplayEvent::BgInstall {
            fragment_vstart: vstart,
            at_v_insts,
        });
        self.region_src.insert(vstart, pending.sb);
        self.install_translation(code, pending.translator, pending.key);
    }

    /// The install decision for a translation produced synchronously as a
    /// pool degradation fallback (deadline expiry or backpressure shed).
    /// The caller counts the fault and records its replay event first, so
    /// a real faulted run and its scheduled replay go through this exact
    /// code with identical inputs. Returns whether the region's fragment
    /// is installed afterwards.
    fn resolve_sync_fallback(
        &mut self,
        vstart: u64,
        pending: Pending,
        code: TranslatedCode,
        verdict: Result<(), String>,
        verify_nanos: u64,
    ) -> bool {
        let level_now = self.demotion.get(&vstart).copied().unwrap_or(0);
        let smc_now = self.smc_counts.get(&vstart).copied().unwrap_or(0);
        let stale = self.cache.lookup(vstart).is_some()
            || level_now != pending.level
            || level_now >= self.config.max_demotions
            || self.cache.epoch() != pending.epoch
            || smc_now != pending.smc;
        if stale {
            // The liveness facts moved between capture and the fallback
            // (demotion, flush, SMC): discard exactly as the safe-point
            // path would. The fault event already recorded covers the
            // replay side; no separate BgDrop.
            self.stats.async_dropped += 1;
            self.candidates.reset(vstart);
            return self.cache.lookup(vstart).is_some();
        }
        self.stats.sync_fallbacks += 1;
        if self.config.validator.is_some() {
            self.stats.verify_nanos += verify_nanos;
            self.stats.fragments_verified += 1;
        }
        if let Err(msg) = verdict {
            match self.config.on_violation {
                OnViolation::Panic => panic!(
                    "translation validator rejected fragment at {:#x}: {msg}",
                    code.vstart
                ),
                OnViolation::Reject => {
                    self.stats.verify_rejected += 1;
                    self.demote(vstart);
                    return false;
                }
            }
        }
        self.region_src.insert(vstart, pending.sb);
        self.install_translation(code, pending.translator, pending.key);
        true
    }

    fn handle_response(&mut self, resp: TranslateResponse) {
        // A response whose region is no longer in flight — or whose token
        // names a submission this VM already gave up on (deadline expiry
        // followed by a resubmission) — was superseded: a late worker
        // must never resolve a newer submission's pending state.
        let current = self
            .in_flight
            .get(&resp.vstart)
            .is_some_and(|p| p.token == resp.token);
        if !current {
            return;
        }
        let Some(pending) = self.in_flight.remove(&resp.vstart) else {
            return;
        };
        self.stats.translate_wall_nanos += resp.wall_nanos;
        match resp.result {
            Ok(out) => self.resolve_background(
                resp.vstart,
                pending,
                out.code,
                out.verdict,
                out.verify_nanos,
                false,
            ),
            Err(_) => {
                // Contained worker panic: structured reply, no usable
                // code. Demote the region so it re-heats into a leaner
                // tier — the same ladder a verifier rejection takes.
                self.stats.pool_panics += 1;
                self.demote(resp.vstart);
                self.candidates.reset(resp.vstart);
                self.bg_events.push(ReplayEvent::PoolPanicReply {
                    fragment_vstart: resp.vstart,
                    at_v_insts: self.v_instructions(),
                });
            }
        }
    }

    /// Blocks until the in-flight translation for `vaddr` resolves (other
    /// regions' replies arriving first resolve too — this is a safe
    /// point), bounded by [`VmConfig::translate_timeout`]. The wait is
    /// the guest-visible stall the pipeline could not hide, accounted in
    /// [`VmStats::translate_stall_nanos`]. Deadline expiry — a dead or
    /// wedged worker, a dropped reply — falls back to synchronous
    /// translation of the already-collected superblock on this thread:
    /// the pool can delay this VM step by at most the deadline, never
    /// wedge it.
    fn await_in_flight(&mut self, vaddr: u64) -> bool {
        let t0 = std::time::Instant::now();
        let deadline = t0 + self.config.translate_timeout;
        while self.in_flight.contains_key(&vaddr) {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                break;
            };
            match self.reply_rx.recv_timeout(left) {
                Ok(resp) => self.handle_response(resp),
                Err(_) => break,
            }
        }
        let waited = t0.elapsed().as_nanos() as u64;
        self.stats.translate_stall_nanos += waited;
        self.stats.pool_await_max_nanos = self.stats.pool_await_max_nanos.max(waited);
        let Some(pending) = self.in_flight.remove(&vaddr) else {
            // The wait resolved the region (install, drop, or panic
            // reply); whatever state that left is the answer.
            return self.cache.lookup(vaddr).is_some();
        };
        // Deadline expired with the request still in flight. Abandon it
        // (a late reply is rejected by its stale token) and translate
        // synchronously from the superblock collected at submit time.
        self.stats.pool_timeouts += 1;
        self.bg_events.push(ReplayEvent::PoolTimeout {
            fragment_vstart: vaddr,
            at_v_insts: self.v_instructions(),
        });
        let (code, verdict, wall, verify_nanos) =
            translate_job(&pending.sb, &pending.translator, self.config.validator);
        self.stats.translate_wall_nanos += wall;
        self.stats.translate_stall_nanos += wall;
        self.resolve_sync_fallback(vaddr, pending, code, verdict, verify_nanos)
    }

    /// The safe point, serviced at every fragment exit and interpreted
    /// block end: drains finished background translations, and resolves
    /// parked translations whose install point (recorded schedule, or
    /// deterministic delay anchor) has arrived. [`Vm::interp_limit`] ends
    /// interpreted blocks exactly on those anchors.
    fn service_background(&mut self) {
        let now = self.v_instructions();
        // Replies drain only at the first safe point of each retired
        // count. A zero-progress exit (region-hot) revisits the safe point
        // at the same count, and a scheduled replay applies an event at
        // the *first* safe point reaching its anchor: an install recorded
        // at the second visit would replay at the first, before the
        // promotion that saw the cache without it.
        if self.drained_at != Some(now) {
            self.drained_at = Some(now);
            while let Ok(resp) = self.reply_rx.try_recv() {
                self.handle_response(resp);
            }
        }
        if self.schedule.is_some() {
            // Pop-then-apply, with the pop itself deciding readiness: no
            // unwrap on the queue, which an applied op may have replaced.
            loop {
                let op = self.schedule.as_mut().and_then(|q| match q.front() {
                    Some(front) if front.at_v_insts <= now => q.pop_front(),
                    _ => None,
                });
                let Some(op) = op else { break };
                self.apply_scheduled_op(op);
            }
        } else if self.config.install_delay.is_some() {
            while let Some(i) = self.staged.iter().position(|s| s.anchor <= now) {
                let s = self.staged.remove(i);
                self.resolve_background(
                    s.vstart,
                    s.pending,
                    s.code,
                    s.verdict,
                    s.verify_nanos,
                    false,
                );
            }
        }
    }

    /// Replays one recorded background-translation outcome at its anchor.
    fn apply_scheduled_op(&mut self, op: ScheduledOp) {
        let staged = self
            .staged
            .iter()
            .position(|s| s.vstart == op.vstart)
            .map(|i| self.staged.remove(i));
        match op.kind {
            OpKind::Install | OpKind::Drop => {
                // An op with no parked translation refers to a region a
                // replayed chaos event already disposed of.
                let Some(s) = staged else { return };
                self.resolve_background(
                    s.vstart,
                    s.pending,
                    s.code,
                    s.verdict,
                    s.verify_nanos,
                    op.kind == OpKind::Drop,
                );
            }
            OpKind::Timeout | OpKind::Shed => {
                // Reproduce the recorded degradation: count the fault and
                // its event, then resolve the parked translation through
                // the same synchronous-fallback decision the real run
                // took.
                let event_vstart = op.vstart;
                let at_v_insts = self.v_instructions();
                if op.kind == OpKind::Timeout {
                    self.stats.pool_timeouts += 1;
                    self.bg_events.push(ReplayEvent::PoolTimeout {
                        fragment_vstart: event_vstart,
                        at_v_insts,
                    });
                } else {
                    self.stats.pool_shed += 1;
                    self.bg_events.push(ReplayEvent::PoolShed {
                        fragment_vstart: event_vstart,
                        at_v_insts,
                    });
                }
                if let Some(s) = staged {
                    self.resolve_sync_fallback(
                        s.vstart,
                        s.pending,
                        s.code,
                        s.verdict,
                        s.verify_nanos,
                    );
                }
            }
            OpKind::PanicReply => {
                // The parked translation stands in for the code the
                // panicked worker never produced: discard it and demote,
                // exactly as the live reply handler does.
                drop(staged);
                self.stats.pool_panics += 1;
                self.demote(op.vstart);
                self.candidates.reset(op.vstart);
                self.bg_events.push(ReplayEvent::PoolPanicReply {
                    fragment_vstart: op.vstart,
                    at_v_insts: self.v_instructions(),
                });
            }
        }
    }

    /// Switches the VM to deterministic scheduled-install mode, replaying
    /// the background install/drop/fault decisions recorded in `events`
    /// ([`ReplayEvent::BgInstall`] / [`ReplayEvent::BgDrop`] /
    /// [`ReplayEvent::PoolTimeout`] / [`ReplayEvent::PoolPanicReply`] /
    /// [`ReplayEvent::PoolShed`], anchored on [`Vm::v_instructions`]).
    /// Translations are performed inline at collection time but resolve
    /// only when their recorded anchor is reached, in recorded order —
    /// reproducing an asynchronous run (including its pool faults)
    /// bit-identically on a synchronous VM.
    pub fn set_install_schedule(&mut self, events: &[ReplayEvent]) {
        let ops = events
            .iter()
            .filter_map(|e| {
                let (vstart, at_v_insts, kind) = match *e {
                    ReplayEvent::BgInstall {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts, OpKind::Install),
                    ReplayEvent::BgDrop {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts, OpKind::Drop),
                    ReplayEvent::PoolTimeout {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts, OpKind::Timeout),
                    ReplayEvent::PoolPanicReply {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts, OpKind::PanicReply),
                    ReplayEvent::PoolShed {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts, OpKind::Shed),
                    _ => return None,
                };
                Some(ScheduledOp {
                    vstart,
                    at_v_insts,
                    kind,
                })
            })
            .collect();
        self.schedule = Some(ops);
    }

    /// The count-anchored background install/drop events recorded so far
    /// (record side of record/replay).
    pub fn bg_events(&self) -> &[ReplayEvent] {
        &self.bg_events
    }

    /// Drains the recorded background events (see [`Vm::bg_events`]).
    pub fn take_bg_events(&mut self) -> Vec<ReplayEvent> {
        std::mem::take(&mut self.bg_events)
    }

    /// Attaches a shared warm-start fragment store (see
    /// [`VmConfig::shared_cache`], which attaches the process-global one).
    /// Must be called before the run starts translating.
    pub fn attach_store(&mut self, store: Arc<FragmentStore>) {
        // Damage observed while the store was opened from disk becomes
        // visible on this VM's stats: it bounds how much warm start the
        // run can possibly get.
        self.stats.store_load_rejects = store.stats().load_rejects;
        self.store = Some(store);
    }

    /// Attaches a translation pool, enabling background translation even
    /// if [`VmConfig::async_translate`] was off at construction.
    pub fn attach_pool(&mut self, pool: Arc<TranslatePool>) {
        self.pool = Some(pool);
    }

    /// Entry V-addresses of translations parked for a later install point
    /// (fault-injection harnesses pick drop victims from these).
    pub fn staged_vstarts(&self) -> Vec<u64> {
        self.staged.iter().map(|s| s.vstart).collect()
    }

    /// Drops a parked translation before it installs (chaos injection:
    /// the translation that never arrives). Returns whether one was
    /// parked for `vstart`. The region's profile counter resets so it can
    /// re-heat.
    pub fn drop_staged(&mut self, vstart: u64) -> bool {
        let Some(i) = self.staged.iter().position(|s| s.vstart == vstart) else {
            return false;
        };
        self.staged.remove(i);
        self.stats.async_dropped += 1;
        self.candidates.reset(vstart);
        true
    }

    /// The interpreted count at which the next interpreted block must
    /// yield: the run budget, or the next count-anchored install (the
    /// replay schedule's front, or the earliest `install_delay` anchor),
    /// whichever comes first. Short of that count the safe point's only
    /// work is draining asynchronous pool replies, whose arrival is
    /// nondeterministic anyway, so it waits for the block to end.
    fn interp_limit(&self, budget: u64) -> u64 {
        let mut next = budget;
        if let Some(q) = &self.schedule {
            if let Some(front) = q.front() {
                next = next.min(front.at_v_insts);
            }
        } else if self.config.install_delay.is_some() {
            for s in &self.staged {
                next = next.min(s.anchor);
            }
        }
        // Translated code retires nothing while the interpreter runs, so
        // the V-instruction anchor converts to an interpreted count.
        next.saturating_sub(self.engine.stats.v_insts)
    }

    /// Runs until halt, trap, or `budget` V-ISA instructions.
    ///
    /// Monomorphized over the sink (see [`TraceSink::TRACING`]): running
    /// with [`crate::NullSink`] compiles the trace machinery out of the
    /// engine's hot loop.
    pub fn run<S: TraceSink>(&mut self, budget: u64, sink: &mut S) -> VmExit {
        loop {
            // Safe point, reached at every fragment exit and interpreted
            // block end: architected state is complete here, so finished
            // background translations install now.
            self.service_background();
            if self.v_instructions() >= budget {
                self.finish_overheads();
                return VmExit::Budget;
            }
            // Execute translated code when the current PC has a fragment.
            if let Some(fid) = self.cache.lookup(self.cpu.pc) {
                let entry_vstart = self.cpu.pc;
                let engine_budget = budget.saturating_sub(self.stats.interpreted);
                let engine_exit = self.engine.run(
                    &mut self.cache,
                    fid,
                    &mut self.cpu,
                    &mut self.mem,
                    engine_budget,
                    sink,
                );
                self.output.append(&mut self.engine.output);
                match engine_exit {
                    FragExit::NotTranslated { vtarget } => {
                        self.cpu.pc = vtarget;
                        // Fragment exit targets are superblock start
                        // candidates (paper §3.1).
                        if self.candidates.bump(vtarget, self.config.profile.threshold) {
                            self.translate_at(vtarget);
                        }
                    }
                    FragExit::Halt => {
                        self.finish_overheads();
                        return VmExit::Halted;
                    }
                    FragExit::Budget => {
                        self.finish_overheads();
                        return VmExit::Budget;
                    }
                    FragExit::Trap { vaddr, trap, state } => {
                        self.finish_overheads();
                        return VmExit::Trapped { vaddr, trap, state };
                    }
                    FragExit::SmcStore {
                        addr,
                        len,
                        vaddr,
                        state,
                    } => {
                        // The engine stopped *before* the store with
                        // recovered precise state; re-raise from the
                        // store's V-address so the write executes
                        // interpretively against the freshly-invalidated
                        // cache (no livelock: invalidation unwatches the
                        // page).
                        self.cpu.set_registers(&state);
                        self.cpu.pc = vaddr;
                        self.notify_code_write(addr, len);
                    }
                    FragExit::Preempted { vtarget } => {
                        // The fragment chain exceeded its fuel budget
                        // without yielding to the dispatcher: demote the
                        // entry region and drop its fragment so the next
                        // heat-up takes the leaner tier.
                        self.cpu.pc = vtarget;
                        self.stats.fuel_preemptions += 1;
                        self.demote(entry_vstart);
                        if let Some(id) = self.cache.lookup(entry_vstart) {
                            self.invalidate_fragment(id);
                        }
                    }
                    FragExit::Fault { error } => {
                        self.finish_overheads();
                        return VmExit::Fault { error };
                    }
                    FragExit::RegionHot { vtarget } => {
                        // The trigger fires at a fragment boundary with
                        // complete architected state: re-form the region
                        // (or decline — every failure mode leaves the
                        // constituents untouched) and resume at the same
                        // address either way.
                        self.cpu.pc = vtarget;
                        self.promote_region(vtarget);
                    }
                }
                continue;
            }
            // Otherwise interpret up to the next safe point that matters.
            let limit = self.interp_limit(budget);
            match interp_block(
                &mut self.cpu,
                &mut self.mem,
                &self.decoded,
                &mut self.candidates,
                &self.config.profile,
                &mut self.stats.interpreted,
                limit,
                &mut self.output,
                &self.cache,
            ) {
                InterpEvent::BlockEnd => {}
                InterpEvent::Halted => {
                    self.finish_overheads();
                    return VmExit::Halted;
                }
                InterpEvent::Hot { vaddr } => {
                    self.translate_at(vaddr);
                }
                InterpEvent::Trapped { vaddr, trap } => {
                    self.finish_overheads();
                    return VmExit::Trapped {
                        vaddr,
                        trap,
                        state: Box::new(self.cpu.registers()),
                    };
                }
                InterpEvent::SmcStore { addr, len } => {
                    // The interpreted store has already completed and
                    // architected state is current; just invalidate the
                    // touched fragments.
                    self.notify_code_write(addr, len);
                }
            }
        }
    }

    /// Dynamo-style phase detection: flush when fragment creation spikes.
    fn maybe_flush(&mut self) {
        let Some(policy) = self.config.flush else {
            return;
        };
        // The window counters describe one cache epoch. If the epoch
        // moved underneath us (our own flush below, or an external
        // `cache_mut().flush()`), stale timestamps from before the flush
        // would re-trigger immediately and double-flush back-to-back
        // phase changes — reset the window atomically with the epoch.
        if self.window_epoch != self.cache.epoch() {
            self.window_epoch = self.cache.epoch();
            self.recent_fragments.clear();
        }
        let now = self.v_instructions();
        self.recent_fragments.push(now);
        let cutoff = now.saturating_sub(policy.window);
        self.recent_fragments.retain(|&t| t >= cutoff);
        if self.recent_fragments.len() as u32 > policy.max_new_fragments {
            self.cache.flush();
            self.stats.cache_flushes += 1;
            self.window_epoch = self.cache.epoch();
            self.recent_fragments.clear();
        }
    }

    fn finish_overheads(&mut self) {
        self.stats.interpretation_overhead =
            self.stats.interpreted * self.config.cost.interp_cost_per_inst();
        // The `base_*` offsets are nonzero only on a snapshot-restored
        // VM, whose cache restarted from cold: they carry the totals
        // accumulated before the restore.
        self.stats.translated_code_bytes = self.base_code_bytes + self.cache.total_code_bytes();
        self.stats.evictions = self.base_evictions + self.cache.evictions();
        self.stats.unlinked_sites = self.base_unlinked + self.cache.unpatches();
        self.stats.engine = self.engine.stats.clone();
    }
}

/// Interprets `program` directly, emitting the **original-program** trace
/// (the paper's "original" superscalar configuration and the native-Alpha
/// bars of Figures 4, 6 and 8).
///
/// Returns the exit condition and the number of instructions traced.
pub fn trace_original<S: TraceSink>(program: &Program, budget: u64, sink: &mut S) -> (VmExit, u64) {
    use alpha_isa::{step, AlignPolicy, BranchOp, Control, Inst};
    let decoded = DecodeCache::new(program);
    let (mut cpu, mut mem) = program.load();
    let mut count = 0u64;
    loop {
        if count >= budget {
            return (VmExit::Budget, count);
        }
        let pc = cpu.pc;
        let inst = match decoded.fetch(pc) {
            Ok(i) => i,
            Err(trap) => {
                return (
                    VmExit::Trapped {
                        vaddr: pc,
                        trap,
                        state: Box::new(cpu.registers()),
                    },
                    count,
                )
            }
        };
        let outcome = match step(&mut cpu, &mut mem, inst, AlignPolicy::Enforce) {
            Ok(o) => o,
            Err(trap) => {
                return (
                    VmExit::Trapped {
                        vaddr: pc,
                        trap,
                        state: Box::new(cpu.registers()),
                    },
                    count,
                )
            }
        };
        count += 1;
        let mut d = DynInst::alu(pc, 4);
        d.next_pc = outcome.next_pc;
        d.class = match inst {
            Inst::Operate { op, .. } if op.is_multiply() => InstClass::IntMul,
            Inst::Operate { .. } => InstClass::IntAlu,
            Inst::Mem { op, .. } if op.is_load() => InstClass::Load,
            Inst::Mem { op, .. } if op.is_store() => InstClass::Store,
            Inst::Mem { .. } => InstClass::IntAlu,
            Inst::Branch {
                op: BranchOp::Bsr, ..
            } => InstClass::Call,
            Inst::Branch {
                op: BranchOp::Br, ..
            } => InstClass::Branch,
            Inst::Branch { .. } => InstClass::CondBranch,
            Inst::Jump { kind, .. } => match kind {
                alpha_isa::JumpKind::Ret => InstClass::Return,
                alpha_isa::JumpKind::Jsr => InstClass::IndirectCall,
                _ => InstClass::IndirectJump,
            },
            Inst::CallPal { .. } => InstClass::IntAlu,
            // Traps at `step` above; never retires into the trace.
            Inst::Unimplemented { .. } => unreachable!("unimplemented instructions trap"),
        };
        let mut srcs = [None; 3];
        for (k, r) in inst.sources().iter().enumerate() {
            srcs[k] = Some(r.number());
        }
        d.srcs = srcs;
        d.dst = inst.dest().map(|r| r.number());
        d.mem_addr = outcome.mem.map(|m| m.addr);
        d.taken = outcome.control.is_taken();
        if let Control::Indirect { target, .. } = outcome.control {
            d.v_target = target;
        }
        sink.retire(&d);
        if outcome.control == Control::Halt {
            return (VmExit::Halted, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullSink;
    use crate::translate::ChainPolicy;
    use alpha_isa::{run_to_halt, AlignPolicy, Assembler, Reg};
    use ildp_isa::IsaForm;

    fn loop_program(iters: i16) -> Program {
        let mut asm = Assembler::new(0x1_0000);
        let buf = asm.zero_block(4096);
        asm.li32(Reg::A1, buf as u32);
        asm.lda_imm(Reg::A0, iters);
        asm.clr(Reg::V0);
        let top = asm.here("top");
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.and_imm(Reg::A0, 0x3f, Reg::new(3));
        asm.s8addq(Reg::new(3), Reg::A1, Reg::new(3));
        asm.stq(Reg::V0, 0, Reg::new(3));
        asm.ldq(Reg::new(4), 0, Reg::new(3));
        asm.addq(Reg::V0, Reg::new(4), Reg::V0);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.halt();
        asm.finish().unwrap()
    }

    fn final_state_matches(form: IsaForm, chain: ChainPolicy) {
        let program = loop_program(500);
        // Reference: pure interpretation.
        let (mut rcpu, mut rmem) = program.load();
        run_to_halt(
            &mut rcpu,
            &mut rmem,
            &program,
            AlignPolicy::Enforce,
            100_000,
        )
        .unwrap();

        let config = VmConfig {
            translator: Translator {
                form,
                chain,
                acc_count: 4,
                fuse_memory: false,
            },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(100_000, &mut NullSink);
        assert_eq!(exit, VmExit::Halted);
        assert!(
            vm.stats().fragments > 0,
            "hot loop must have been translated ({form:?}, {chain:?})"
        );
        assert!(
            vm.stats().engine.v_insts > 1_000,
            "most iterations must run translated ({form:?}, {chain:?}): {}",
            vm.stats().engine.v_insts
        );
        assert_eq!(
            vm.cpu().registers(),
            rcpu.registers(),
            "translated execution must preserve architected state \
             ({form:?}, {chain:?})"
        );
    }

    #[test]
    fn modified_form_preserves_architecture() {
        final_state_matches(IsaForm::Modified, ChainPolicy::SwPredDualRas);
    }

    #[test]
    fn basic_form_preserves_architecture() {
        final_state_matches(IsaForm::Basic, ChainPolicy::SwPredDualRas);
    }

    #[test]
    fn no_pred_chaining_preserves_architecture() {
        final_state_matches(IsaForm::Modified, ChainPolicy::NoPred);
    }

    #[test]
    fn sw_pred_chaining_preserves_architecture() {
        final_state_matches(IsaForm::Basic, ChainPolicy::SwPred);
    }

    #[test]
    fn basic_executes_more_instructions_than_modified() {
        let program = loop_program(2000);
        let run = |form| {
            let config = VmConfig {
                translator: Translator {
                    form,
                    ..Translator::default()
                },
                ..VmConfig::default()
            };
            let mut vm = Vm::new(config, &program);
            vm.run(1_000_000, &mut NullSink);
            vm.stats().clone()
        };
        let basic = run(IsaForm::Basic);
        let modified = run(IsaForm::Modified);
        assert!(
            basic.dynamic_expansion() > modified.dynamic_expansion(),
            "basic {} vs modified {}",
            basic.dynamic_expansion(),
            modified.dynamic_expansion()
        );
        assert!(basic.copy_pct() > modified.copy_pct());
        assert!(basic.dynamic_expansion() > 1.0);
    }

    #[test]
    fn overhead_model_reports_per_inst_cost() {
        let program = loop_program(500);
        let mut vm = Vm::new(VmConfig::default(), &program);
        vm.run(100_000, &mut NullSink);
        let per = vm.stats().overhead_per_translated_inst();
        assert!(
            (500.0..2500.0).contains(&per),
            "per-instruction DBT cost {per} out of plausible range"
        );
    }

    #[test]
    fn trace_original_halts_and_counts() {
        let program = loop_program(100);
        let (exit, n) = trace_original(&program, 1_000_000, &mut NullSink);
        assert_eq!(exit, VmExit::Halted);
        assert!(n > 800);
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let program = loop_program(500);
        // Uninterrupted run.
        let mut vm1 = Vm::new(VmConfig::default(), &program);
        assert_eq!(vm1.run(100_000, &mut NullSink), VmExit::Halted);
        // Interrupted at a mid-run boundary, snapshotted, restored cold.
        let mut vm2 = Vm::new(VmConfig::default(), &program);
        let mid = vm1.v_instructions() / 2;
        assert_eq!(vm2.run(mid, &mut NullSink), VmExit::Budget);
        let snap = vm2.snapshot();
        assert!(!snap.translated.is_empty(), "hot loop must be captured");
        let mut vm3 = Vm::restore(VmConfig::default(), &program, &snap).unwrap();
        assert_eq!(vm3.v_instructions(), snap.v_insts);
        assert_eq!(vm3.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(vm3.cpu().registers(), vm1.cpu().registers());
        assert_eq!(vm3.memory().content_digest(), vm1.memory().content_digest());
        assert_eq!(vm3.v_instructions(), vm1.v_instructions());
        // Stats continue cumulatively: the resumed run retranslates the
        // loop, so fragment counts only grow past the snapshot's.
        assert!(vm3.stats().fragments > snap.stats.fragments);
        assert!(vm3.stats().translated_code_bytes > snap.stats.translated_code_bytes);
        // Restoring onto a different program is refused.
        let other = loop_program(501);
        assert!(matches!(
            Vm::restore(VmConfig::default(), &other, &snap),
            Err(SnapshotError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn budget_exhaustion() {
        let program = loop_program(10_000);
        let mut vm = Vm::new(VmConfig::default(), &program);
        let exit = vm.run(5_000, &mut NullSink);
        assert_eq!(exit, VmExit::Budget);
    }

    fn sync_config() -> VmConfig {
        VmConfig {
            async_translate: false,
            ..VmConfig::default()
        }
    }

    #[test]
    fn async_pipeline_matches_sync_architecturally() {
        let program = loop_program(800);
        let mut sync_vm = Vm::new(sync_config(), &program);
        assert_eq!(sync_vm.run(100_000, &mut NullSink), VmExit::Halted);
        let mut async_vm = Vm::new(VmConfig::default(), &program);
        assert_eq!(async_vm.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(async_vm.cpu().registers(), sync_vm.cpu().registers());
        assert_eq!(
            async_vm.memory().content_digest(),
            sync_vm.memory().content_digest()
        );
        assert_eq!(async_vm.output(), sync_vm.output());
        assert_eq!(async_vm.v_instructions(), sync_vm.v_instructions());
        assert!(
            async_vm.stats().fragments > 0,
            "the hot loop must still get translated in the background"
        );
        assert_eq!(
            async_vm.stats().async_installs,
            async_vm.stats().fragments,
            "every async fragment installs through the safe-point path"
        );
    }

    #[test]
    fn delayed_install_parks_translations_until_anchor() {
        let program = loop_program(800);
        let config = VmConfig {
            install_delay: Some(200),
            ..sync_config()
        };
        let mut vm = Vm::new(config, &program);
        assert_eq!(vm.run(100_000, &mut NullSink), VmExit::Halted);
        let mut reference = Vm::new(sync_config(), &program);
        assert_eq!(reference.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(vm.cpu().registers(), reference.cpu().registers());
        assert_eq!(vm.v_instructions(), reference.v_instructions());
        assert!(vm.stats().fragments > 0, "delayed installs must land");
        assert_eq!(vm.stats().async_installs, vm.stats().fragments);
        // Every install was recorded as a count-anchored event.
        assert_eq!(
            vm.bg_events()
                .iter()
                .filter(|e| matches!(e, ReplayEvent::BgInstall { .. }))
                .count() as u64,
            vm.stats().async_installs
        );
    }

    #[test]
    fn warm_start_reuses_published_fragments() {
        let program = loop_program(800);
        let store = Arc::new(FragmentStore::new());
        let mut cold = Vm::new(sync_config(), &program);
        cold.attach_store(Arc::clone(&store));
        assert_eq!(cold.run(100_000, &mut NullSink), VmExit::Halted);
        assert!(cold.stats().warm_stores > 0, "cold VM must publish");
        assert_eq!(cold.stats().warm_hits, 0);

        let mut warm = Vm::new(sync_config(), &program);
        warm.attach_store(Arc::clone(&store));
        assert_eq!(warm.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(warm.cpu().registers(), cold.cpu().registers());
        assert_eq!(warm.v_instructions(), cold.v_instructions());
        assert!(warm.stats().fragments > 0);
        assert_eq!(
            warm.stats().warm_hits,
            warm.stats().fragments,
            "every warm fragment must come from the store"
        );
        assert_eq!(warm.stats().warm_misses, 0);
        assert_eq!(
            warm.stats().translation_overhead,
            0,
            "warm start must not pay translation overhead"
        );
    }

    #[test]
    fn recorded_async_run_replays_bit_identically() {
        let program = loop_program(800);
        let mut recorded = Vm::new(VmConfig::default(), &program);
        assert_eq!(recorded.run(100_000, &mut NullSink), VmExit::Halted);
        let events = recorded.take_bg_events();

        let mut replayed = Vm::new(sync_config(), &program);
        replayed.set_install_schedule(&events);
        assert_eq!(replayed.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(replayed.cpu().registers(), recorded.cpu().registers());
        assert_eq!(replayed.v_instructions(), recorded.v_instructions());
        // The replay reproduces the recorded decisions exactly.
        assert_eq!(replayed.bg_events(), events.as_slice());
        let mut a = recorded.stats().clone();
        let mut b = replayed.stats().clone();
        for s in [&mut a, &mut b] {
            s.verify_nanos = 0;
            s.translate_stall_nanos = 0;
            s.translate_wall_nanos = 0;
            s.pool_await_max_nanos = 0;
            s.pool_respawns = 0;
        }
        assert_eq!(a, b, "stats must be bit-identical modulo wall clocks");
    }

    /// Three loops run one after another, each a straight-line body (one
    /// NOP included) closed by a backward branch; with `calls`, each body
    /// also calls a leaf through `bsr`/`ret`.
    fn phased_program(calls: bool) -> Program {
        let mut asm = Assembler::new(0x1_0000);
        let buf = asm.zero_block(512);
        let leaf = asm.label("leaf");
        asm.li32(Reg::A1, buf as u32);
        asm.clr(Reg::V0);
        for phase in 0..3u8 {
            asm.lda_imm(Reg::A0, 120);
            let top = asm.here(format!("loop{phase}"));
            asm.addq(Reg::V0, Reg::A0, Reg::V0);
            asm.and_imm(Reg::A0, 0x3f, Reg::new(3));
            asm.nop();
            asm.s8addq(Reg::new(3), Reg::A1, Reg::new(3));
            asm.stq(Reg::V0, 0, Reg::new(3));
            if calls {
                asm.bsr(leaf);
            }
            asm.ldq(Reg::new(4), 0, Reg::new(3));
            asm.addq_imm(Reg::V0, phase + 1, Reg::V0);
            asm.xor(Reg::V0, Reg::new(4), Reg::V0);
            asm.subq_imm(Reg::A0, 1, Reg::A0);
            asm.bne(Reg::A0, top);
        }
        asm.halt();
        asm.bind(leaf);
        asm.addq_imm(Reg::V0, 3, Reg::V0);
        asm.ret();
        asm.finish().unwrap()
    }

    fn interp_only_config() -> VmConfig {
        VmConfig {
            max_demotions: 0,
            ..sync_config()
        }
    }

    /// `stats` with every wall-clock field zeroed.
    fn without_clocks(stats: &VmStats) -> VmStats {
        VmStats {
            verify_nanos: 0,
            translate_stall_nanos: 0,
            translate_wall_nanos: 0,
            pool_await_max_nanos: 0,
            ..stats.clone()
        }
    }

    /// Steps `vm` to the halt one retired instruction per `run` call and
    /// returns the counts `b` whose `b`-th instruction the interpreter
    /// retired on its own (no engine execution, no collection in that
    /// call): a budget of `b` lands in interpreted code.
    fn interpreted_positions(vm: &mut Vm) -> HashSet<u64> {
        let mut positions = HashSet::new();
        loop {
            let (v, engine, fragments) = (
                vm.v_instructions(),
                vm.engine.stats.v_insts,
                vm.stats.fragments,
            );
            let exit = vm.run(v + 1, &mut NullSink);
            if vm.engine.stats.v_insts == engine && vm.stats.fragments == fragments {
                positions.insert(vm.v_instructions());
            }
            if exit != VmExit::Budget {
                assert_eq!(exit, VmExit::Halted);
                return positions;
            }
        }
    }

    #[test]
    fn budgets_landing_in_interpreted_code_stop_exactly() {
        for (config, calls) in [
            (interp_only_config(), true),
            (sync_config(), true),
            (sync_config(), false),
        ] {
            let program = phased_program(calls);
            let interpreted = interpreted_positions(&mut Vm::new(config, &program));
            let mut reference = Vm::new(config, &program);
            assert_eq!(reference.run(u64::MAX, &mut NullSink), VmExit::Halted);
            let total = reference.v_instructions();
            if config.max_demotions == 0 {
                assert_eq!(
                    interpreted.len() as u64,
                    total,
                    "every count is interpreted"
                );
            } else {
                assert!(reference.stats().engine.v_insts > total / 2);
            }
            let mut exact = 0;
            for b in (1..total).step_by(3) {
                let mut vm = Vm::new(config, &program);
                assert_eq!(vm.run(b, &mut NullSink), VmExit::Budget, "budget {b}");
                assert!(vm.v_instructions() >= b);
                if interpreted.contains(&b) {
                    assert_eq!(vm.v_instructions(), b, "budget {b} overshot");
                    exact += 1;
                }
            }
            assert!(
                exact >= 100,
                "only {exact} budgets landed in interpreted code"
            );
        }
    }

    #[test]
    fn chained_budgeted_runs_match_a_single_run() {
        const STRIDES: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
        for config in [interp_only_config(), sync_config()] {
            let program = phased_program(true);
            let mut single = Vm::new(config, &program);
            assert_eq!(single.run(u64::MAX, &mut NullSink), VmExit::Halted);
            let mut chained = Vm::new(config, &program);
            let mut calls = 0;
            loop {
                let budget = chained.v_instructions() + STRIDES[calls % STRIDES.len()];
                calls += 1;
                match chained.run(budget, &mut NullSink) {
                    VmExit::Budget => {}
                    exit => {
                        assert_eq!(exit, VmExit::Halted);
                        break;
                    }
                }
            }
            assert!(calls > 100);
            assert_eq!(chained.cpu().registers(), single.cpu().registers());
            assert_eq!(
                chained.memory().content_digest(),
                single.memory().content_digest()
            );
            assert_eq!(chained.output(), single.output());
            assert_eq!(chained.v_instructions(), single.v_instructions());
            assert_eq!(
                without_clocks(chained.stats()),
                without_clocks(single.stats())
            );
        }
    }

    #[test]
    fn delayed_installs_land_exactly_on_mid_block_anchors() {
        let program = phased_program(false);
        for delay in [1, 3, 7] {
            let config = VmConfig {
                install_delay: Some(delay),
                ..sync_config()
            };
            // Stepping one instruction per call reveals every staged
            // translation and its anchor before the anchor arrives.
            let mut stepped = Vm::new(config, &program);
            let mut anchors = Vec::new();
            loop {
                let exit = stepped.run(stepped.v_instructions() + 1, &mut NullSink);
                for s in &stepped.staged {
                    if !anchors.contains(&(s.vstart, s.anchor)) {
                        anchors.push((s.vstart, s.anchor));
                    }
                }
                if exit != VmExit::Budget {
                    assert_eq!(exit, VmExit::Halted);
                    break;
                }
            }
            assert_eq!(anchors.len(), 3, "one install per loop");

            let mut vm = Vm::new(config, &program);
            assert_eq!(vm.run(u64::MAX, &mut NullSink), VmExit::Halted);
            let installs: Vec<(u64, u64)> = vm
                .bg_events()
                .iter()
                .map(|e| match *e {
                    ReplayEvent::BgInstall {
                        fragment_vstart,
                        at_v_insts,
                    } => (fragment_vstart, at_v_insts),
                    ref other => panic!("unexpected event {other:?}"),
                })
                .collect();
            assert_eq!(installs, anchors, "delay {delay}");
            assert_eq!(vm.bg_events(), stepped.bg_events());

            let mut replayed = Vm::new(sync_config(), &program);
            replayed.set_install_schedule(vm.bg_events());
            assert_eq!(replayed.run(u64::MAX, &mut NullSink), VmExit::Halted);
            assert_eq!(replayed.cpu().registers(), vm.cpu().registers());
            assert_eq!(
                replayed.memory().content_digest(),
                vm.memory().content_digest()
            );
            assert_eq!(replayed.output(), vm.output());
            assert_eq!(replayed.v_instructions(), vm.v_instructions());
            assert_eq!(replayed.bg_events(), vm.bg_events());
            assert_eq!(without_clocks(replayed.stats()), without_clocks(vm.stats()));
        }
    }
}
