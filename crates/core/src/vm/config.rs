//! VM configuration, exit conditions and run statistics.

use crate::classify::CategoryCounts;
use crate::cost::CostModel;
use crate::engine::EngineConfig;
use crate::error::VmError;
use crate::profile::ProfileConfig;
use crate::translate::Translator;
use alpha_isa::Trap;
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
    /// Install the translation anyway and keep the diagnostic on the VM
    /// ([`crate::Vm::violations`]): audits a whole run without changing
    /// its execution, on whichever thread the validator ran.
    Record,
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
    /// Degradation-ladder depth: how many demotions a region takes before
    /// it is blacklisted to interpret-only. Level 0 translates with the
    /// configured translator, levels ≥ 1 without the optional
    /// optimizations; `max_demotions` of 0 means interpret everything.
    pub max_demotions: u8,
    /// Translate hot regions on the process-wide background worker pool
    /// (default; [`Vm::attach_pool`](crate::Vm::attach_pool) attaches
    /// another). Superblock collection stays on the execution thread, and
    /// the finished fragment installs at its count anchor
    /// ([`VmConfig::install_delay`]), so the run retires exactly what a
    /// run without a pool at the same delay retires. `false` translates
    /// inline, stalling the guest, unless `install_delay` is set.
    pub async_translate: bool,
    /// Deadline for taking a pool reply at its anchor: past it
    /// ([`VmStats::pool_timeouts`]) the VM translates the collected
    /// superblock itself and installs that at the same anchor. The upper
    /// bound on how long any VM step can block on the pool, whatever its
    /// workers are doing; a timeout changes no retired count.
    pub translate_timeout: Duration,
    /// Optional re-verification of warm-start artifacts before install:
    /// when set, every fragment taken from the attached
    /// [`FragmentStore`](crate::FragmentStore) is rehydrated and run
    /// through this validator first (the
    /// `ildp-verifier` crate's `artifact_validator` runs the trace-free
    /// pass families). A refused artifact is removed from the store,
    /// counted in [`VmStats::store_quarantined`], and the VM falls back
    /// to translating fresh — the policy for stores whose provenance is
    /// not trusted, e.g. loaded from disk.
    pub store_validator: Option<InstallValidator>,
    /// The install latency D, in retired V-ISA instructions: a
    /// translation leaving the inline path installs at the first
    /// fragment-boundary safe point at or past its submit count plus D.
    /// On a VM with a pool, `None` means
    /// [`POOL_INSTALL_DELAY`](crate::POOL_INSTALL_DELAY). On a VM without
    /// one, `Some(d)` translates inline but parks the code until the same
    /// anchor, so the run equals a pool run with the same D; `None`
    /// installs inline. Store hits install inline either way.
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
            max_demotions: 2,
            async_translate: true,
            translate_timeout: Duration::from_secs(10),
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
    /// (synchronous translations, inline fallbacks from pool faults, and
    /// blocking waits for a pool reply at its anchor).
    pub translate_stall_nanos: u64,
    /// Total wall nanoseconds of translation + verification work done on
    /// behalf of this VM, wherever it ran. With background translation
    /// this exceeds [`VmStats::translate_stall_nanos`] — the difference
    /// is work the pipeline hid from the guest.
    pub translate_wall_nanos: u64,
    /// Warm-start installs: fragments taken pre-translated (and
    /// pre-verified) from the shared [`FragmentStore`](crate::FragmentStore).
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
    /// snapshotted at [`Vm::attach_store`](super::Vm::attach_store) time.
    pub store_load_rejects: u64,
    /// Parked translations installed at their count anchor.
    pub async_installs: u64,
    /// Parked translations dropped at their anchor (stale epoch, demoted
    /// or blacklisted region, SMC hit, validator rejection) or before it
    /// (a chaos-injected drop).
    pub async_dropped: u64,
    /// Pool replies not in hand by the [`VmConfig::translate_timeout`]
    /// deadline at their anchor (dead worker, dropped or late reply);
    /// each fell back to inline translation for the same anchor.
    pub pool_timeouts: u64,
    /// Pool replies that came back as a contained worker panic
    /// (structured `TranslateError` reply); each fell back to inline
    /// translation for the same anchor. A host fault, not a property of
    /// the translation: the region is not demoted.
    pub pool_panics: u64,
    /// Dead pool workers respawned by supervision passes this VM's
    /// submissions triggered. Pool-side health accounting only — a
    /// respawn is architecturally invisible, so run comparisons zero
    /// it like the wall-clock counters.
    pub pool_respawns: u64,
    /// Submissions refused by the pool's bounded queue (backpressure);
    /// each fell back to inline translation for the same anchor.
    pub pool_shed: u64,
    /// Translations performed inline at their anchor because the pool
    /// faulted (timeout, panic or shed) — the count of times the failure
    /// envelope's fallback edge was actually taken.
    pub sync_fallbacks: u64,
    /// Longest single blocking wait for a pool reply, in wall nanoseconds
    /// (bounded by [`VmConfig::translate_timeout`] plus scheduling
    /// slack). Wall-clock measurement: run comparisons zero it.
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
