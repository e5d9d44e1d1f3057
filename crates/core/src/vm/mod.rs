//! The co-designed virtual machine run loop (paper §4.1).
//!
//! Orchestrates the three modes: **interpret** (with candidate profiling),
//! **translate** (superblock collection → strand translation → fragment
//! installation and patching), and **execute** (the [`Engine`] running
//! translated code, streaming the retired-instruction trace into a timing
//! model). Matches the paper's simulation methodology: detailed timing is
//! collected for translated (and chained) code only, and the overall
//! performance metric is V-ISA instructions per cycle over that trace.
//!
//! The module splits along the VM's stages: `config` holds the
//! configuration and statistics types, `admit` the install decision every
//! translation goes through, `background` the count-anchored install
//! point of pool and delayed translations, `region` profile-guided region
//! re-formation, and `run` the interpret/execute loop.
//!
//! Every run is a pure function of the program, the configuration, the
//! run budgets and whatever an embedder applies between runs: a
//! translation submitted to the pool installs at a count anchor, not
//! when its reply happens to arrive, and every pool fault falls back to
//! the same code at the same anchor (`background`).

mod admit;
mod background;
mod config;
mod region;
mod run;

pub use background::POOL_INSTALL_DELAY;
pub use config::{
    FlushPolicy, InstallReview, InstallValidator, OnViolation, VmConfig, VmExit, VmStats,
};
pub use region::RegionEvent;
pub(crate) use run::alpha_view;
pub use run::trace_original;

use crate::artifact::{ArtifactKey, FragmentStore};
use crate::engine::Engine;
use crate::error::SnapshotError;
use crate::fragment::{FragmentId, TranslationCache};
use crate::pipeline::{TranslatePool, TranslateResponse};
use crate::profile::{Candidates, LoweredCode, ProfileConfig};
use crate::snapshot::{program_digest, Snapshot};
use crate::translate::{ChainPolicy, Translator};
use alpha_isa::{CpuState, DecodeCache, Memory, Program};
use background::Staged;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

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
    /// The interpreter's lowered tier, parallel to `decoded`.
    lowered: LoweredCode,
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
    /// `current_stats` recomputes `translated_code_bytes`, `evictions`
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
    /// Monotonic source of [`crate::TranslateRequest::token`] values for this
    /// VM's submissions.
    next_token: u64,
    /// Collected regions parked until their count anchor, in anchor
    /// order — the per-region dedup of pool and delayed translations.
    staged: Vec<Staged>,
    /// Count-anchored region promotion and refusal events this run
    /// produced: the witness that two runs re-formed the same regions.
    region_events: Vec<RegionEvent>,
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
    /// Translations the validator refused but [`OnViolation::Record`]
    /// installed anyway: entry V-address and diagnostic, in decision
    /// order.
    violations: Vec<(u64, String)>,
}

impl<'p> Vm<'p> {
    /// Creates a VM with the program loaded and the PC at its entry.
    pub fn new(config: VmConfig, program: &'p Program) -> Vm<'p> {
        let (cpu, mem) = program.load();
        let (reply_tx, reply_rx) = channel();
        let pool = config
            .async_translate
            .then(|| Arc::clone(TranslatePool::global()));
        Vm {
            config,
            program,
            decoded: DecodeCache::new(program),
            lowered: LoweredCode::new(program),
            cpu,
            mem,
            candidates: Candidates::new(),
            cache: TranslationCache::new(),
            engine: Engine::new(config.engine),
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
            next_token: 0,
            staged: Vec::new(),
            region_events: Vec::new(),
            store: None,
            store_keys: HashMap::new(),
            region_src: HashMap::new(),
            region_banned: HashSet::new(),
            violations: Vec::new(),
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
        fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
            let mut v: Vec<T> = items.collect();
            v.sort_unstable();
            v
        }
        let nonzero = |(_, bytes): &(u64, &[u8])| bytes.iter().any(|&b| b != 0);
        Snapshot {
            program_digest: program_digest(self.program),
            v_insts: self.v_instructions(),
            pc: self.cpu.pc,
            regs: self.cpu.registers(),
            pages: sorted(
                self.mem
                    .pages()
                    .filter(nonzero)
                    .map(|(n, b)| (n, b.to_vec())),
            ),
            output: self.output.clone(),
            candidates: sorted(self.candidates.counters()),
            translated: sorted(self.cache.fragments().map(|f| f.vstart)),
            demotion: sorted(self.demotion.iter().map(|(&a, &l)| (a, l))),
            smc_counts: sorted(self.smc_counts.iter().map(|(&a, &c)| (a, c))),
            stats: self.current_stats(),
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

    /// The statistics with the cache- and engine-derived fields brought
    /// current: what every `run` exit stores, and what a snapshot taken
    /// between `run` calls captures even if the caller poked at the cache.
    fn current_stats(&self) -> VmStats {
        VmStats {
            interpretation_overhead: self.stats.interpreted
                * self.config.cost.interp_cost_per_inst(),
            translated_code_bytes: self.base_code_bytes + self.cache.total_code_bytes(),
            evictions: self.base_evictions + self.cache.evictions(),
            unlinked_sites: self.base_unlinked + self.cache.unpatches(),
            engine: self.engine.stats.clone(),
            ..self.stats.clone()
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The validator's findings on translations installed under
    /// [`OnViolation::Record`]: entry V-address and diagnostic, in the
    /// order the install decisions were made.
    pub fn violations(&self) -> &[(u64, String)] {
        &self.violations
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
    /// Triage lockstep is count-anchored on exactly this value.
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
                let n = self.smc_counts.entry(vstart).or_insert(0);
                *n += 1;
                if *n >= 2 {
                    self.demote(vstart);
                }
            }
        }
    }

    /// The count-anchored region promotions and refusals so far, in
    /// order: the witness that two runs re-formed the same regions.
    pub fn region_events(&self) -> &[RegionEvent] {
        &self.region_events
    }

    /// Attaches a shared warm-start fragment store. Must be called before
    /// the run starts translating.
    pub fn attach_store(&mut self, store: Arc<FragmentStore>) {
        // Damage observed while the store was opened from disk becomes
        // visible on this VM's stats: it bounds how much warm start the
        // run can possibly get.
        self.stats.store_load_rejects = store.stats().load_rejects;
        self.store = Some(store);
    }

    /// Attaches a translation pool, enabling background translation even
    /// if [`VmConfig::async_translate`] was off at construction. Must be
    /// called before the run starts translating.
    pub fn attach_pool(&mut self, pool: Arc<TranslatePool>) {
        self.pool = Some(pool);
    }
}

#[cfg(test)]
mod tests;
