//! Admission and install: superblock collection, the warm-start store
//! lookup, and [`Vm::admit`], the one install decision every translation
//! route goes through.

use super::{InstallReview, OnViolation, Vm};
use crate::artifact::{artifact_key, ArtifactKey, FragmentArtifact, FragmentStore, StoreLookup};
use crate::fragment::FragmentId;
use crate::pipeline::{translate_job, TranslateOutput};
use crate::profile::collect_superblock_with_output;
use crate::translate::{TranslatedCode, Translator};
use ildp_isa::IsaForm;

/// Liveness facts captured when a region's translation leaves the
/// execution thread; the install decision re-checks them at the safe
/// point and drops the translation if any moved. The collected
/// superblock rides along so a pool fault can fall back to translating
/// it inline without re-executing the guest path.
#[derive(Debug)]
pub(super) struct Pending {
    level: u8,
    epoch: u64,
    smc: u32,
    pub(super) translator: Translator,
    key: Option<ArtifactKey>,
    /// Token matching the pool submission whose reply is due (see
    /// [`crate::TranslateRequest::token`]); 0 when no reply is awaited.
    pub(super) token: u64,
    pub(super) sb: crate::Superblock,
}

/// A finished translation awaiting its install decision ([`Vm::admit`]):
/// the liveness facts and superblock captured at collection, with the
/// emitted code and the validator's verdict.
#[derive(Debug)]
pub(super) struct Finished {
    pub(super) pending: Pending,
    pub(super) out: TranslateOutput,
}

/// The route a finished translation reaches [`Vm::admit`] by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Route {
    /// Translated synchronously on the execution thread right after
    /// collection.
    Inline,
    /// A parked translation at its count anchor, whether the pool, the
    /// inline fallback or a VM without a pool produced it.
    Anchored,
}

impl Vm<'_> {
    pub(super) fn translate_at(&mut self, vaddr: u64) -> bool {
        debug_assert_eq!(self.cpu.pc, vaddr);
        if self.cache.lookup(vaddr).is_some() {
            return true;
        }
        // The region re-heated before its anchor: it keeps interpreting
        // until the parked translation installs.
        if self.staged.iter().any(|s| s.vstart() == vaddr) {
            return false;
        }
        let level = self.demotion.get(&vaddr).copied().unwrap_or(0);
        if level >= self.config.max_demotions {
            // Bottom of the ladder: this region stays interpreted.
            return false;
        }
        let (translator, profile) = self.translation_tier(level);
        let sb = match collect_superblock_with_output(
            &mut self.cpu,
            &mut self.mem,
            &self.decoded,
            &profile,
            &mut self.output,
        ) {
            Ok(sb) if !sb.is_empty() => sb,
            Ok(_) => return false,
            Err(t) => {
                // Trap during collection: abandon the superblock; the trap
                // will be re-raised by ordinary interpretation, but the
                // instructions before it have retired.
                self.stats.interpreted += t.executed;
                self.cpu.pc = t.vaddr;
                return false;
            }
        };
        // Collection executed the path once: count it as interpreted work
        // (the paper's collection runs during interpretation). Counted
        // here — identically in every pipeline mode — so async and sync
        // runs retire the same count-anchored instruction stream. A block
        // that ran into the guest's halt is special: the halt stays at the
        // PC and re-raises through ordinary interpretation (which counts
        // it and ends the run), so counting it here too would retire it
        // twice.
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
        if let Some(store) = self.store.clone() {
            let key = artifact_key(self.program, &pending.sb, &translator);
            pending.key = Some(key);
            if let Some((code, form)) = self.take_artifact(&store, &key, &pending) {
                self.stats.warm_hits += 1;
                self.region_src.insert(vaddr, pending.sb);
                self.install(code, form, Some(key), false);
                return true;
            }
        }
        if let Some(delay) = self.install_latency() {
            self.park(pending, delay);
            return false;
        }
        // Synchronous pipeline: translate and verify on the execution
        // thread — the guest stalls for all of it.
        let job = self.translate_here(pending, true);
        self.admit(job, Route::Inline)
    }

    /// Translates and verifies a collected region on the execution
    /// thread. `stall` charges the time as guest-visible stall — every
    /// inline translation except one parked on a VM without a pool,
    /// whose latency the anchor stands in for.
    pub(super) fn translate_here(&mut self, pending: Pending, stall: bool) -> Finished {
        let (out, wall) = translate_job(&pending.sb, &pending.translator, self.config.validator);
        self.stats.translate_wall_nanos += wall;
        if stall {
            self.stats.translate_stall_nanos += wall;
        }
        Finished { pending, out }
    }

    /// The install decision, the one step every route a translation takes
    /// to the cache goes through: re-checks the liveness facts captured
    /// when the region was collected, accounts the verifier, applies the
    /// verdict (a refused region descends the degradation ladder) and
    /// installs. Anchored translations count as asynchronous installs or
    /// drops whichever way their code was produced, so a pool run, its
    /// faulted twin and a run without a pool at the same delay all decide
    /// and count alike. Returns whether the region's fragment is installed
    /// afterwards.
    ///
    /// An inline translation is never stale (its facts are captured
    /// after collection, with nothing in between that could move them),
    /// so the check is a no-op for it.
    pub(super) fn admit(&mut self, job: Finished, route: Route) -> bool {
        let Finished { pending, out } = job;
        let vstart = out.code.vstart;
        let anchored = route == Route::Anchored;
        // An anchored translation was verified wherever it ran and counts
        // as verified even if it is dropped; the inline route counts
        // verification only for a translation it goes on to use.
        if anchored {
            self.account_verify(out.verify_nanos);
        }
        if self.is_stale(vstart, &pending) {
            self.stats.async_dropped += 1;
            self.candidates.reset(vstart);
            return self.cache.lookup(vstart).is_some();
        }
        if !anchored {
            self.account_verify(out.verify_nanos);
        }
        if let Err(msg) = out.verdict {
            if !self.refuse("fragment", vstart, msg) {
                // Ladder: retry without the optional optimizations, then
                // blacklist.
                self.demote(vstart);
                if anchored {
                    self.stats.async_dropped += 1;
                }
                return false;
            }
        }
        if anchored {
            self.stats.async_installs += 1;
        }
        self.region_src.insert(vstart, pending.sb);
        self.install(out.code, pending.translator.form, pending.key, true);
        true
    }

    /// Whether the liveness facts captured in `pending` moved before the
    /// install decision: the region got a fragment meanwhile, descended
    /// the ladder, the cache epoch bumped, or an SMC write hit it.
    fn is_stale(&self, vstart: u64, pending: &Pending) -> bool {
        let level_now = self.demotion.get(&vstart).copied().unwrap_or(0);
        self.cache.lookup(vstart).is_some()
            || level_now != pending.level
            || level_now >= self.config.max_demotions
            || self.cache.epoch() != pending.epoch
            || self.smc_counts.get(&vstart).copied().unwrap_or(0) != pending.smc
    }

    /// Counts one install-validator pass. Verifier time is accounted
    /// separately from the paper's translation-overhead model: it is a
    /// debugging aid, not part of the modeled DBT cost.
    pub(super) fn account_verify(&mut self, nanos: u64) {
        if self.config.validator.is_some() {
            self.stats.verify_nanos += nanos;
            self.stats.fragments_verified += 1;
        }
    }

    /// Applies [`crate::VmConfig::on_violation`] to a translation the
    /// validator refused and returns whether the caller goes on to
    /// install it: panics with the diagnostic, counts the refusal
    /// ([`crate::VmStats::verify_rejected`]) and backs out, or records
    /// the diagnostic ([`Vm::violations`]) and goes on.
    pub(super) fn refuse(&mut self, what: &str, vstart: u64, msg: String) -> bool {
        match self.config.on_violation {
            OnViolation::Panic => {
                panic!("translation validator rejected {what} at {vstart:#x}: {msg}")
            }
            OnViolation::Reject => {
                self.stats.verify_rejected += 1;
                false
            }
            OnViolation::Record => {
                self.violations.push((vstart, msg));
                true
            }
        }
    }

    /// Installs a translation: merges its static statistics, installs it
    /// in the cache and enforces the cache budget. A `fresh` translation
    /// (made by this VM) is charged the modelled translation overhead and
    /// published to the shared store when one is attached. A warm-start
    /// artifact taken from the store is charged nothing — skipping
    /// translation is the point of the warm start — but its static
    /// statistics still merge so Table 2 ratios stay meaningful. Returns
    /// the installed fragment's id (the just-installed fragment is
    /// protected from the budget's clock eviction, so the id is live).
    pub(super) fn install(
        &mut self,
        code: TranslatedCode,
        form: IsaForm,
        key: Option<ArtifactKey>,
        fresh: bool,
    ) -> FragmentId {
        self.maybe_flush();
        self.stats.fragments += 1;
        self.stats.translated_src_insts += code.src_inst_count as u64;
        self.stats.emitted_insts += code.insts.len() as u64;
        self.stats.static_copies += code.stats.copies as u64;
        self.stats.strands += code.stats.strands as u64;
        self.stats.terminations += code.stats.terminations as u64;
        self.stats.static_categories.merge(&code.stats.categories);
        if fresh {
            self.stats.translation_overhead += self.config.cost.fragment_cost(
                form,
                code.src_inst_count as u64,
                code.insts.len() as u64,
            );
        }
        let code = match key {
            Some(key) => {
                self.store_keys.insert(code.vstart, key);
                match self.store.as_ref().filter(|_| fresh) {
                    Some(store) => {
                        // Publish without a copy: the code goes into the
                        // artifact and comes back out for install.
                        let art = FragmentArtifact::from_translated_code(code, form);
                        if store.put(key, &art) {
                            self.stats.warm_stores += 1;
                        }
                        art.into_translated_code()
                    }
                    None => code,
                }
            }
            None => code,
        };
        if self.stats.warmup_interpreted == 0 {
            self.stats.warmup_interpreted = self.stats.interpreted;
        }
        let id = self.cache.install(
            code.vstart,
            form,
            code.insts,
            code.meta,
            code.src_inst_count,
            code.recovery,
        );
        self.enforce_cache_budget(id);
        id
    }

    /// Warm start: takes this region's translation from the shared store
    /// when another VM already published it. An artifact the store
    /// quarantines, or [`crate::VmConfig::store_validator`] refuses (it is
    /// removed from the store), degrades to a miss and the normal
    /// translate/verify path.
    fn take_artifact(
        &mut self,
        store: &FragmentStore,
        key: &ArtifactKey,
        pending: &Pending,
    ) -> Option<(TranslatedCode, IsaForm)> {
        match store.lookup(key) {
            StoreLookup::Hit(art) => {
                let form = art.form;
                let code = art.into_translated_code();
                let trusted = self.config.store_validator.is_none_or(|validate| {
                    validate(&InstallReview {
                        sb: &pending.sb,
                        code: &code,
                        translator: &pending.translator,
                    })
                    .is_ok()
                });
                if trusted {
                    return Some((code, form));
                }
                store.remove(key);
                self.stats.store_quarantined += 1;
            }
            StoreLookup::Miss => {}
            StoreLookup::Quarantined(_) => self.stats.store_quarantined += 1,
        }
        self.stats.warm_misses += 1;
        None
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
}
