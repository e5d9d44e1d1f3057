//! Translated fragments and the translation cache.
//!
//! A *fragment* is a translated superblock installed in the code cache
//! (paper §3.1, after [3,4]). The [`TranslationCache`] owns all fragments,
//! assigns their I-ISA code addresses, maintains the V-PC → fragment map
//! (Figure 3's "PC translation lookup table"), and performs **fragment
//! chaining**: when a new fragment is installed, every earlier
//! `call-translator` exit that targets its V-address is patched into a
//! direct branch (paper §3.2).

use crate::classify::UsageCat;
use crate::engine::{lower, Op, Retired};
use alpha_isa::{PageHasher, Reg};
use ildp_isa::{ASrc, Acc, IInst, ITarget, IsaForm};
use ildp_uarch::{DynInst, InstClass};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Hasher for the V-address-keyed maps probed on the interpreter's
/// per-instruction path (fragment entry lookup, candidate counters).
pub(crate) type AddrHasher = BuildHasherDefault<PageHasher>;

/// Identifier of an installed fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FragmentId(pub u32);

/// Per-instruction metadata carried alongside the I-ISA code (the
/// simulation-side analogue of the paper's PEI side tables).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IMeta {
    /// The V-address of the originating V-ISA instruction.
    pub vaddr: u64,
    /// V-ISA instructions retired when this instruction completes.
    pub vcount: u16,
    /// Usage category of the value this instruction produces (for the
    /// Figure 7 statistic), if it is the producing instruction of a
    /// classified value.
    pub category: Option<UsageCat>,
    /// Whether this instruction is fragment-chaining overhead (software
    /// jump prediction, dispatch transfers, RAS pushes).
    pub is_chain: bool,
}

impl IMeta {
    /// Metadata for a chaining-overhead instruction at `vaddr`.
    pub fn chain(vaddr: u64) -> IMeta {
        IMeta {
            vaddr,
            vcount: 0,
            category: None,
            is_chain: true,
        }
    }
}

/// Precise-trap recovery entry: at this PEI, the architected value of
/// `reg` lives in accumulator `acc` (basic-form fragments only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryEntry {
    /// The architected register.
    pub reg: Reg,
    /// The accumulator holding its value.
    pub acc: Acc,
}

/// A translated superblock installed in the code cache.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// This fragment's id.
    pub id: FragmentId,
    /// The V-address of the first source instruction (embedded in the
    /// leading `SetVpcBase` instruction).
    pub vstart: u64,
    /// The fragment's I-ISA base address in the code cache.
    pub istart: u64,
    /// The translated instructions.
    pub insts: Vec<IInst>,
    /// Parallel per-instruction metadata.
    pub meta: Vec<IMeta>,
    /// Per-instruction I-addresses (cumulative from `istart`).
    pub iaddrs: Vec<u64>,
    /// The ISA form this fragment was translated to.
    pub form: IsaForm,
    /// Number of V-ISA instructions in the source superblock.
    pub src_inst_count: u32,
    /// Per PEI instruction index: accumulator-resident architected values
    /// to merge into the GPR file on a trap (basic form).
    pub recovery: HashMap<u32, Vec<RecoveryEntry>>,
    /// Per-instruction direct links: for a control transfer whose target
    /// I-address is resolved, the fragment whose entry point it is. Kept in
    /// lockstep with patching so the engine follows links without hashing
    /// through the I-address lookup map. Invalidated wholesale by
    /// [`TranslationCache::flush`] (the fragments are dropped).
    pub links: Vec<Option<FragmentId>>,
    /// The engine's lowered form of `insts` (with `links` folded in), one
    /// op per instruction. The cache re-lowers a slot at every patch and
    /// un-patch and the whole fragment at every
    /// [`edit_fragment`](TranslationCache::edit_fragment), so it always
    /// equals the lowering of the current code.
    pub(crate) ops: Vec<Op>,
    /// Retirement prefix table (`insts.len() + 1` rows): what the first
    /// `k` instructions retire, settled by the engine at fragment exits.
    pub(crate) retired: Vec<Retired>,
    /// Per-instruction trace templates ([`Fragment::trace_templates`]),
    /// built on the fragment's first traced entry and empty until then;
    /// kept in lockstep with patching once built.
    pub(crate) templates: Vec<DynInst>,
    /// Times this fragment has been entered (for statistics).
    pub entries: u64,
    /// Clock-eviction referenced bit: set by the engine on entry, cleared
    /// by the clock hand's first pass ([`TranslationCache::enforce_budget`]).
    pub referenced: bool,
    /// The guest pages (V-address >> [`SMC_PAGE_SHIFT`]) this fragment was
    /// translated from. A guest store into any of them invalidates the
    /// fragment (self-modifying-code detection).
    pub src_pages: Vec<u64>,
    /// Whether this fragment is a merged *region* (profile-guided region
    /// re-formation): a re-translation of several hot chained fragments'
    /// merged superblock. Regions never re-promote — the engine's
    /// region-hot trigger fires only for plain fragments.
    pub is_region: bool,
    /// Per-instruction exit V-targets, recorded at install time from the
    /// pre-patch instruction stream: `Some(vtarget)` for every patchable
    /// translator exit (`CallTranslator`/`CallTranslatorIfCond`) and every
    /// dual-RAS push (its V-side return address). Patching rewrites the
    /// instruction into a direct branch and discards the embedded
    /// V-address; this table preserves it, so whole-cache analyses can
    /// check that every resolved link lands on the fragment translated
    /// from the V-address the exit was emitted for.
    pub exit_varms: Vec<Option<u64>>,
}

impl Fragment {
    /// Total encoded size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.insts
            .iter()
            .map(|i| i.size_bytes(self.form) as u64)
            .sum()
    }

    /// The I-address after instruction `k` (its fall-through `next_pc`).
    fn next_pc(&self, k: usize) -> u64 {
        self.iaddrs
            .get(k + 1)
            .copied()
            .unwrap_or(self.iaddrs[k] + self.insts[k].size_bytes(self.form) as u64)
    }

    /// The lowering of instruction `k` in its current form.
    pub(crate) fn lowered(&self, k: usize) -> Op {
        lower(&self.insts[k], self.links[k], self.next_pc(k))
    }

    fn template(&self, k: usize) -> DynInst {
        build_template(
            &self.insts[k],
            self.iaddrs[k],
            self.next_pc(k),
            &self.meta[k],
            self.form,
        )
    }

    /// Predecoded per-instruction trace templates: everything about a
    /// [`DynInst`] that is static — PC, size, operand names, class, the
    /// fall-through `next_pc` — so tracing execution is copy-plus-patch
    /// instead of per-retire construction.
    pub fn trace_templates(&self) -> Vec<DynInst> {
        (0..self.insts.len()).map(|k| self.template(k)).collect()
    }

    /// Re-derives the op stream, the retirement table and (once built)
    /// the trace templates from the current code — the edit path's
    /// whole-fragment refresh; install derives the same in its one walk.
    fn relower(&mut self) {
        self.ops = (0..self.insts.len()).map(|k| self.lowered(k)).collect();
        self.retired = Retired::table(&self.insts, &self.meta);
        if !self.templates.is_empty() {
            self.templates = self.trace_templates();
        }
    }

    /// Indices of PEI instructions with their V-addresses (the PEI table of
    /// paper §2.2).
    pub fn pei_table(&self) -> Vec<(u32, u64)> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.is_pei())
            .map(|(i, _)| (i as u32, self.meta[i].vaddr))
            .collect()
    }
}

/// The translation cache: installed fragments, the V-PC lookup map, and
/// pending cross-fragment patches.
///
/// Fragments live in id-indexed slots; precise invalidation (eviction,
/// self-modifying-code detection) empties a slot without renumbering the
/// survivors, so `FragmentId`s are never reused within an epoch.
///
/// # Examples
///
/// ```
/// use ildp_core::TranslationCache;
/// let cache = TranslationCache::new();
/// assert_eq!(cache.lookup(0x1000), None);
/// assert_eq!(cache.fragments().count(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TranslationCache {
    slots: Vec<Option<Fragment>>,
    by_vstart: HashMap<u64, FragmentId, AddrHasher>,
    /// One bit per code word, hashed on `vaddr >> 2`
    /// ([`ENTRY_FILTER_BITS`] bits): set for every installed entry
    /// V-address, cleared only by [`flush`](TranslationCache::flush). A
    /// clear bit proves there is no fragment, so the interpreter's
    /// per-instruction [`lookup`](TranslationCache::lookup) skips the
    /// hash probe; a set bit (a live entry, an invalidated one, or a
    /// collision) confirms through `by_vstart`. Empty until the first
    /// install.
    entry_filter: Vec<u64>,
    by_istart: HashMap<u64, FragmentId, AddrHasher>,
    /// Entry V-addresses installed since the interpreter last drained
    /// them ([`drain_installed`](TranslationCache::drain_installed)).
    installed: Vec<u64>,
    /// V-target → sites awaiting a fragment at that address.
    pending: HashMap<u64, Vec<(FragmentId, u32)>, AddrHasher>,
    /// Reverse direct-link map: target fragment → the (fragment, slot)
    /// sites whose direct link names it. Consulted on invalidation so every
    /// incoming branch and dual-RAS push is un-patched back to a
    /// `call-translator` / dispatch exit. Entries are validated lazily
    /// against the live link table, so stale records are harmless.
    incoming: HashMap<FragmentId, Vec<(FragmentId, u32)>, AddrHasher>,
    /// Guest page → fragments translated from code on that page (the SMC
    /// reverse map).
    src_pages: HashMap<u64, Vec<FragmentId>, AddrHasher>,
    /// Byte range [watch_lo, watch_hi) covering every watched guest page —
    /// a store outside it cannot hit translated source code, so the hot
    /// path pays one compare instead of a hash probe. Conservative: never
    /// shrinks while fragments remain.
    watch_lo: u64,
    watch_hi: u64,
    /// Code bytes currently installed (live fragments only).
    installed_bytes: u64,
    /// Code bytes ever installed (survives eviction; the paper's static
    /// code-expansion statistic).
    cumulative_bytes: u64,
    /// Live-fragment count.
    live: usize,
    /// Clock-eviction hand (slot index).
    clock_hand: usize,
    next_iaddr: u64,
    patches_applied: u64,
    unpatches: u64,
    invalidations: u64,
    evictions: u64,
    flushes: u64,
    /// Bumped on every flush. I-addresses are never reused, so any cached
    /// reference stamped with an older epoch (an engine dual-RAS entry's
    /// direct link) is known stale without consulting the lookup maps.
    epoch: u64,
}

/// Base I-address of the code cache.
pub const CODE_CACHE_BASE: u64 = 0xF000_0000;

/// The I-address of the shared dispatch code. All `Dispatch` transfers
/// funnel through this address; its terminal indirect jump is what makes
/// the paper's `no_pred` chaining mispredict so badly (one BTB entry for
/// every indirect target in the program).
pub const DISPATCH_IADDR: u64 = 0xEFFF_0000;

/// Number of instructions executed by the shared dispatch sequence
/// (paper §3.2: "The dispatch code takes 20 instructions").
pub const DISPATCH_COST_INSTS: u32 = 20;

/// Guest-page granularity of the self-modifying-code reverse map (4 KiB,
/// matching the memory model's page size).
pub const SMC_PAGE_SHIFT: u64 = 12;

/// Size in bits of the cache's fragment-entry filter (8 KiB).
const ENTRY_FILTER_BITS: usize = 1 << 16;

/// The entry-filter word and bit of V-address `vaddr`.
#[inline]
fn filter_bit(vaddr: u64) -> (usize, u64) {
    let bit = (vaddr >> 2) as usize & (ENTRY_FILTER_BITS - 1);
    (bit / 64, 1 << (bit % 64))
}

impl TranslationCache {
    /// Creates an empty cache.
    pub fn new() -> TranslationCache {
        TranslationCache {
            next_iaddr: CODE_CACHE_BASE,
            ..TranslationCache::default()
        }
    }

    /// All live (installed, not invalidated) fragments.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.slots.iter().flatten()
    }

    /// Number of live fragments.
    pub fn live_fragments(&self) -> usize {
        self.live
    }

    /// The fragment translated from V-address `vaddr`, if any.
    #[inline]
    pub fn lookup(&self, vaddr: u64) -> Option<FragmentId> {
        let (word, bit) = filter_bit(vaddr);
        match self.entry_filter.get(word) {
            Some(w) if w & bit != 0 => self.by_vstart.get(&vaddr).copied(),
            _ => None,
        }
    }

    /// The entry V-addresses installed since the last call, oldest
    /// first: the install hook through which the interpreter's lowered
    /// tier learns where its runs must stop
    /// ([`LoweredCode`](crate::profile::LoweredCode)).
    pub(crate) fn drain_installed(&mut self) -> std::vec::Drain<'_, u64> {
        self.installed.drain(..)
    }

    /// The fragment whose I-ISA entry point is `iaddr`.
    pub fn lookup_iaddr(&self, iaddr: u64) -> Option<FragmentId> {
        self.by_istart.get(&iaddr).copied()
    }

    /// Immutable access to a fragment.
    ///
    /// # Panics
    ///
    /// Panics if the fragment has been invalidated; use [`try_fragment`]
    /// when the id may be stale.
    ///
    /// [`try_fragment`]: TranslationCache::try_fragment
    pub fn fragment(&self, id: FragmentId) -> &Fragment {
        self.slots[id.0 as usize]
            .as_ref()
            .expect("fragment was invalidated")
    }

    /// Immutable access to a fragment, `None` if it was invalidated.
    pub fn try_fragment(&self, id: FragmentId) -> Option<&Fragment> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Mutable access to a fragment (the VM engine updates entry counts).
    ///
    /// # Panics
    ///
    /// Panics if the fragment has been invalidated.
    pub(crate) fn fragment_mut(&mut self, id: FragmentId) -> &mut Fragment {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("fragment was invalidated")
    }

    fn try_fragment_mut(&mut self, id: FragmentId) -> Option<&mut Fragment> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Edits an installed fragment in place — fault injection and seeded
    /// miscompiles rewrite its instructions, links or counters — then
    /// re-derives everything the engine executes from the edited code, so
    /// the lowered form stays in lockstep. `None` if the fragment was
    /// invalidated.
    pub fn edit_fragment<R>(
        &mut self,
        id: FragmentId,
        edit: impl FnOnce(&mut Fragment) -> R,
    ) -> Option<R> {
        let f = self.try_fragment_mut(id)?;
        let r = edit(f);
        f.relower();
        Some(r)
    }

    /// Builds a fragment's trace templates if this is its first traced
    /// entry.
    pub(crate) fn build_templates(&mut self, id: FragmentId) {
        let f = self.fragment_mut(id);
        if f.templates.is_empty() {
            f.templates = f.trace_templates();
        }
    }

    /// Total patches applied so far (chaining statistic).
    pub fn patches_applied(&self) -> u64 {
        self.patches_applied
    }

    /// Sites un-patched back to `call-translator` / dispatch exits by
    /// invalidation.
    pub fn unpatches(&self) -> u64 {
        self.unpatches
    }

    /// Fragments removed by precise invalidation (eviction + SMC).
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Fragments removed by capacity eviction specifically.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Times the cache has been flushed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Code bytes currently installed (live fragments only).
    pub fn installed_bytes(&self) -> u64 {
        self.installed_bytes
    }

    /// The current flush epoch. A direct fragment link captured together
    /// with this value stays valid exactly as long as the epoch is
    /// unchanged (fragments are only ever removed by [`flush`], which bumps
    /// it).
    ///
    /// [`flush`]: TranslationCache::flush
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Flushes the translation cache (the Dynamo-style response to a
    /// program phase change — paper §4.1 notes the cost of *not*
    /// occasionally flushing). All fragments, lookup entries and pending
    /// patches are dropped; I-addresses are never reused, so stale
    /// dual-RAS entries simply miss the `lookup_iaddr` map and fall back
    /// to dispatch.
    pub fn flush(&mut self) {
        self.slots.clear();
        self.by_vstart.clear();
        self.entry_filter.fill(0);
        self.by_istart.clear();
        self.pending.clear();
        self.incoming.clear();
        self.src_pages.clear();
        self.watch_lo = 0;
        self.watch_hi = 0;
        self.installed_bytes = 0;
        self.live = 0;
        self.clock_hand = 0;
        self.flushes += 1;
        self.epoch += 1;
    }

    /// Bumps the flush epoch without dropping any fragment. Every engine
    /// dual-RAS direct link stamped with the old epoch turns stale and
    /// falls back to dispatch — a correctness-preserving perturbation used
    /// by the fault-injection harness.
    pub fn force_epoch_bump(&mut self) {
        self.epoch += 1;
    }

    /// Total static code bytes ever installed (cumulative across
    /// evictions, so the paper's code-expansion statistic is not skewed by
    /// cache pressure).
    pub fn total_code_bytes(&self) -> u64 {
        self.cumulative_bytes
    }

    /// Installs a translated fragment: assigns its I-addresses, registers
    /// it in the lookup maps, resolves its own exits against already
    /// installed fragments (including itself), and patches earlier
    /// fragments whose exits target it.
    ///
    /// # Panics
    ///
    /// Panics if a fragment for the same V-start is already installed
    /// (re-translation is not supported; the paper's system likewise keeps
    /// the first fragment formed for an address).
    pub fn install(
        &mut self,
        vstart: u64,
        form: IsaForm,
        insts: Vec<IInst>,
        meta: Vec<IMeta>,
        src_inst_count: u32,
        recovery: HashMap<u32, Vec<RecoveryEntry>>,
    ) -> FragmentId {
        assert_eq!(insts.len(), meta.len(), "metadata must parallel code");
        assert!(
            !self.by_vstart.contains_key(&vstart),
            "fragment for {vstart:#x} already installed"
        );
        let id = FragmentId(self.slots.len() as u32);
        let istart = self.next_iaddr;
        // One walk derives everything the engine and the maps need: the
        // I-addresses, the ops (every link unresolved until
        // `resolve_new_fragment`), the retirement table, the exit
        // V-targets and the source pages.
        let n = insts.len();
        let mut iaddrs = Vec::with_capacity(n);
        let mut ops = Vec::with_capacity(n);
        let mut exit_varms = Vec::with_capacity(n);
        let mut retired = Vec::with_capacity(n + 1);
        let mut row = Retired::default();
        retired.push(row);
        let mut src_pages: Vec<u64> = Vec::new();
        let mut addr = istart;
        for (inst, m) in insts.iter().zip(&meta) {
            iaddrs.push(addr);
            addr += inst.size_bytes(form) as u64;
            ops.push(lower(inst, None, addr));
            row.add(inst, m);
            retired.push(row);
            // Captured before `resolve_new_fragment` patches any of this
            // fragment's own exits into direct branches.
            exit_varms.push(match *inst {
                IInst::PushDualRas { vret, .. } => Some(vret),
                _ => inst.patch_vtarget(),
            });
            // Guest pages holding the source superblock, for the SMC map.
            let page = m.vaddr >> SMC_PAGE_SHIFT;
            if src_pages.last() != Some(&page) {
                src_pages.push(page);
            }
        }
        src_pages.sort_unstable();
        src_pages.dedup();
        let bytes = addr - istart;
        // The straightened form lays its fragments out 16 bytes apart;
        // the accumulator forms align each to 8 bytes.
        self.next_iaddr = match form {
            IsaForm::Straightened => addr + 16,
            IsaForm::Basic | IsaForm::Modified => (addr + 7) & !7,
        };

        for &page in &src_pages {
            self.src_pages.entry(page).or_default().push(id);
            let lo = page << SMC_PAGE_SHIFT;
            let hi = (page + 1) << SMC_PAGE_SHIFT;
            if self.watch_lo == self.watch_hi {
                self.watch_lo = lo;
                self.watch_hi = hi;
            } else {
                self.watch_lo = self.watch_lo.min(lo);
                self.watch_hi = self.watch_hi.max(hi);
            }
        }
        self.slots.push(Some(Fragment {
            id,
            vstart,
            istart,
            insts,
            meta,
            iaddrs,
            form,
            src_inst_count,
            recovery,
            links: vec![None; n],
            ops,
            retired,
            templates: Vec::new(),
            entries: 0,
            referenced: true,
            is_region: false,
            src_pages,
            exit_varms,
        }));
        self.installed_bytes += bytes;
        self.cumulative_bytes += bytes;
        self.live += 1;
        self.by_vstart.insert(vstart, id);
        if self.entry_filter.is_empty() {
            self.entry_filter = vec![0; ENTRY_FILTER_BITS / 64];
        }
        let (word, bit) = filter_bit(vstart);
        self.entry_filter[word] |= bit;
        self.installed.push(vstart);
        self.by_istart.insert(istart, id);

        // Resolve this fragment's exits against installed fragments.
        self.resolve_new_fragment(id);
        // Patch earlier call-translator sites that wanted this V-address.
        if let Some(sites) = self.pending.remove(&vstart) {
            for (fid, idx) in sites {
                self.patch_site(fid, idx, istart);
            }
        }
        id
    }

    /// Marks an installed fragment as a merged region (see
    /// [`Fragment::is_region`]). Separate from [`install`] so the region
    /// re-formation tier rides the unchanged install path.
    ///
    /// [`install`]: TranslationCache::install
    pub fn mark_region(&mut self, id: FragmentId) {
        self.fragment_mut(id).is_region = true;
    }

    fn resolve_new_fragment(&mut self, id: FragmentId) {
        let n = self.fragment(id).insts.len();
        for idx in 0..n as u32 {
            let inst = self.fragment(id).insts[idx as usize];
            let vtarget = match inst {
                IInst::CallTranslatorIfCond { vtarget, .. } => Some(vtarget),
                IInst::CallTranslator { vtarget } => Some(vtarget),
                _ => None,
            };
            if let Some(vt) = vtarget {
                match self.by_vstart.get(&vt).copied() {
                    Some(target) => {
                        let istart = self.fragment(target).istart;
                        self.patch_site(id, idx, istart);
                    }
                    None => self.pending.entry(vt).or_default().push((id, idx)),
                }
            }
            // Dual-RAS pushes: resolve the I-side return address when the
            // return-target fragment exists; otherwise leave it pointing at
            // dispatch (correct, just slower) and register for patching.
            if let IInst::PushDualRas { vret, iret } = inst {
                if iret == ITarget::Addr(DISPATCH_IADDR) {
                    match self.by_vstart.get(&vret).copied() {
                        Some(target) => {
                            let istart = self.fragment(target).istart;
                            self.fragment_mut(id).insts[idx as usize] = IInst::PushDualRas {
                                vret,
                                iret: ITarget::Addr(istart),
                            };
                            self.refresh_site(id, idx);
                        }
                        None => self.pending.entry(vret).or_default().push((id, idx)),
                    }
                }
            }
        }
    }

    /// Rewrites a `call-translator` site into a direct branch to `istart`
    /// (the paper's "patch"), or resolves a pending dual-RAS push. Sites in
    /// fragments that have since been invalidated, and sites that are no
    /// longer in patchable form (the invalidation un-patch re-registered a
    /// stale pending record), are skipped.
    fn patch_site(&mut self, fid: FragmentId, idx: u32, istart: u64) {
        let Some(f) = self.try_fragment_mut(fid) else {
            return;
        };
        let inst = &mut f.insts[idx as usize];
        *inst = match *inst {
            IInst::CallTranslatorIfCond { cond, acc, src, .. } => IInst::CondBranch {
                cond,
                acc,
                src,
                target: ITarget::Addr(istart),
            },
            IInst::CallTranslator { .. } => IInst::Branch {
                target: ITarget::Addr(istart),
            },
            IInst::PushDualRas { vret, iret } if iret == ITarget::Addr(DISPATCH_IADDR) => {
                IInst::PushDualRas {
                    vret,
                    iret: ITarget::Addr(istart),
                }
            }
            _ => return,
        };
        self.patches_applied += 1;
        self.refresh_site(fid, idx);
    }

    /// Recomputes the direct link, the lowered op and (once built) the
    /// trace template of one instruction from its (just rewritten) form,
    /// keeping all three in lockstep with patching, and records the link
    /// in the reverse incoming-link map.
    fn refresh_site(&mut self, fid: FragmentId, idx: u32) {
        let Some(f) = self.try_fragment(fid) else {
            return;
        };
        let k = idx as usize;
        let link = self.link_of(&f.insts[k]);
        if let Some(target) = link {
            self.incoming.entry(target).or_default().push((fid, idx));
        }
        let f = self.fragment_mut(fid);
        f.links[k] = link;
        f.ops[k] = f.lowered(k);
        if !f.templates.is_empty() {
            f.templates[k] = f.template(k);
        }
    }

    /// Precisely invalidates one fragment: empties its slot, removes it
    /// from every lookup map, and un-patches each incoming direct link and
    /// resolved dual-RAS push back to its pre-chaining form (the exits
    /// re-register as pending, so a re-translation re-chains them).
    /// Returns the fragment's entry V-address, or `None` if the id was
    /// already dead.
    ///
    /// The caller owns the engine-side cleanup
    /// ([`Engine::unlink_fragment`](crate::Engine::unlink_fragment)) — the
    /// cache cannot reach the dual RAS.
    pub fn invalidate(&mut self, id: FragmentId) -> Option<u64> {
        let frag = self.slots.get_mut(id.0 as usize)?.take()?;
        self.live -= 1;
        self.installed_bytes -= frag.size_bytes();
        self.by_vstart.remove(&frag.vstart);
        self.by_istart.remove(&frag.istart);
        for page in &frag.src_pages {
            if let Some(ids) = self.src_pages.get_mut(page) {
                ids.retain(|&f| f != id);
                if ids.is_empty() {
                    self.src_pages.remove(page);
                }
            }
        }
        if self.src_pages.is_empty() {
            self.watch_lo = 0;
            self.watch_hi = 0;
        }
        // Drop pending records registered by the dead fragment's own exits.
        for sites in self.pending.values_mut() {
            sites.retain(|&(fid, _)| fid != id);
        }
        self.pending.retain(|_, sites| !sites.is_empty());
        if let Some(sites) = self.incoming.remove(&id) {
            for (fid, idx) in sites {
                if fid != id {
                    self.unpatch_site(fid, idx, id, frag.vstart);
                }
            }
        }
        self.invalidations += 1;
        Some(frag.vstart)
    }

    /// Reverts one direct-linked site back to its slow-path form after its
    /// target `dead` was invalidated: direct branches become
    /// `call-translator` exits (re-registered as pending on the dead
    /// fragment's V-address), resolved dual-RAS pushes fall back to the
    /// dispatcher. Stale incoming records — the site was itself re-patched
    /// or invalidated since — are detected via the lockstep link table and
    /// skipped.
    fn unpatch_site(&mut self, fid: FragmentId, idx: u32, dead: FragmentId, dead_vstart: u64) {
        let k = idx as usize;
        let Some(f) = self.try_fragment_mut(fid) else {
            return;
        };
        if f.links.get(k).copied().flatten() != Some(dead) {
            return;
        }
        let pending_key;
        f.insts[k] = match f.insts[k] {
            IInst::CondBranch { cond, acc, src, .. } => {
                pending_key = dead_vstart;
                IInst::CallTranslatorIfCond {
                    cond,
                    acc,
                    src,
                    vtarget: dead_vstart,
                }
            }
            IInst::Branch { .. } => {
                pending_key = dead_vstart;
                IInst::CallTranslator {
                    vtarget: dead_vstart,
                }
            }
            IInst::PushDualRas { vret, .. } => {
                pending_key = vret;
                IInst::PushDualRas {
                    vret,
                    iret: ITarget::Addr(DISPATCH_IADDR),
                }
            }
            _ => return,
        };
        self.unpatches += 1;
        self.refresh_site(fid, idx);
        self.pending
            .entry(pending_key)
            .or_default()
            .push((fid, idx));
    }

    /// The fragment a resolved control-transfer target lands in, if the
    /// target I-address is a fragment entry point. `DISPATCH_IADDR` and
    /// unresolved targets yield `None`.
    fn link_of(&self, inst: &IInst) -> Option<FragmentId> {
        let addr = match *inst {
            IInst::CondBranch {
                target: ITarget::Addr(a),
                ..
            } => a,
            IInst::Branch {
                target: ITarget::Addr(a),
            } => a,
            IInst::PushDualRas {
                iret: ITarget::Addr(a),
                ..
            } => a,
            _ => return None,
        };
        if addr == DISPATCH_IADDR {
            return None;
        }
        self.by_istart.get(&addr).copied()
    }

    /// Evicts cold fragments until installed code fits in `budget` bytes,
    /// using the clock (second-chance) algorithm over the referenced bits
    /// the engine sets on fragment entry. `protect` — normally the fragment
    /// just installed — is never evicted, so a single fragment larger than
    /// the budget degrades to a one-fragment cache rather than a livelock.
    ///
    /// Returns the `(id, vstart)` of every evicted fragment; the caller
    /// must unlink each id from the engine's dual RAS and reset its
    /// profile counter so the address can re-heat.
    pub fn enforce_budget(&mut self, budget: u64, protect: FragmentId) -> Vec<(FragmentId, u64)> {
        let mut evicted = Vec::new();
        let n = self.slots.len();
        if n == 0 {
            return evicted;
        }
        // Two full sweeps per eviction bound the scan: the first clears
        // referenced bits, the second must find a victim.
        let mut scanned = 0usize;
        while self.installed_bytes > budget && self.live > 1 && scanned <= 2 * n {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % n;
            scanned += 1;
            let Some(f) = self.slots[idx].as_mut() else {
                continue;
            };
            if f.id == protect {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let id = f.id;
            if let Some(vstart) = self.invalidate(id) {
                evicted.push((id, vstart));
                self.evictions += 1;
                scanned = 0;
            }
        }
        evicted
    }

    /// Whether a guest store of `len` bytes at `addr` touches a page
    /// holding translated source code. One range compare on the miss path;
    /// only stores inside the watched range pay the page-map probe.
    #[inline]
    pub fn smc_hit(&self, addr: u64, len: u64) -> bool {
        if addr >= self.watch_hi || addr.saturating_add(len) <= self.watch_lo {
            return false;
        }
        let first = addr >> SMC_PAGE_SHIFT;
        let last = addr.saturating_add(len.saturating_sub(1)) >> SMC_PAGE_SHIFT;
        (first..=last).any(|p| self.src_pages.contains_key(&p))
    }

    /// Every fragment whose source code shares a page with the written
    /// range — the victims of one SMC store.
    pub fn fragments_on_write(&self, addr: u64, len: u64) -> Vec<FragmentId> {
        let first = addr >> SMC_PAGE_SHIFT;
        let last = addr.saturating_add(len.saturating_sub(1)) >> SMC_PAGE_SHIFT;
        let mut out = Vec::new();
        for p in first..=last {
            if let Some(ids) = self.src_pages.get(&p) {
                for &id in ids {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }
}

/// Builds the static part of an instruction's retire record: operand
/// names, accumulator usage, class, and every field whose value does not
/// depend on runtime state. The engine copies this template and patches
/// only the dynamic fields (`taken`, `mem_addr`, `v_target`, taken-branch
/// `next_pc`) at retire time.
fn build_template(inst: &IInst, pc: u64, next_pc: u64, meta: &IMeta, form: IsaForm) -> DynInst {
    let mut d = DynInst::alu(pc, inst.size_bytes(form) as u8);
    d.is_chain = meta.is_chain;
    let reads = inst.gpr_reads();
    d.srcs = [
        reads[0].map(|r| r.number()),
        reads[1].map(|r| r.number()),
        None,
    ];
    d.dst = inst.gpr_write().map(|r| r.number());
    let uses_acc = inst.reads_acc() || inst.writes_acc();
    d.acc = if uses_acc {
        inst.acc().map(|a| a.number())
    } else {
        None
    };
    d.acc_read = inst.reads_acc();
    d.acc_write = inst.writes_acc();
    d.next_pc = next_pc;
    d.vcount = meta.vcount;
    match *inst {
        IInst::Op { op, .. } if op.is_multiply() => d.class = InstClass::IntMul,
        IInst::Load { .. } => d.class = InstClass::Load,
        IInst::Store { .. } => d.class = InstClass::Store,
        IInst::CondBranch { .. } | IInst::CallTranslatorIfCond { .. } => {
            d.class = InstClass::CondBranch;
        }
        IInst::Branch { target } => {
            d.class = InstClass::Branch;
            d.taken = true;
            if let ITarget::Addr(a) = target {
                d.next_pc = a;
            }
        }
        IInst::IndirectJump { .. } => d.class = InstClass::Return,
        IInst::PushDualRas { vret, iret } => {
            d.class = InstClass::DualRasPush;
            if let ITarget::Addr(i) = iret {
                d.ras_pair = Some((vret, i));
            }
        }
        IInst::CallTranslator { .. } | IInst::Dispatch { .. } => {
            d.class = InstClass::Branch;
            d.taken = true;
            d.next_pc = DISPATCH_IADDR;
        }
        _ => {}
    }
    if form == IsaForm::Straightened {
        straightened_names(&mut d, inst);
    }
    d
}

/// Scratch value names (outside the architected 0..32 space) of the
/// straightened form's software-prediction sequence: the embedded target
/// and the compare result.
const SCRATCH_EMBED: u8 = 100;
const SCRATCH_CMP: u8 = 101;

/// Renames a template for the straightened form, which has no
/// accumulators: a carried Alpha instruction takes its native class and
/// operands, and the software-prediction sequence's accumulator becomes
/// the scratch values it holds.
fn straightened_names(d: &mut DynInst, inst: &IInst) {
    d.acc = None;
    d.acc_read = false;
    d.acc_write = false;
    match *inst {
        IInst::Alpha(a) => crate::vm::alpha_view(d, a),
        IInst::LoadEmbeddedTarget { .. } => d.dst = Some(SCRATCH_EMBED),
        IInst::Op { .. } => {
            d.srcs = [Some(SCRATCH_EMBED), d.srcs[0], None];
            d.dst = Some(SCRATCH_CMP);
        }
        IInst::CondBranch { src: ASrc::Acc, .. }
        | IInst::CallTranslatorIfCond { src: ASrc::Acc, .. } => d.srcs[0] = Some(SCRATCH_CMP),
        // A jump through its own link register: the captured old target.
        IInst::CopyFromGpr { .. } => d.dst = Some(SCRATCH_EMBED),
        IInst::Dispatch { src: ASrc::Acc, .. }
        | IInst::IndirectJump {
            addr: ASrc::Acc, ..
        } => d.srcs[0] = Some(SCRATCH_EMBED),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ildp_isa::CondKind;

    fn mk_insts(exit_vtarget: u64) -> (Vec<IInst>, Vec<IMeta>) {
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslator {
                vtarget: exit_vtarget,
            },
        ];
        let meta = vec![
            IMeta {
                vaddr: 0x1000,
                vcount: 0,
                category: None,
                is_chain: false,
            },
            IMeta::chain(0x1000),
        ];
        (insts, meta)
    }

    #[test]
    fn install_assigns_addresses_and_maps() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let id = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let f = cache.fragment(id);
        assert_eq!(f.istart, CODE_CACHE_BASE);
        assert_eq!(f.iaddrs[0], CODE_CACHE_BASE);
        assert!(f.iaddrs[1] > f.iaddrs[0]);
        assert_eq!(cache.lookup(0x1000), Some(id));
        assert_eq!(cache.lookup_iaddr(f.istart), Some(id));
    }

    #[test]
    fn later_install_patches_earlier_exit() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        assert!(matches!(
            cache.fragment(a).insts[1],
            IInst::CallTranslator { vtarget: 0x2000 }
        ));
        let (insts, meta) = mk_insts(0x3000);
        let b = cache.install(0x2000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let b_start = cache.fragment(b).istart;
        assert!(matches!(
            cache.fragment(a).insts[1],
            IInst::Branch { target: ITarget::Addr(addr) } if addr == b_start
        ));
        assert_eq!(cache.patches_applied(), 1);
    }

    #[test]
    fn self_loop_resolves_at_install() {
        let mut cache = TranslationCache::new();
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslatorIfCond {
                cond: CondKind::Ne,
                acc: Acc::new(0),
                src: ASrc::Gpr(Reg::new(1)),
                vtarget: 0x1000, // loops back to itself
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let meta = vec![
            IMeta {
                vaddr: 0x1000,
                vcount: 0,
                category: None,
                is_chain: false,
            },
            IMeta::chain(0x1000),
            IMeta::chain(0x1000),
        ];
        let id = cache.install(0x1000, IsaForm::Basic, insts, meta, 1, HashMap::new());
        let istart = cache.fragment(id).istart;
        assert!(matches!(
            cache.fragment(id).insts[1],
            IInst::CondBranch { target: ITarget::Addr(addr), .. } if addr == istart
        ));
    }

    #[test]
    fn pending_dual_ras_push_resolves() {
        let mut cache = TranslationCache::new();
        let insts = vec![IInst::PushDualRas {
            vret: 0x5000,
            iret: ITarget::Addr(DISPATCH_IADDR),
        }];
        let meta = vec![IMeta::chain(0x1000)];
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        // Unresolved: points at dispatch.
        assert!(matches!(
            cache.fragment(a).insts[0],
            IInst::PushDualRas {
                iret: ITarget::Addr(DISPATCH_IADDR),
                ..
            }
        ));
        let (insts, meta) = mk_insts(0x9000);
        let b = cache.install(0x5000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let b_start = cache.fragment(b).istart;
        assert!(matches!(
            cache.fragment(a).insts[0],
            IInst::PushDualRas { iret: ITarget::Addr(addr), .. } if addr == b_start
        ));
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn duplicate_install_rejected() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        cache.install(
            0x1000,
            IsaForm::Modified,
            insts.clone(),
            meta.clone(),
            1,
            HashMap::new(),
        );
        cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
    }

    #[test]
    fn pei_table_lists_peis() {
        let mut cache = TranslationCache::new();
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::Load {
                width: ildp_isa::MemWidth::U64,
                acc: Acc::new(0),
                addr: ASrc::Gpr(Reg::new(2)),
                disp: 0,
                dst: None,
            },
            IInst::Halt,
        ];
        let meta = vec![
            IMeta {
                vaddr: 0x1000,
                vcount: 0,
                category: None,
                is_chain: false,
            },
            IMeta {
                vaddr: 0x1004,
                vcount: 1,
                category: None,
                is_chain: false,
            },
            IMeta {
                vaddr: 0x1008,
                vcount: 1,
                category: None,
                is_chain: false,
            },
        ];
        let id = cache.install(0x1000, IsaForm::Basic, insts, meta, 2, HashMap::new());
        assert_eq!(cache.fragment(id).pei_table(), vec![(1, 0x1004)]);
    }

    #[test]
    fn invalidate_unpatches_incoming_links() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let (insts, meta) = mk_insts(0x3000);
        let b = cache.install(0x2000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        // A's exit is now a direct branch into B.
        assert!(matches!(cache.fragment(a).insts[1], IInst::Branch { .. }));
        assert_eq!(cache.invalidate(b), Some(0x2000));
        // The site reverts to a call-translator for B's V-start, with the
        // link severed and the pending record restored.
        assert!(matches!(
            cache.fragment(a).insts[1],
            IInst::CallTranslator { vtarget: 0x2000 }
        ));
        assert_eq!(cache.fragment(a).links[1], None);
        assert_eq!(cache.lookup(0x2000), None);
        assert!(cache.try_fragment(b).is_none());
        assert_eq!(cache.unpatches(), 1);
        assert_eq!(cache.invalidations(), 1);
        // Re-installing B's region re-patches A via the restored pending
        // record.
        let (insts, meta) = mk_insts(0x3000);
        let b2 = cache.install(0x2000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let b2_start = cache.fragment(b2).istart;
        assert!(matches!(
            cache.fragment(a).insts[1],
            IInst::Branch { target: ITarget::Addr(addr) } if addr == b2_start
        ));
    }

    #[test]
    fn invalidate_is_idempotent_and_tracks_bytes() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let bytes = cache.installed_bytes();
        assert!(bytes > 0);
        let total = cache.total_code_bytes();
        assert_eq!(cache.invalidate(a), Some(0x1000));
        assert_eq!(cache.installed_bytes(), 0);
        // Cumulative static-code accounting is unaffected by eviction.
        assert_eq!(cache.total_code_bytes(), total);
        assert_eq!(cache.invalidate(a), None);
        assert_eq!(cache.fragments().count(), 0);
    }

    #[test]
    fn enforce_budget_evicts_cold_first() {
        let mut cache = TranslationCache::new();
        let mut ids = Vec::new();
        for k in 0..4u64 {
            let (insts, meta) = mk_insts(0x9000 + k * 0x100);
            ids.push(cache.install(
                0x1000 + k * 0x100,
                IsaForm::Modified,
                insts,
                meta,
                1,
                HashMap::new(),
            ));
        }
        // Mark fragment 1 as recently entered; clear the rest (install
        // sets the referenced bit, modelling a just-used fragment).
        for (k, &id) in ids.iter().enumerate() {
            cache.fragment_mut(id).referenced = k == 1;
        }
        let per_frag = cache.installed_bytes() / 4;
        // Budget for two fragments; protect the most recent install.
        let evicted = cache.enforce_budget(2 * per_frag, ids[3]);
        assert_eq!(evicted.len(), 2);
        let gone: Vec<FragmentId> = evicted.iter().map(|&(id, _)| id).collect();
        // The protected fragment and the referenced one survive.
        assert!(!gone.contains(&ids[3]));
        assert!(cache.try_fragment(ids[1]).is_some());
        assert!(cache.try_fragment(ids[3]).is_some());
        assert_eq!(cache.evictions(), 2);
        assert!(cache.installed_bytes() <= 2 * per_frag);
    }

    #[test]
    fn enforce_budget_never_evicts_last_fragment() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        // Budget of zero still keeps one live fragment (the one running).
        assert!(cache.enforce_budget(0, a).is_empty());
        assert!(cache.try_fragment(a).is_some());
    }

    #[test]
    fn smc_maps_track_source_pages() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        // Source vaddr 0x1000 lives on page 0x1.
        assert!(cache.smc_hit(0x1000, 8));
        assert!(cache.smc_hit(0x1ff8, 8));
        assert!(!cache.smc_hit(0x2000, 8), "next page is not watched");
        assert!(!cache.smc_hit(0x0ff0, 8), "prior page is not watched");
        assert!(
            cache.smc_hit(0x0fff, 2),
            "write straddling into the page hits"
        );
        assert_eq!(cache.fragments_on_write(0x1080, 4), vec![a]);
        assert!(cache.fragments_on_write(0x8000, 4).is_empty());
        cache.invalidate(a);
        // Invalidation unwatches the page: no livelock on re-execution.
        assert!(!cache.smc_hit(0x1000, 8));
        assert!(cache.fragments_on_write(0x1000, 8).is_empty());
    }

    #[test]
    fn force_epoch_bump_keeps_fragments() {
        let mut cache = TranslationCache::new();
        let (insts, meta) = mk_insts(0x2000);
        cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let e = cache.epoch();
        cache.force_epoch_bump();
        assert_eq!(cache.epoch(), e + 1);
        assert_eq!(cache.fragments().count(), 1);
    }

    /// Every live fragment's op stream, retirement table and (once built)
    /// trace templates equal a fresh derivation from its current code.
    fn assert_lockstep(cache: &TranslationCache) {
        for f in cache.fragments() {
            for k in 0..f.insts.len() {
                let fresh = lower(&f.insts[k], f.links[k], f.next_pc(k));
                assert_eq!(f.ops[k], fresh, "fragment {:?} slot {k}", f.id);
            }
            assert_eq!(f.ops.len(), f.insts.len());
            assert_eq!(f.retired, Retired::table(&f.insts, &f.meta));
            if !f.templates.is_empty() {
                assert_eq!(f.templates, f.trace_templates(), "fragment {:?}", f.id);
            }
        }
    }

    #[test]
    fn lowered_ops_track_install_patch_unpatch_and_edit() {
        let mut cache = TranslationCache::new();
        // A: a conditional exit to B, a dual-RAS push returning to C, and
        // an unconditional exit to B.
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslatorIfCond {
                cond: CondKind::Ne,
                acc: Acc::new(0),
                src: ASrc::Gpr(Reg::new(1)),
                vtarget: 0x2000,
            },
            IInst::PushDualRas {
                vret: 0x3000,
                iret: ITarget::Addr(DISPATCH_IADDR),
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let meta = vec![
            IMeta {
                vaddr: 0x1000,
                vcount: 1,
                category: Some(UsageCat::Local),
                is_chain: false,
            },
            IMeta::chain(0x1000),
            IMeta::chain(0x1000),
            IMeta::chain(0x1000),
        ];
        let a = cache.install(0x1000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        cache.build_templates(a);
        assert_lockstep(&cache);
        assert_eq!(cache.fragment(a).ops[3], Op::Exit { vtarget: 0x2000 });

        // Patch: installing B and C resolves A's exits and push.
        let (insts, meta) = mk_insts(0x9000);
        let b = cache.install(0x2000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        let (insts, meta) = mk_insts(0x9000);
        let c = cache.install(0x3000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        assert_lockstep(&cache);
        assert_eq!(cache.fragment(a).ops[3], Op::Br { link: Some(b) });
        assert!(matches!(
            cache.fragment(a).ops[1],
            Op::CondBr { link: Some(l), .. } if l == b
        ));
        assert!(matches!(
            cache.fragment(a).ops[2],
            Op::PushRas { link, .. } if link == c.0
        ));

        // Invalidate B: A's branches un-patch back to exits.
        cache.invalidate(b);
        assert_lockstep(&cache);
        assert_eq!(cache.fragment(a).ops[3], Op::Exit { vtarget: 0x2000 });
        assert!(matches!(cache.fragment(a).ops[1], Op::ExitIf { .. }));

        // Re-patch: a re-translated B re-links A.
        let (insts, meta) = mk_insts(0x9000);
        let b2 = cache.install(0x2000, IsaForm::Modified, insts, meta, 1, HashMap::new());
        assert_lockstep(&cache);
        assert_eq!(cache.fragment(a).ops[3], Op::Br { link: Some(b2) });

        // An edit (fault injection's path) re-lowers the whole fragment.
        cache.edit_fragment(a, |f| {
            f.links[3] = None;
            f.insts[1] = IInst::CopyToGpr {
                acc: Acc::new(0),
                dst: Reg::new(31),
            };
        });
        assert_lockstep(&cache);
        assert_eq!(cache.fragment(a).ops[3], Op::Br { link: None });
        assert_eq!(cache.fragment(a).retired[2].copies, 1);
    }
}
