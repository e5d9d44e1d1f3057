//! Deterministic fault injection against the resilient-cache machinery,
//! and the one cell driver every chaos and triage run goes through.
//!
//! The harness corrupts an actively-running VM's translation cache in the
//! ways a hostile environment could — severed and misdirected direct
//! links, poisoned branch targets, corrupted entry shapes, cache-epoch
//! flips, and stores into translated source pages — then requires the VM
//! to *contain* every fault: the C01–C07 installed-fragment audit must
//! flag each structural corruption so it can be healed by precise
//! invalidation, and the run must still retire to the architecturally
//! identical final state a pure interpreter computes.
//!
//! A cell ([`CellRun`]) is data: form, chain policy, an optional
//! injection seed ([`XorShift`]), an optional install delay, standing
//! [`Sabotage`] rules and a budget. [`CellDriver`] runs it from the start
//! through a fixed schedule of pauses, and a VM run is a pure function of
//! its program, configuration and pauses, so running a cell again *is*
//! its replay: the `lint chaos` sweep, `lint chaos --repro`, `lint
//! replay` and divergence triage (`crate::triage`) all drive cells the
//! same way, and nothing is recorded.

use crate::triage::Sabotage;
use alpha_isa::Program;
use ildp_core::oracle::{self, EndState};
use ildp_core::{
    ChainPolicy, EngineConfig, Fragment, FragmentId, NullSink, OnViolation, ProfileConfig,
    TranslatePool, Translator, Vm, VmConfig, VmExit, VmStats,
};
use ildp_isa::{IInst, ITarget, IsaForm};
use ildp_verifier::verify_installed;
use spec_workloads::{Workload, XorShift};
use std::collections::BTreeSet;

/// `stats` with the wall-clock-derived fields zeroed: what two runs of
/// the same program and configuration must agree on bit for bit.
pub fn untimed(stats: &VmStats) -> VmStats {
    VmStats {
        verify_nanos: 0,
        translate_stall_nanos: 0,
        translate_wall_nanos: 0,
        pool_await_max_nanos: 0,
        pool_respawns: 0,
        ..stats.clone()
    }
}

/// `stats` with the wall-clock-derived fields and the pool-fault counters
/// zeroed: what a faulted pool run shares with a clean one and with a run
/// without a pool at the same install delay, since every fault falls back
/// to the same code at the same anchor.
pub fn unfaulted(stats: &VmStats) -> VmStats {
    VmStats {
        pool_timeouts: 0,
        pool_panics: 0,
        pool_shed: 0,
        sync_fallbacks: 0,
        ..untimed(stats)
    }
}

/// Tally of one chaos cell (workload × form × chain × seed).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ChaosReport {
    /// Total faults injected.
    pub injections: u64,
    /// Direct links severed (must surface as C07).
    pub link_clears: u64,
    /// Direct links misdirected to a bogus fragment id (C07).
    pub link_poisons: u64,
    /// Branch/push targets retargeted off any fragment entry (C06).
    pub target_poisons: u64,
    /// Entry `SetVpcBase` corruptions (C01).
    pub vpc_corruptions: u64,
    /// Cache-epoch flips (benign: stale dual-RAS links fall back to
    /// dispatch).
    pub epoch_flips: u64,
    /// External writes into translated source pages (SMC response).
    pub code_writes: u64,
    /// Fragments invalidated by the audit-and-heal pass.
    pub healed: u64,
    /// Parked regions dropped before their count anchor, on the pool or
    /// back from it — the translation that never arrives.
    pub staged_drops: u64,
    /// Structurally corrupted fragments the audit FAILED to flag. Any
    /// non-zero value is a detector gap.
    pub undetected: u64,
}

impl ChaosReport {
    /// Folds another cell's tally into this one.
    pub fn merge(&mut self, other: &ChaosReport) {
        self.injections += other.injections;
        self.link_clears += other.link_clears;
        self.link_poisons += other.link_poisons;
        self.target_poisons += other.target_poisons;
        self.vpc_corruptions += other.vpc_corruptions;
        self.epoch_flips += other.epoch_flips;
        self.code_writes += other.code_writes;
        self.healed += other.healed;
        self.staged_drops += other.staged_drops;
        self.undetected += other.undetected;
    }
}

/// A fragment slot carrying a live direct link, as an injection victim.
fn pick_linked_site(vm: &Vm, rng: &mut XorShift) -> Option<(FragmentId, usize)> {
    let sites: Vec<(FragmentId, usize)> = vm
        .cache()
        .fragments()
        .flat_map(|f| {
            f.links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_some())
                .map(|(k, _)| (f.id, k))
                .collect::<Vec<_>>()
        })
        .collect();
    if sites.is_empty() {
        return None;
    }
    Some(sites[(rng.next_u64() as usize) % sites.len()])
}

/// Any live fragment, as an injection victim.
fn pick_fragment(vm: &Vm, rng: &mut XorShift) -> Option<FragmentId> {
    let ids: Vec<FragmentId> = vm.cache().fragments().map(|f| f.id).collect();
    if ids.is_empty() {
        return None;
    }
    Some(ids[(rng.next_u64() as usize) % ids.len()])
}

/// Audits every live fragment with the verifier's C01–C07 installed
/// checks and heals flagged ones by precise invalidation. Returns the
/// flagged ids.
fn audit_and_heal(vm: &mut Vm, report: &mut ChaosReport) -> BTreeSet<u32> {
    let flagged: Vec<FragmentId> = {
        let cache = vm.cache();
        cache
            .fragments()
            .filter(|f| !verify_installed(cache, f).is_empty())
            .map(|f| f.id)
            .collect()
    };
    for &id in &flagged {
        if vm.invalidate_fragment(id).is_some() {
            report.healed += 1;
        }
    }
    flagged.iter().map(|id| id.0).collect()
}

/// Applies a structural corruption to fragment `id`. `edit` returns
/// `None` when the fault does not apply to what it found (say, a transfer
/// whose target is not a resolved address); then nothing is counted and
/// there is no victim. Returns the victim the C01–C07 audit must flag.
fn corrupt(
    vm: &mut Vm,
    id: FragmentId,
    (kind, injections): (&mut u64, &mut u64),
    edit: impl FnOnce(&mut Fragment) -> Option<()>,
) -> Option<FragmentId> {
    vm.cache_mut().edit_fragment(id, edit)??;
    *kind += 1;
    *injections += 1;
    Some(id)
}

/// Injects one round of faults (one to three). Each structural fault is
/// audited and healed immediately — injections must not interfere with
/// each other's detectability — and a structural victim the audit missed
/// is counted as `undetected`. `delayed` cells add a seventh fault kind:
/// dropping a parked region before its anchor.
fn inject_round(vm: &mut Vm, rng: &mut XorShift, report: &mut ChaosReport, delayed: bool) {
    let rounds = 1 + rng.next_u64() % 3;
    let kinds = if delayed { 7 } else { 6 };
    for _ in 0..rounds {
        // `None` when the kind found nothing to hit, and then no audit
        // runs; otherwise the structurally corrupted fragment, if the
        // fault landed.
        let victim = match rng.next_u64() % kinds {
            // Sever a direct link out from under its patched branch.
            0 => pick_linked_site(vm, rng).map(|(id, k)| {
                let count = (&mut report.link_clears, &mut report.injections);
                corrupt(vm, id, count, |f| {
                    f.links[k] = None;
                    Some(())
                })
            }),
            // Misdirect a link to a fragment id that never existed.
            1 => pick_linked_site(vm, rng).map(|(id, k)| {
                let count = (&mut report.link_poisons, &mut report.injections);
                corrupt(vm, id, count, |f| {
                    f.links[k] = Some(FragmentId(u32::MAX - 1));
                    Some(())
                })
            }),
            // Retarget a resolved transfer off any fragment entry.
            // Entries are 8-aligned, so entry+2 can never be one.
            2 => pick_linked_site(vm, rng).map(|(id, k)| {
                let count = (&mut report.target_poisons, &mut report.injections);
                corrupt(vm, id, count, |f| match f.insts.get_mut(k)? {
                    IInst::Branch {
                        target: ITarget::Addr(a),
                    }
                    | IInst::CondBranch {
                        target: ITarget::Addr(a),
                        ..
                    }
                    | IInst::PushDualRas {
                        iret: ITarget::Addr(a),
                        ..
                    } => {
                        *a += 2;
                        Some(())
                    }
                    _ => None,
                })
            }),
            // Corrupt the entry shape: SetVpcBase names the wrong
            // V-address.
            3 => pick_fragment(vm, rng).map(|id| {
                let count = (&mut report.vpc_corruptions, &mut report.injections);
                corrupt(vm, id, count, |f| match f.insts.first_mut() {
                    Some(IInst::SetVpcBase { vaddr }) => {
                        *vaddr = f.vstart ^ 0x40;
                        Some(())
                    }
                    _ => None,
                })
            }),
            // Flip the cache epoch: every engine dual-RAS direct link
            // turns stale and must fall back to dispatch.
            4 => {
                vm.cache_mut().force_epoch_bump();
                report.epoch_flips += 1;
                report.injections += 1;
                Some(None)
            }
            // External store into a translated source page: the SMC
            // response must invalidate precisely and keep running.
            5 => pick_fragment(vm, rng).map(|id| {
                let f = vm.cache().fragment(id);
                let page = f.src_pages[(rng.next_u64() as usize) % f.src_pages.len()];
                let addr = (page << ildp_core::SMC_PAGE_SHIFT) + (rng.next_u64() & 0xff8);
                vm.notify_code_write(addr, 8);
                report.code_writes += 1;
                report.injections += 1;
                None
            }),
            // Kill a parked region before its anchor: it must simply keep
            // interpreting (and may re-heat).
            _ => {
                let staged = vm.staged_vstarts();
                (!staged.is_empty()).then(|| {
                    let vstart = staged[(rng.next_u64() as usize) % staged.len()];
                    if vm.drop_staged(vstart) {
                        report.staged_drops += 1;
                        report.injections += 1;
                    }
                    None
                })
            }
        };
        let Some(victim) = victim else { continue };
        let flagged = audit_and_heal(vm, report);
        if let Some(v) = victim {
            if !flagged.contains(&v.0) && vm.cache().try_fragment(v).is_some() {
                report.undetected += 1;
            }
        }
    }
}

/// The VM configuration every chaos cell runs under: install-time
/// validation with rejection, and a cache budget plus fuel watchdog tight
/// enough that eviction and preemption actually bind at harness scales
/// (fragments encode to ~50–100 bytes). Translation is inline; a delayed
/// cell runs the pool route instead ([`CellDriver::new`]).
pub fn cell_config(form: IsaForm, chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        },
        validator: Some(ildp_verifier::install_validator),
        on_violation: OnViolation::Reject,
        cache_budget: Some(256),
        engine: EngineConfig {
            fuel: Some(2_000),
            ..EngineConfig::default()
        },
        async_translate: false,
        ..VmConfig::default()
    }
}

/// Retired V-instructions between the pauses of an unseeded cell, at
/// which its standing sabotage rules land.
const SABOTAGE_PACE: u64 = 500;

/// Injection rounds of a seeded cell, paced evenly over the reference
/// run.
const CHUNKS: u64 = 12;

/// Everything one cell's run depends on besides the program: it runs the
/// same way every time, so the cell *is* its reproduction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellRun {
    /// I-ISA form.
    pub form: IsaForm,
    /// Chain policy.
    pub chain: ChainPolicy,
    /// Seed of the fault-injection generator; `None` injects nothing.
    pub seed: Option<u64>,
    /// Install delay of a delayed cell: translations go to a private pool
    /// and install this many retired instructions after their submission,
    /// and the injection mix adds staged-region drops.
    pub delay: Option<u64>,
    /// Standing miscompile rules, applied at every pause.
    pub sabotage: Vec<Sabotage>,
    /// Retired-instruction budget of the whole run.
    pub budget: u64,
}

impl CellRun {
    /// A clean run of `w` (no injections, no sabotage) over twice its
    /// nominal length.
    pub fn new(w: &Workload, form: IsaForm, chain: ChainPolicy) -> CellRun {
        CellRun {
            form,
            chain,
            seed: None,
            delay: None,
            sabotage: Vec::new(),
            budget: w.budget * 2,
        }
    }

    /// The chaos cell `w × form × chain` under `seed`, delayed when
    /// `delay` is set.
    pub fn chaos(
        w: &Workload,
        form: IsaForm,
        chain: ChainPolicy,
        seed: u64,
        delay: Option<u64>,
    ) -> CellRun {
        CellRun {
            seed: Some(seed),
            delay,
            ..CellRun::new(w, form, chain)
        }
    }

    /// The budgets the run pauses at, the last being its budget. Before
    /// it, a seeded cell pauses [`CHUNKS`] times, evenly over the
    /// reference run's `retired` count so every injection round lands
    /// while the workload is still executing; an unseeded one every
    /// [`SABOTAGE_PACE`].
    fn pauses(&self, retired: u64) -> Vec<u64> {
        let mut pauses: Vec<u64> = match self.seed {
            Some(_) => (1..=CHUNKS)
                .map(|c| (retired * c / (CHUNKS + 1)).max(1))
                .collect(),
            None => (1..=self.budget / SABOTAGE_PACE)
                .map(|k| k * SABOTAGE_PACE)
                .filter(|&b| b < self.budget)
                .collect(),
        };
        pauses.push(self.budget);
        pauses
    }
}

/// The one cell driver: runs a [`CellRun`] from the start through its
/// pauses. At every pause it applies the standing sabotage rules, and at
/// every pause but the last a seeded cell injects one round of faults.
/// [`step`](CellDriver::step) advances one fragment boundary instead,
/// still servicing each scheduled pause it reaches, for lockstep triage.
pub struct CellDriver<'p> {
    vm: Vm<'p>,
    run: CellRun,
    rng: XorShift,
    pauses: Vec<u64>,
    /// Index of the next scheduled pause.
    next: usize,
    /// The fragment each sabotage rule last corrupted: a rule re-lands
    /// whenever its entry is retranslated under a new id.
    sabotaged: Vec<Option<FragmentId>>,
    report: ChaosReport,
}

impl<'p> CellDriver<'p> {
    /// A driver at the start of `run` over `program`. `retired` is the
    /// reference run's retired count, which paces a seeded cell's rounds.
    /// A delayed cell gets a private one-worker pool; installs are
    /// count-anchored, so it retires exactly what a VM without the pool
    /// at the same delay retires.
    pub fn new(program: &'p Program, run: &CellRun, retired: u64) -> CellDriver<'p> {
        let config = VmConfig {
            install_delay: run.delay,
            ..cell_config(run.form, run.chain)
        };
        let mut vm = Vm::new(config, program);
        if run.delay.is_some() {
            vm.attach_pool(TranslatePool::new(1));
        }
        let seed = run.seed.unwrap_or(0);
        CellDriver {
            vm,
            run: run.clone(),
            rng: XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            pauses: run.pauses(retired),
            next: 0,
            sabotaged: vec![None; run.sabotage.len()],
            report: ChaosReport::default(),
        }
    }

    /// The driven VM.
    pub fn vm(&self) -> &Vm<'p> {
        &self.vm
    }

    /// The injection tally so far.
    pub fn report(&self) -> ChaosReport {
        self.report
    }

    /// Runs to `target`, then services the pause: lands the sabotage
    /// rules and, when the next scheduled pause is reached, consumes it,
    /// injecting a round unless it is the last.
    fn pause_at(&mut self, target: u64) -> VmExit {
        let exit = self.vm.run(target, &mut NullSink);
        for (rule, last) in self.run.sabotage.iter().zip(&mut self.sabotaged) {
            let Some(id) = self.vm.cache().lookup(rule.vstart) else {
                continue;
            };
            if *last != Some(id) {
                *last = Some(id);
                self.vm
                    .cache_mut()
                    .edit_fragment(id, |f| rule.corrupt(&mut f.insts));
            }
        }
        let reached = self
            .pauses
            .get(self.next)
            .is_some_and(|&p| p <= self.vm.v_instructions());
        if exit == VmExit::Budget && reached {
            self.next += 1;
            if self.run.seed.is_some() && self.next < self.pauses.len() {
                let delayed = self.run.delay.is_some();
                inject_round(&mut self.vm, &mut self.rng, &mut self.report, delayed);
            }
        }
        exit
    }

    /// Runs to the next scheduled pause; `None` once the schedule is
    /// spent.
    pub fn next_pause(&mut self) -> Option<VmExit> {
        let target = *self.pauses.get(self.next)?;
        Some(self.pause_at(target))
    }

    /// Advances one fragment boundary, servicing a scheduled pause the
    /// boundary reaches. A pause already due (one the last boundary
    /// overshot) is serviced in place first, without advancing, as
    /// [`next_pause`](CellDriver::next_pause) would have.
    pub fn step(&mut self) -> VmExit {
        let v = self.vm.v_instructions();
        let target = match self.pauses.get(self.next) {
            Some(&p) if p <= v => p,
            _ => v + 1,
        };
        self.pause_at(target)
    }

    /// Runs the rest of the schedule; returns how the run ended.
    pub fn finish(&mut self) -> VmExit {
        let mut exit = VmExit::Budget;
        while exit == VmExit::Budget {
            match self.next_pause() {
                Some(e) => exit = e,
                None => break,
            }
        }
        exit
    }
}

/// What one finished cell run produced.
#[derive(Clone, PartialEq, Debug)]
pub struct CellOutcome {
    /// The injection tally.
    pub report: ChaosReport,
    /// The end state.
    pub end: EndState,
    /// The statistics with wall-clock fields zeroed ([`untimed`]).
    pub stats: VmStats,
}

/// Runs `run` over `w` from the start, and judges it against the
/// pure-interpreter reference (the oracle: same end, identical
/// architected state) and for zero audit-escaped corruptions.
pub fn run_cell(w: &Workload, run: &CellRun) -> Result<CellOutcome, String> {
    let reference =
        oracle::reference(&w.program, run.budget).map_err(|e| format!("{}: {e}", w.name))?;
    let mut driver = CellDriver::new(&w.program, run, reference.retired);
    let exit = driver.finish();
    let cell = format!(
        "{} {:?} {} seed {}",
        w.name,
        run.form,
        run.chain.label(),
        run.seed.unwrap_or(0)
    );
    let end = EndState::of(driver.vm(), &exit);
    reference.check(&end).map_err(|e| format!("{cell}: {e}"))?;
    let report = driver.report();
    if report.undetected > 0 {
        return Err(format!(
            "{cell}: {} structural corruption(s) escaped the C01–C07 audit",
            report.undetected
        ));
    }
    Ok(CellOutcome {
        report,
        end,
        stats: untimed(driver.vm().stats()),
    })
}

/// Runs one chaos cell — a capacity-bounded, fuel-limited VM over the
/// workload with faults injected at every chunk boundary, compared
/// against the pure-interpreter reference — and returns the tally, or a
/// description of the divergence. A `delay` makes it a delayed-install
/// cell.
pub fn chaos_cell(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    seed: u64,
    delay: Option<u64>,
) -> Result<ChaosReport, String> {
    run_cell(w, &CellRun::chaos(w, form, chain, seed, delay)).map(|o| o.report)
}

/// Runs a cell twice and requires the two runs to agree on everything
/// deterministic: tally, end state, engine counters and untimed
/// statistics. Returns the tally.
pub fn rerun_identical(w: &Workload, run: &CellRun) -> Result<ChaosReport, String> {
    let first = run_cell(w, run)?;
    if run_cell(w, run)? != first {
        return Err(
            "a second run of the seed differs in its tally, end state or statistics".into(),
        );
    }
    Ok(first.report)
}
