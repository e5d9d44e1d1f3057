//! Deterministic fault injection against the resilient-cache machinery.
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
//! Everything is seeded ([`XorShift`]) and wall-clock free, so a failing
//! seed replays exactly — and every cell also *records* its
//! nondeterministic envelope as a [`ReplayLog`] (the run budgets and the
//! injection schedule), so a failure replays from seed + log with no
//! generator in the loop ([`chaos_replay`]) and feeds straight into the
//! divergence-triage engine (`crate::triage`).

use ildp_core::oracle::{self, EndState};
use ildp_core::{
    ChainPolicy, EngineConfig, FragmentId, NullSink, OnViolation, ProfileConfig, ReplayEvent,
    ReplayLog, Translator, Vm, VmConfig, VmExit, VmStats,
};
use ildp_isa::{IInst, ITarget, IsaForm};
use ildp_verifier::verify_installed;
use spec_workloads::{Workload, XorShift};
use std::collections::BTreeSet;

/// `stats` with the wall-clock-derived fields zeroed: what a scheduled
/// replay must reproduce bit for bit.
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
    /// Parked (delayed-install) translations dropped before their install
    /// point — the translation that never arrives.
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
pub fn audit_and_heal(vm: &mut Vm, report: &mut ChaosReport) -> BTreeSet<u32> {
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

/// Applies one recorded event to a live VM, updating the tally. Cache
/// corruptions address their fragment by entry V-address; an event whose
/// fragment is gone (or whose slot is inapplicable) is a no-op, which
/// replays deterministically too. Returns the corrupted fragment's id
/// for structural faults that landed — the victim the C01–C07 audit must
/// flag — and `None` for benign or landed-nowhere events.
/// [`ReplayEvent::Run`] is the caller's job and is ignored here.
pub fn apply_event(vm: &mut Vm, ev: &ReplayEvent, report: &mut ChaosReport) -> Option<FragmentId> {
    match *ev {
        ReplayEvent::Run { .. } => None,
        ReplayEvent::AuditHeal => {
            audit_and_heal(vm, report);
            None
        }
        ReplayEvent::LinkClear {
            fragment_vstart,
            slot,
        } => {
            // Sever a direct link out from under its patched branch.
            let id = vm.cache().lookup(fragment_vstart)?;
            vm.cache_mut().edit_fragment(id, |f| {
                f.links.get_mut(slot as usize).map(|link| *link = None)
            })??;
            report.link_clears += 1;
            report.injections += 1;
            Some(id)
        }
        ReplayEvent::LinkPoison {
            fragment_vstart,
            slot,
        } => {
            // Misdirect a link to a fragment id that never existed.
            let id = vm.cache().lookup(fragment_vstart)?;
            vm.cache_mut().edit_fragment(id, |f| {
                let link = f.links.get_mut(slot as usize)?;
                *link = Some(FragmentId(u32::MAX - 1));
                Some(())
            })??;
            report.link_poisons += 1;
            report.injections += 1;
            Some(id)
        }
        ReplayEvent::TargetPoison {
            fragment_vstart,
            slot,
        } => {
            // Retarget a resolved transfer off any fragment entry.
            // Entries are 8-aligned, so entry+2 can never be one.
            let id = vm.cache().lookup(fragment_vstart)?;
            vm.cache_mut().edit_fragment(id, |f| {
                match f.insts.get_mut(slot as usize)? {
                    IInst::Branch { target } | IInst::CondBranch { target, .. } => {
                        if let ITarget::Addr(a) = target {
                            *target = ITarget::Addr(*a + 2);
                        } else {
                            return None;
                        }
                    }
                    IInst::PushDualRas { iret, .. } => {
                        if let ITarget::Addr(a) = iret {
                            *iret = ITarget::Addr(*a + 2);
                        } else {
                            return None;
                        }
                    }
                    _ => return None,
                }
                Some(())
            })??;
            report.target_poisons += 1;
            report.injections += 1;
            Some(id)
        }
        ReplayEvent::VpcCorrupt { fragment_vstart } => {
            // Corrupt the entry shape: SetVpcBase names the wrong
            // V-address.
            let id = vm.cache().lookup(fragment_vstart)?;
            vm.cache_mut().edit_fragment(id, |f| {
                let vstart = f.vstart;
                match f.insts.first_mut() {
                    Some(IInst::SetVpcBase { vaddr }) => {
                        *vaddr = vstart ^ 0x40;
                        Some(())
                    }
                    _ => None,
                }
            })??;
            report.vpc_corruptions += 1;
            report.injections += 1;
            Some(id)
        }
        ReplayEvent::EpochFlip => {
            // Flip the cache epoch: every engine dual-RAS direct link
            // turns stale and must fall back to dispatch.
            vm.cache_mut().force_epoch_bump();
            report.epoch_flips += 1;
            report.injections += 1;
            None
        }
        ReplayEvent::CodeWrite { addr, len } => {
            // External store into a translated source page: the SMC
            // response must invalidate precisely and keep running.
            vm.notify_code_write(addr, len);
            report.code_writes += 1;
            report.injections += 1;
            None
        }
        ReplayEvent::StagedDrop { fragment_vstart } => {
            // Kill a parked translation before its install point: the
            // region must simply keep interpreting (and may re-heat).
            if vm.drop_staged(fragment_vstart) {
                report.staged_drops += 1;
                report.injections += 1;
            }
            None
        }
        // Background install/drop decisions — and the pool-fault events
        // of a supervised run — are not injections: the VM re-derives
        // (or, under an install schedule, replays) them itself at their
        // count anchors.
        ReplayEvent::BgInstall { .. }
        | ReplayEvent::BgDrop { .. }
        | ReplayEvent::PoolTimeout { .. }
        | ReplayEvent::PoolPanicReply { .. }
        | ReplayEvent::PoolShed { .. }
        | ReplayEvent::RegionPromote { .. }
        | ReplayEvent::RegionDrop { .. } => None,
    }
}

/// Injects one round of faults (one to three), recording each applied
/// event. Each structural fault is audited and healed immediately —
/// injections must not interfere with each other's detectability — and a
/// structural victim the audit missed is counted as `undetected`.
/// `delayed` cells add a seventh fault kind: dropping a parked
/// (delayed-install) translation before it lands.
fn inject_round(
    vm: &mut Vm,
    rng: &mut XorShift,
    report: &mut ChaosReport,
    events: &mut Vec<ReplayEvent>,
    delayed: bool,
) {
    let rounds = 1 + rng.next_u64() % 3;
    let kinds = if delayed { 7 } else { 6 };
    for _ in 0..rounds {
        let vstart_of = |vm: &Vm, id: FragmentId| vm.cache().fragment(id).vstart;
        let ev = match rng.next_u64() % kinds {
            0 => pick_linked_site(vm, rng).map(|(id, k)| ReplayEvent::LinkClear {
                fragment_vstart: vstart_of(vm, id),
                slot: k as u32,
            }),
            1 => pick_linked_site(vm, rng).map(|(id, k)| ReplayEvent::LinkPoison {
                fragment_vstart: vstart_of(vm, id),
                slot: k as u32,
            }),
            2 => pick_linked_site(vm, rng).map(|(id, k)| ReplayEvent::TargetPoison {
                fragment_vstart: vstart_of(vm, id),
                slot: k as u32,
            }),
            3 => pick_fragment(vm, rng).map(|id| ReplayEvent::VpcCorrupt {
                fragment_vstart: vstart_of(vm, id),
            }),
            4 => Some(ReplayEvent::EpochFlip),
            5 => pick_fragment(vm, rng).map(|id| {
                let f = vm.cache().fragment(id);
                let page = f.src_pages[(rng.next_u64() as usize) % f.src_pages.len()];
                let addr = (page << ildp_core::SMC_PAGE_SHIFT) + (rng.next_u64() & 0xff8);
                ReplayEvent::CodeWrite { addr, len: 8 }
            }),
            _ => {
                let staged = vm.staged_vstarts();
                if staged.is_empty() {
                    None
                } else {
                    Some(ReplayEvent::StagedDrop {
                        fragment_vstart: staged[(rng.next_u64() as usize) % staged.len()],
                    })
                }
            }
        };
        let Some(ev) = ev else { continue };
        // The structurally corrupted fragment, which the audit below must
        // flag. Events that land nowhere are still recorded: they replay
        // as the same no-op.
        let victim = apply_event(vm, &ev, report);
        events.push(ev);
        events.push(ReplayEvent::AuditHeal);
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
/// (fragments encode to ~50–100 bytes). Background translation is pinned
/// off — chaos cells are seeded and wall-clock free; the
/// background-pipeline timing dimension is exercised deterministically by
/// the delayed-install cells ([`VmConfig::install_delay`]) instead.
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

/// Checks a finished cell run against the pure-interpreter reference
/// (the oracle: same end, identical architected state) and for zero
/// audit-escaped corruptions.
fn check_outcome(
    vm: &Vm<'_>,
    exit: VmExit,
    reference: &EndState,
    report: ChaosReport,
    cell: &str,
) -> Result<ChaosReport, String> {
    reference
        .check(&EndState::of(vm, &exit))
        .map_err(|e| format!("{cell}: {e}"))?;
    if report.undetected > 0 {
        return Err(format!(
            "{cell}: {} structural corruption(s) escaped the C01–C07 audit",
            report.undetected
        ));
    }
    Ok(report)
}

/// Runs one chaos cell — a capacity-bounded, fuel-limited VM over the
/// workload with faults injected at every chunk boundary, compared
/// against the pure-interpreter reference — while recording the full
/// nondeterministic envelope. A `delay` makes it a delayed-install cell:
/// translations park for that many retired instructions before
/// installing, the injection mix adds staged-translation drops, and every
/// install/drop decision is recorded as a count-anchored event. Returns
/// the tally (or a description of the divergence) *and* the [`ReplayLog`]
/// that reproduces the run exactly, pass or fail.
pub fn chaos_cell_recorded(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    seed: u64,
    delay: Option<u64>,
) -> (Result<ChaosReport, String>, ReplayLog) {
    let mut log = ReplayLog {
        seed,
        ..ReplayLog::default()
    };
    let budget = w.budget * 2;
    let reference = match oracle::reference(&w.program, budget) {
        Ok(r) => r,
        Err(e) => return (Err(format!("{}: {e}", w.name)), log),
    };
    let config = VmConfig {
        install_delay: delay,
        ..cell_config(form, chain)
    };
    let mut vm = Vm::new(config, &w.program);
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut report = ChaosReport::default();
    // Pace the injection boundaries off the reference run's retire count
    // so every round lands while the workload is still executing.
    let chunks = 12u64;
    let mut exit = VmExit::Budget;
    for c in 1..=chunks {
        let target = (reference.retired * c / (chunks + 1)).max(1);
        log.events.push(ReplayEvent::Run { budget: target });
        exit = vm.run(target, &mut NullSink);
        // Count-anchored install/drop decisions made during this run
        // chunk ride along in the log, before this boundary's injections.
        log.events.append(&mut vm.take_bg_events());
        match exit {
            VmExit::Budget => inject_round(
                &mut vm,
                &mut rng,
                &mut report,
                &mut log.events,
                delay.is_some(),
            ),
            _ => break,
        }
    }
    if exit == VmExit::Budget {
        log.events.push(ReplayEvent::Run { budget });
        exit = vm.run(budget, &mut NullSink);
        log.events.append(&mut vm.take_bg_events());
    }
    let cell = format!("{} {form:?} {} seed {seed}", w.name, chain.label());
    (check_outcome(&vm, exit, &reference, report, &cell), log)
}

/// Runs one chaos cell and returns the tally, or a description of the
/// divergence. Recording-free wrapper around [`chaos_cell_recorded`].
pub fn chaos_cell(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    seed: u64,
    delay: Option<u64>,
) -> Result<ChaosReport, String> {
    chaos_cell_recorded(w, form, chain, seed, delay).0
}

/// Re-runs a chaos cell from its recorded envelope: no generator in the
/// loop, just the logged budgets and injections in order. Produces the
/// same outcome *and the same tally* as the recorded run — including
/// `undetected`, which is recomputed by correlating each structural event
/// with the [`ReplayEvent::AuditHeal`] that follows it. Delayed-install
/// cells replay on the same deterministic `delay`, re-deriving the
/// recorded install/drop decisions at the same count anchors (the logged
/// [`ReplayEvent::BgInstall`]/[`ReplayEvent::BgDrop`] events are the
/// recorded ground truth; `StagedDrop` injections replay as events).
pub fn chaos_replay(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    log: &ReplayLog,
    delay: Option<u64>,
) -> Result<ChaosReport, String> {
    let budget = w.budget * 2;
    let reference =
        oracle::reference(&w.program, budget).map_err(|e| format!("{}: {e}", w.name))?;
    let config = VmConfig {
        install_delay: delay,
        ..cell_config(form, chain)
    };
    let mut vm = Vm::new(config, &w.program);
    let mut report = ChaosReport::default();
    let mut exit = VmExit::Budget;
    // The structural victim of the most recent injection, awaiting its
    // audit — mirrors the record-side undetected check.
    let mut pending_victim: Option<FragmentId> = None;
    for ev in &log.events {
        match *ev {
            ReplayEvent::Run { budget } => {
                exit = vm.run(budget, &mut NullSink);
                if exit != VmExit::Budget {
                    // Recorded runs stop scheduling after a non-budget
                    // exit; a faithful replay reaches it on the same Run.
                    break;
                }
            }
            ReplayEvent::AuditHeal => {
                let flagged = audit_and_heal(&mut vm, &mut report);
                if let Some(v) = pending_victim.take() {
                    if !flagged.contains(&v.0) && vm.cache().try_fragment(v).is_some() {
                        report.undetected += 1;
                    }
                }
            }
            // Recorded background decisions: the replaying VM re-derives
            // them deterministically from the same delay anchors, so they
            // are informational here — and must not clobber the victim of
            // a preceding structural injection.
            ReplayEvent::BgInstall { .. }
            | ReplayEvent::BgDrop { .. }
            | ReplayEvent::PoolTimeout { .. }
            | ReplayEvent::PoolPanicReply { .. }
            | ReplayEvent::PoolShed { .. } => {}
            _ => pending_victim = apply_event(&mut vm, ev, &mut report),
        }
    }
    let cell = format!(
        "{} {form:?} {} replay of seed {}",
        w.name,
        chain.label(),
        log.seed
    );
    check_outcome(&vm, exit, &reference, report, &cell)
}
