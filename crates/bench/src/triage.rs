//! Automatic divergence triage: from a failing recorded run to a
//! minimized, deterministic `.repro` bundle.
//!
//! Given a program, a recorded nondeterministic envelope
//! ([`ReplayLog`] — run budgets, injection schedule, and standing
//! [`Sabotage`] miscompile rules), the engine:
//!
//! 1. **monitors** — replays the envelope while taking periodic
//!    checkpoints ([`Snapshot`]) at fragment boundaries, then compares
//!    the end state against the oracle's instruction-accurate reference
//!    interpreter ([`RefInterp`]);
//! 2. **bisects** — on divergence, binary-searches the checkpoints for
//!    the last one whose architected state still matches the reference
//!    (divergence is assumed persistent: corrupted architected state does
//!    not self-correct, which holds for translator miscompiles);
//! 3. **localizes** — restores a fresh VM from that last-good checkpoint
//!    and runs boundary-by-boundary in lockstep with a reference started
//!    *from the same checkpoint* (valid precisely because the checkpoint
//!    was verified good), reporting the first divergent fragment
//!    execution and the register/memory diff at its exit boundary.
//!
//! The result is packaged as a [`ReproBundle`] — program slice, entry
//! checkpoint, trimmed envelope, and expected divergence — whose
//! [`replay`](ReproBundle::replay) re-runs the identical localization
//! procedure, so the reported divergence reproduces bit-identically from
//! the bundle alone.
//!
//! Count-anchored lockstep relies on [`Vm::v_instructions`] being a pure
//! function of the architected position: architectural NOPs are excluded
//! from the count in every execution mode (interpreted, collected, and
//! translated), so the reference can advance to exactly the VM's count
//! and compare state, no matter how much of either timeline ran
//! translated.

use crate::chaos::{apply_event, audit_and_heal, delayed_config, ChaosReport};
use alpha_isa::Program;
use ildp_core::oracle::{End, EndState, RefInterp};
use ildp_core::wire::Cursor;
use ildp_core::{
    wire, ChainPolicy, NullSink, ReplayEvent, ReplayLog, Sabotage, Snapshot, SnapshotError, Vm,
    VmConfig, VmExit,
};
use ildp_isa::{ASrc, IInst, IsaForm};
use std::collections::HashSet;
use std::fmt;

/// Magic number of the `.repro` bundle wire format (`"ILPB"`).
pub const REPRO_MAGIC: u32 = 0x4250_4C49;

/// Current `.repro` bundle format version. Version 2 sealed with the
/// word-wise [`wire::checksum`]; version 3 embeds a version-6
/// [`ReplayLog`] and records the cell's install delay.
pub const REPRO_VERSION: u32 = 3;

/// XORs `rule.imm_xor` into the first immediate operand at or after
/// `rule.slot` (wrapping) of a fragment's code — the modelled translator
/// miscompile. Structurally the fragment stays valid (C01–C07 still
/// pass); semantically it is wrong. Returns whether an immediate was
/// found.
fn sabotage_insts(insts: &mut [IInst], rule: &Sabotage) -> bool {
    let n = insts.len();
    if n == 0 {
        return false;
    }
    for k in 0..n {
        let i = (rule.slot as usize + k) % n;
        match &mut insts[i] {
            IInst::Op {
                rhs: ASrc::Imm(imm),
                ..
            }
            | IInst::AddHigh { imm, .. } => {
                *imm = (*imm as u16 ^ rule.imm_xor) as i16;
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Paces a run as a series of `Run` budget pauses `pace` retired
/// V-instructions apart, ending at `budget`. A standing sabotage rule
/// lands at the first pause after its victim fragment installs, so
/// pacing the envelope this finely makes the landing time a property of
/// the *log* (and therefore of any bundle trimmed from it) rather than
/// of whatever checkpoint interval a triage run happens to choose.
pub fn paced_run_events(budget: u64, pace: u64) -> Vec<ReplayEvent> {
    let pace = pace.max(1);
    let mut events: Vec<ReplayEvent> = (1..=budget / pace)
        .map(|k| ReplayEvent::Run { budget: k * pace })
        .collect();
    if !budget.is_multiple_of(pace) || events.is_empty() {
        events.push(ReplayEvent::Run { budget });
    }
    events
}

/// Drives a VM through a recorded envelope: applies standing sabotage
/// rules at every pause (the first pause after a matching fragment
/// installs corrupts it, tracked per cache slot so retranslations are
/// re-corrupted), and applies the logged injection events once the run
/// has reached their recorded anchor.
pub struct LogDriver<'a, 'p> {
    /// The driven VM.
    pub vm: Vm<'p>,
    log: &'a ReplayLog,
    pos: usize,
    corrupted: HashSet<u32>,
    report: ChaosReport,
}

impl<'a, 'p> LogDriver<'a, 'p> {
    /// Wraps a VM (fresh or restored) for log-driven execution. Installs
    /// are count-anchored, so a VM configured with the recorded cell's
    /// install delay lands every translation where the recording did,
    /// with or without a pool.
    pub fn new(vm: Vm<'p>, log: &'a ReplayLog) -> LogDriver<'a, 'p> {
        let mut d = LogDriver {
            vm,
            log,
            pos: 0,
            corrupted: HashSet::new(),
            report: ChaosReport::default(),
        };
        d.apply_sabotage();
        d
    }

    /// Injection tally accumulated while draining events.
    pub fn report(&self) -> ChaosReport {
        self.report
    }

    fn apply_sabotage(&mut self) {
        for rule in &self.log.sabotage {
            let Some(id) = self.vm.cache().lookup(rule.vstart) else {
                continue;
            };
            if self.corrupted.contains(&id.0) {
                continue;
            }
            let edited = self
                .vm
                .cache_mut()
                .edit_fragment(id, |f| sabotage_insts(&mut f.insts, rule));
            if edited == Some(true) {
                self.corrupted.insert(id.0);
            }
        }
    }

    /// Applies every event whose governing `Run` anchor the VM has
    /// reached. In the recorded timeline events fired at the pause ending
    /// `Run {{ budget }}`, i.e. at the first boundary with
    /// `v_insts >= budget`; replay applies them at the first *pause* past
    /// that point, which is the same boundary when the caller paces runs
    /// by the same budgets, and a deterministic refinement when stepping
    /// boundary-by-boundary.
    fn drain_events(&mut self) {
        while let Some(&ReplayEvent::Run { budget }) = self.log.events.get(self.pos) {
            if budget > self.vm.v_instructions() {
                break;
            }
            self.pos += 1;
            while let Some(ev) = self.log.events.get(self.pos) {
                match ev {
                    ReplayEvent::Run { .. } => break,
                    ReplayEvent::AuditHeal => {
                        let flagged = audit_and_heal(&mut self.vm, &mut self.report);
                        // Healed slots may be retranslated later; let the
                        // standing rules re-corrupt the new slot.
                        self.corrupted.retain(|id| !flagged.contains(id));
                    }
                    other => {
                        apply_event(&mut self.vm, other, &mut self.report);
                    }
                }
                self.pos += 1;
            }
        }
    }

    /// Runs to the first fragment boundary at or past `target`, then
    /// applies sabotage rules and any newly-anchored events.
    pub fn run_to(&mut self, target: u64) -> VmExit {
        let exit = self.vm.run(target, &mut NullSink);
        self.apply_sabotage();
        self.drain_events();
        exit
    }

    /// Advances exactly one fragment boundary.
    pub fn step(&mut self) -> VmExit {
        let v = self.vm.v_instructions();
        self.run_to(v + 1)
    }

    /// Replays the envelope's own run schedule to completion, pausing
    /// additionally every `interval` retired instructions to take a
    /// checkpoint. Returns the checkpoints (the first is the pre-run
    /// state) and the final exit.
    pub fn run_monitored(&mut self, interval: u64) -> (Vec<Snapshot>, VmExit) {
        let interval = interval.max(1);
        let mut cps = vec![self.vm.snapshot()];
        let mut next_cp = self.vm.v_instructions() + interval;
        let mut exit = VmExit::Budget;
        let budgets: Vec<u64> = self
            .log
            .events
            .iter()
            .filter_map(|ev| match ev {
                ReplayEvent::Run { budget } => Some(*budget),
                _ => None,
            })
            .collect();
        for budget in budgets {
            loop {
                let v = self.vm.v_instructions();
                if v >= budget {
                    break;
                }
                while next_cp <= v {
                    next_cp += interval;
                }
                exit = self.run_to(budget.min(next_cp));
                if exit != VmExit::Budget {
                    return (cps, exit);
                }
                if self.vm.v_instructions() >= next_cp {
                    cps.push(self.vm.snapshot());
                }
            }
        }
        (cps, exit)
    }
}

/// One architected register mismatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegDiff {
    /// Register index (0–31).
    pub index: u8,
    /// The reference interpreter's value.
    pub expected: u64,
    /// The VM's value.
    pub actual: u64,
}

/// The first observed divergence between the VM and the reference, at a
/// fragment boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Retired-instruction count of the divergent boundary.
    pub v_insts: u64,
    /// V-address the divergent fragment execution entered at (the
    /// architected pc at the last matching boundary).
    pub entry_vstart: u64,
    /// Whether a translated fragment was installed at that entry when it
    /// executed (`false` means the step was interpreted — an injected
    /// fault corrupted architected state some other way).
    pub entry_translated: bool,
    /// Reference pc at the boundary (meaningful when `pc_compared`).
    pub pc_expected: u64,
    /// VM pc at the boundary (meaningful when `pc_compared`).
    pub pc_actual: u64,
    /// Whether pc participated in the comparison (only where both sides
    /// paused mid-run; halt pc conventions differ between engines).
    pub pc_compared: bool,
    /// Mismatched registers, ascending by index.
    pub regs: Vec<RegDiff>,
    /// Reference memory digest at the boundary.
    pub mem_expected: u64,
    /// VM memory digest at the boundary.
    pub mem_actual: u64,
    /// Whether console output diverged.
    pub output_diverged: bool,
    /// Whether the VM stopped abnormally (trap/fault) at this boundary.
    pub abnormal_exit: bool,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "first divergence at v_insts {} (fragment entered at {:#x}, {})",
            self.v_insts,
            self.entry_vstart,
            if self.entry_translated {
                "translated"
            } else {
                "interpreted"
            }
        )?;
        if self.abnormal_exit {
            writeln!(f, "  vm stopped abnormally (trap or structural fault)")?;
        }
        if self.pc_compared && self.pc_expected != self.pc_actual {
            writeln!(
                f,
                "  pc: expected {:#x}, got {:#x}",
                self.pc_expected, self.pc_actual
            )?;
        }
        for d in &self.regs {
            writeln!(
                f,
                "  r{}: expected {:#x}, got {:#x}",
                d.index, d.expected, d.actual
            )?;
        }
        if self.mem_expected != self.mem_actual {
            writeln!(
                f,
                "  memory digest: expected {:#x}, got {:#x}",
                self.mem_expected, self.mem_actual
            )?;
        }
        if self.output_diverged {
            writeln!(f, "  console output diverged")?;
        }
        Ok(())
    }
}

/// The divergence report for a boundary where the VM's state `actual`
/// fails the oracle against the reference's `expected`. Program
/// counters are compared only where both sides paused mid-run (halt pc
/// conventions differ between engines).
fn divergence(
    actual: &EndState,
    expected: &EndState,
    entry_vstart: u64,
    entry_translated: bool,
) -> Divergence {
    let pc = |s: &EndState| match s.end {
        End::Paused { pc } => Some(pc),
        _ => None,
    };
    Divergence {
        v_insts: actual.retired,
        entry_vstart,
        entry_translated,
        pc_expected: pc(expected).unwrap_or(0),
        pc_actual: pc(actual).unwrap_or(0),
        pc_compared: pc(expected).is_some() && pc(actual).is_some(),
        regs: (0..32)
            .filter(|&i| actual.regs[i] != expected.regs[i])
            .map(|i| RegDiff {
                index: i as u8,
                expected: expected.regs[i],
                actual: actual.regs[i],
            })
            .collect(),
        mem_expected: expected.mem_digest,
        mem_actual: actual.mem_digest,
        output_diverged: actual.output != expected.output,
        abnormal_exit: matches!(actual.end, End::Trapped { .. } | End::Fault(_)),
    }
}

/// Restores a VM from a verified-good checkpoint and single-steps
/// fragment boundaries in lockstep with a reference started from the
/// same checkpoint, until the first boundary that fails the oracle (or
/// `max_v` retired instructions). Returns `None` if the timelines agree
/// to a common end (halt or trap).
pub fn localize(
    program: &Program,
    config: VmConfig,
    snap: &Snapshot,
    log: &ReplayLog,
    max_v: u64,
) -> Result<Option<Divergence>, String> {
    let vm = Vm::restore(config, program, snap).map_err(|e| format!("restore failed: {e}"))?;
    let mut driver = LogDriver::new(vm, log);
    let mut reference = RefInterp::from_snapshot(program, snap);
    loop {
        if driver.vm.v_instructions() >= max_v {
            return Err(format!(
                "localization exceeded {max_v} instructions without reproducing the divergence"
            ));
        }
        let entry = driver.vm.cpu().pc;
        let translated = driver.vm.cache().lookup(entry).is_some();
        let exit = driver.step();
        let actual = EndState::of(&driver.vm, &exit);
        reference.catch_up(&actual);
        let expected = reference.state();
        if expected.check(&actual).is_err() {
            return Ok(Some(divergence(&actual, &expected, entry, translated)));
        }
        if !matches!(actual.end, End::Paused { .. }) {
            return Ok(None);
        }
    }
}

/// A triage verdict: the localized first divergence plus the bundle that
/// reproduces it.
pub struct TriageResult {
    /// The first divergent fragment execution, localized from the last
    /// good checkpoint.
    pub divergence: Divergence,
    /// Self-contained reproduction artifact.
    pub bundle: ReproBundle,
}

/// Monitors a log-driven run, and on divergence from the reference
/// bisects checkpoints and localizes the first divergent fragment
/// execution. Returns `None` when the run matches the reference
/// end-to-end. `delay` is the cell's install delay (a delayed chaos cell;
/// `None` otherwise), and `workload` a provenance label stored in the
/// bundle.
pub fn triage_run(
    program: &Program,
    form: IsaForm,
    chain: ChainPolicy,
    delay: Option<u64>,
    log: &ReplayLog,
    interval: u64,
    workload: &str,
) -> Result<Option<TriageResult>, String> {
    // Phase A: monitored run with periodic checkpoints.
    let config = delayed_config(form, chain, delay);
    let vm = Vm::new(config, program);
    let mut driver = LogDriver::new(vm, log);
    let (cps, exit) = driver.run_monitored(interval);
    let actual = EndState::of(&driver.vm, &exit);
    let v_final = actual.retired;
    let mut reference = RefInterp::from_start(program);
    reference.catch_up(&actual);
    if reference.state().check(&actual).is_ok() {
        return Ok(None);
    }
    // Phase B: bisect the checkpoints for the last one whose architected
    // state matches a from-start reference. Assumes divergence persists
    // once present (miscompiled state does not self-correct), which makes
    // "checkpoint diverged" monotone over the run.
    let diverged = |snap: &Snapshot| {
        let mut r = RefInterp::from_start(program);
        r.advance_to(snap.v_insts);
        r.state().check(&EndState::of_snapshot(snap)).is_err()
    };
    // cps[0] is the pre-run state and always good; partition in (0, n).
    let (mut good, mut bad) = (0usize, cps.len());
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        if diverged(&cps[mid]) {
            bad = mid;
        } else {
            good = mid;
        }
    }
    let mut entry = cps[good].clone();
    // The wall-clock diagnostics in VmStats are not part of the
    // deterministic envelope; zero them so identical failures produce
    // byte-identical bundles.
    entry.stats.verify_nanos = 0;
    entry.stats.translate_stall_nanos = 0;
    entry.stats.translate_wall_nanos = 0;
    entry.stats.pool_await_max_nanos = 0;
    entry.stats.pool_respawns = 0;
    let entry = &entry;
    // Phase C: lockstep localization from the last good checkpoint. The
    // trimmed log keeps the standing sabotage rules and every event not
    // yet reflected in the checkpoint.
    let trimmed = log.trimmed_to(entry.v_insts);
    let max_v = v_final.max(entry.v_insts) * 2 + 10_000;
    let Some(divergence) = localize(program, config, entry, &trimmed, max_v)? else {
        return Err(
            "final state diverged but lockstep from the last good checkpoint found no \
             divergent boundary"
                .to_string(),
        );
    };
    let bundle = ReproBundle {
        form,
        chain,
        delay,
        workload: workload.to_string(),
        code_base: program.code_base(),
        entry_pc: program.entry(),
        initial_sp: program.initial_sp(),
        code: program.code().to_vec(),
        snapshot: entry.clone(),
        log: trimmed,
        expected: divergence.clone(),
    };
    Ok(Some(TriageResult { divergence, bundle }))
}

/// A self-contained reproduction artifact: the program slice (code only —
/// the entry checkpoint carries all initialized memory), the last-good
/// checkpoint, the trimmed envelope, and the divergence the consumer must
/// reproduce.
#[derive(Clone, PartialEq, Debug)]
pub struct ReproBundle {
    /// I-ISA form of the failing cell.
    pub form: IsaForm,
    /// Chain policy of the failing cell.
    pub chain: ChainPolicy,
    /// Install delay of the failing cell (a delayed chaos cell).
    pub delay: Option<u64>,
    /// Workload name, for provenance only.
    pub workload: String,
    /// V-address the code slice loads at.
    pub code_base: u64,
    /// Program entry pc.
    pub entry_pc: u64,
    /// Initial stack pointer.
    pub initial_sp: u64,
    /// The code words.
    pub code: Vec<u32>,
    /// The last-good checkpoint localization starts from.
    pub snapshot: Snapshot,
    /// Envelope trimmed to the checkpoint (sabotage rules kept).
    pub log: ReplayLog,
    /// The divergence a replay must reproduce exactly.
    pub expected: Divergence,
}

impl ReproBundle {
    /// Reconstructs the program slice. Data segments are deliberately
    /// absent ([`ildp_core::program_digest`] excludes them): the
    /// checkpoint's dirty pages carry every byte that matters.
    pub fn program(&self) -> Program {
        Program::new(self.code_base, self.code.clone())
            .with_entry(self.entry_pc)
            .with_initial_sp(self.initial_sp)
    }

    /// The cell configuration the bundle replays under.
    pub fn config(&self) -> VmConfig {
        delayed_config(self.form, self.chain, self.delay)
    }

    /// Re-runs the localization procedure the bundle was produced by and
    /// returns the divergence it finds, which must equal
    /// [`expected`](ReproBundle::expected) — the procedure is
    /// deterministic, so a mismatch means the build under test behaves
    /// differently from the one that produced the bundle.
    pub fn replay(&self) -> Result<Option<Divergence>, String> {
        let program = self.program();
        let max_v = self.expected.v_insts.max(self.snapshot.v_insts) * 2 + 10_000;
        localize(&program, self.config(), &self.snapshot, &self.log, max_v)
    }

    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u8(
            &mut p,
            match self.form {
                IsaForm::Basic => 0,
                IsaForm::Modified => 1,
                IsaForm::Straightened => 2,
            },
        );
        wire::put_u8(
            &mut p,
            match self.chain {
                ChainPolicy::NoPred => 0,
                ChainPolicy::SwPred => 1,
                ChainPolicy::SwPredDualRas => 2,
            },
        );
        wire::put_u8(&mut p, self.delay.is_some() as u8);
        wire::put_u64(&mut p, self.delay.unwrap_or(0));
        wire::put_bytes(&mut p, self.workload.as_bytes());
        wire::put_u64(&mut p, self.code_base);
        wire::put_u64(&mut p, self.entry_pc);
        wire::put_u64(&mut p, self.initial_sp);
        wire::put_u32(&mut p, self.code.len() as u32);
        for &w in &self.code {
            wire::put_u32(&mut p, w);
        }
        wire::put_bytes(&mut p, &self.snapshot.to_bytes());
        wire::put_bytes(&mut p, &self.log.to_bytes());
        put_divergence(&mut p, &self.expected);
        wire::seal(REPRO_MAGIC, REPRO_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](ReproBundle::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReproBundle, SnapshotError> {
        let (version, payload) = wire::open(REPRO_MAGIC, bytes)?;
        if version != REPRO_VERSION {
            return Err(SnapshotError::BadVersion { version });
        }
        let mut c = Cursor::new(payload);
        let form = match c.take_u8()? {
            0 => IsaForm::Basic,
            1 => IsaForm::Modified,
            2 => IsaForm::Straightened,
            v => return Err(SnapshotError::BadVersion { version: v as u32 }),
        };
        let chain = match c.take_u8()? {
            0 => ChainPolicy::NoPred,
            1 => ChainPolicy::SwPred,
            2 => ChainPolicy::SwPredDualRas,
            v => return Err(SnapshotError::BadVersion { version: v as u32 }),
        };
        let delayed = c.take_u8()? != 0;
        let delay = Some(c.take_u64()?).filter(|_| delayed);
        let workload = String::from_utf8_lossy(c.take_bytes()?).into_owned();
        let code_base = c.take_u64()?;
        let entry_pc = c.take_u64()?;
        let initial_sp = c.take_u64()?;
        let n = c.take_u32()? as usize;
        let mut code = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            code.push(c.take_u32()?);
        }
        let snapshot = Snapshot::from_bytes(c.take_bytes()?)?;
        let log = ReplayLog::from_bytes(c.take_bytes()?)?;
        let expected = take_divergence(&mut c)?;
        Ok(ReproBundle {
            form,
            chain,
            delay,
            workload,
            code_base,
            entry_pc,
            initial_sp,
            code,
            snapshot,
            log,
            expected,
        })
    }
}

fn put_divergence(p: &mut Vec<u8>, d: &Divergence) {
    wire::put_u64(p, d.v_insts);
    wire::put_u64(p, d.entry_vstart);
    wire::put_u8(p, d.entry_translated as u8);
    wire::put_u64(p, d.pc_expected);
    wire::put_u64(p, d.pc_actual);
    wire::put_u8(p, d.pc_compared as u8);
    wire::put_u32(p, d.regs.len() as u32);
    for r in &d.regs {
        wire::put_u8(p, r.index);
        wire::put_u64(p, r.expected);
        wire::put_u64(p, r.actual);
    }
    wire::put_u64(p, d.mem_expected);
    wire::put_u64(p, d.mem_actual);
    wire::put_u8(p, d.output_diverged as u8);
    wire::put_u8(p, d.abnormal_exit as u8);
}

fn take_divergence(c: &mut Cursor<'_>) -> Result<Divergence, SnapshotError> {
    let v_insts = c.take_u64()?;
    let entry_vstart = c.take_u64()?;
    let entry_translated = c.take_u8()? != 0;
    let pc_expected = c.take_u64()?;
    let pc_actual = c.take_u64()?;
    let pc_compared = c.take_u8()? != 0;
    let n = c.take_u32()? as usize;
    let mut regs = Vec::with_capacity(n.min(32));
    for _ in 0..n {
        regs.push(RegDiff {
            index: c.take_u8()?,
            expected: c.take_u64()?,
            actual: c.take_u64()?,
        });
    }
    Ok(Divergence {
        v_insts,
        entry_vstart,
        entry_translated,
        pc_expected,
        pc_actual,
        pc_compared,
        regs,
        mem_expected: c.take_u64()?,
        mem_actual: c.take_u64()?,
        output_diverged: c.take_u8()? != 0,
        abnormal_exit: c.take_u8()? != 0,
    })
}
