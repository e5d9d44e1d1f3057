//! Automatic divergence triage: from a failing cell to a minimized,
//! deterministic `.repro` bundle.
//!
//! A cell ([`CellRun`]: form, chain policy, injection seed, install
//! delay, standing [`Sabotage`] miscompile rules and budget) runs the
//! same way every time it is driven from the start by the one cell driver
//! ([`CellDriver`]). Given a program and a cell, the engine:
//!
//! 1. **monitors** — drives the cell while checking the architected state
//!    against the oracle's instruction-accurate reference interpreter
//!    ([`RefInterp`]) at checkpoints taken at the driver's own pauses,
//!    so watching the run does not change it. The last checkpoint that
//!    matches is where localization starts;
//! 2. **localizes** — re-runs the cell from the start to that checkpoint
//!    and then steps fragment boundary by fragment boundary in lockstep
//!    with a reference advanced to the same count, reporting the first
//!    divergent fragment execution and the register/memory diff at its
//!    exit boundary.
//!
//! The result is packaged as a [`ReproBundle`] — the whole program, the
//! cell, the checkpoint's retired count and the expected divergence —
//! whose [`replay`](ReproBundle::replay) re-runs the localization, so the
//! reported divergence reproduces bit-identically from the bundle alone.
//!
//! Count-anchored lockstep relies on [`Vm::v_instructions`] being a pure
//! function of the architected position: architectural NOPs are excluded
//! from the count in every execution mode (interpreted, collected, and
//! translated), so the reference can advance to exactly the VM's count
//! and compare state, no matter how much of either timeline ran
//! translated.
//!
//! [`Vm::v_instructions`]: ildp_core::Vm::v_instructions

use crate::chaos::{CellDriver, CellRun, ChaosReport};
use alpha_isa::Program;
use ildp_core::oracle::{self, End, EndState, RefInterp};
use ildp_core::wire::Cursor;
use ildp_core::{wire, ChainPolicy, SnapshotError, VmExit};
use ildp_isa::{ASrc, IInst, IsaForm};
use std::fmt;

/// Magic number of the `.repro` bundle wire format (`"ILPB"`).
pub const REPRO_MAGIC: u32 = 0x4250_4C49;

/// Current `.repro` bundle format version. Version 2 sealed with the
/// word-wise [`wire::checksum`]; version 3 embedded a replay log and an
/// entry snapshot; version 4 holds the whole program and the cell, which
/// replay re-runs from the start.
pub const REPRO_VERSION: u32 = 4;

/// A standing translator-miscompile rule: whenever a fragment with entry
/// `vstart` is (re)installed, XOR `imm_xor` into the first immediate
/// operand at or after instruction `slot` (wrapping). The cell driver
/// lands it at its first pause after each install, so the bug stays
/// active across evictions and retranslation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sabotage {
    /// Entry V-address of the fragment to corrupt.
    pub vstart: u64,
    /// Preferred instruction slot (the applier scans forward from here).
    pub slot: u32,
    /// Bits to XOR into the immediate.
    pub imm_xor: u16,
}

impl Sabotage {
    /// Applies the modelled miscompile to a fragment's code. Structurally
    /// the fragment stays valid (C01–C07 still pass); semantically it is
    /// wrong. Returns whether an immediate was found.
    pub fn corrupt(&self, insts: &mut [IInst]) -> bool {
        let n = insts.len();
        for k in 0..n {
            let i = (self.slot as usize + k) % n;
            if let IInst::Op {
                rhs: ASrc::Imm(imm),
                ..
            }
            | IInst::AddHigh { imm, .. } = &mut insts[i]
            {
                *imm = (*imm as u16 ^ self.imm_xor) as i16;
                return true;
            }
        }
        false
    }
}

/// What a monitored run of a cell found.
#[derive(Clone, PartialEq, Debug)]
pub struct Monitored {
    /// The injection tally.
    pub report: ChaosReport,
    /// The state at the end of the run, or at the first checkpoint that
    /// failed the oracle, where monitoring stops.
    pub end: EndState,
    /// Retired count of the last checkpoint that matched the reference
    /// (0, the program entry, if none did).
    pub last_good: u64,
    /// Whether the run diverged from the reference.
    pub diverged: bool,
}

/// Drives `run` from the start, checking the architected state against a
/// reference at each of the driver's pauses at least `interval` retired
/// instructions past the previous checkpoint, and at the end. `retired`
/// is the reference run's retired count (see [`CellDriver::new`]).
pub fn monitor(program: &Program, run: &CellRun, retired: u64, interval: u64) -> Monitored {
    let mut driver = CellDriver::new(program, run, retired);
    let mut reference = RefInterp::from_start(program);
    let (mut last_good, mut next_cp) = (0, interval);
    let mut exit = VmExit::Budget;
    while exit == VmExit::Budget {
        let Some(e) = driver.next_pause() else { break };
        exit = e;
        let v = driver.vm().v_instructions();
        if exit != VmExit::Budget || v < next_cp {
            continue;
        }
        next_cp = v + interval;
        let state = EndState::of(driver.vm(), &exit);
        reference.advance_to(v);
        if reference.state().check(&state).is_err() {
            return Monitored {
                report: driver.report(),
                end: state,
                last_good,
                diverged: true,
            };
        }
        last_good = v;
    }
    let end = EndState::of(driver.vm(), &exit);
    reference.catch_up(&end);
    Monitored {
        report: driver.report(),
        diverged: reference.state().check(&end).is_err(),
        end,
        last_good,
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

/// Re-runs `run` from the start to the verified-good checkpoint at
/// `checkpoint` retired instructions, then single-steps fragment
/// boundaries in lockstep with a reference advanced to the same count,
/// until the first boundary that fails the oracle. Returns `None` if the
/// timelines agree to a common end (halt or trap).
pub fn localize(
    program: &Program,
    run: &CellRun,
    retired: u64,
    checkpoint: u64,
) -> Result<Option<Divergence>, String> {
    let mut driver = CellDriver::new(program, run, retired);
    while driver.vm().v_instructions() < checkpoint {
        if driver.next_pause() != Some(VmExit::Budget) {
            return Err(format!(
                "the re-run ended before the checkpoint at v_insts {checkpoint}"
            ));
        }
    }
    let v = driver.vm().v_instructions();
    if v != checkpoint {
        return Err(format!(
            "the re-run paused at v_insts {v}, not at the checkpoint at {checkpoint}"
        ));
    }
    let mut reference = RefInterp::from_start(program);
    reference.advance_to(checkpoint);
    loop {
        if driver.vm().v_instructions() >= run.budget {
            return Err(format!(
                "localization reached the budget of {} instructions without reproducing \
                 the divergence",
                run.budget
            ));
        }
        let entry = driver.vm().cpu().pc;
        let translated = driver.vm().cache().lookup(entry).is_some();
        let exit = driver.step();
        let actual = EndState::of(driver.vm(), &exit);
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

/// Monitors a run of the cell and, on divergence from the reference,
/// localizes the first divergent fragment execution from the last good
/// checkpoint. Returns `None` when the run matches the reference
/// end-to-end. `workload` is a provenance label stored in the bundle.
pub fn triage_run(
    program: &Program,
    run: &CellRun,
    interval: u64,
    workload: &str,
) -> Result<Option<TriageResult>, String> {
    let retired = oracle::reference(program, run.budget)?.retired;
    let monitored = monitor(program, run, retired, interval.max(1));
    if !monitored.diverged {
        return Ok(None);
    }
    let checkpoint = monitored.last_good;
    let Some(divergence) = localize(program, run, retired, checkpoint)? else {
        return Err(
            "the run diverged but lockstep from the last good checkpoint found no \
             divergent boundary"
                .to_string(),
        );
    };
    // The bundle carries the program image without its symbols: what the
    // wire format holds.
    let image = program.data_segments().iter().fold(
        Program::new(program.code_base(), program.code().to_vec())
            .with_entry(program.entry())
            .with_initial_sp(program.initial_sp()),
        |p, seg| p.with_data(seg.base, seg.bytes.clone()),
    );
    let bundle = ReproBundle {
        workload: workload.to_string(),
        program: image,
        run: run.clone(),
        checkpoint,
        expected: divergence.clone(),
    };
    Ok(Some(TriageResult { divergence, bundle }))
}

/// A self-contained reproduction artifact: the whole program, the cell,
/// the last good checkpoint's retired count, and the divergence a replay
/// must reproduce. It holds no VM state: replay re-runs the cell from the
/// start.
#[derive(Clone, PartialEq, Debug)]
pub struct ReproBundle {
    /// Workload name, for provenance only.
    pub workload: String,
    /// The program: code, data segments, entry and stack pointer.
    pub program: Program,
    /// The failing cell.
    pub run: CellRun,
    /// Retired count of the last good checkpoint, where lockstep starts.
    pub checkpoint: u64,
    /// The divergence a replay must reproduce exactly.
    pub expected: Divergence,
}

impl ReproBundle {
    /// Re-runs the localization the bundle was produced by and returns
    /// the divergence it finds, which must equal
    /// [`expected`](ReproBundle::expected) — the procedure is
    /// deterministic, so a mismatch means the build under test behaves
    /// differently from the one that produced the bundle.
    pub fn replay(&self) -> Result<Option<Divergence>, String> {
        let retired = oracle::reference(&self.program, self.run.budget)?.retired;
        localize(&self.program, &self.run, retired, self.checkpoint)
    }

    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let run = &self.run;
        wire::put_u8(
            &mut p,
            match run.form {
                IsaForm::Basic => 0,
                IsaForm::Modified => 1,
                IsaForm::Straightened => 2,
            },
        );
        wire::put_u8(
            &mut p,
            match run.chain {
                ChainPolicy::NoPred => 0,
                ChainPolicy::SwPred => 1,
                ChainPolicy::SwPredDualRas => 2,
            },
        );
        wire::put_opt_u64(&mut p, run.seed);
        wire::put_opt_u64(&mut p, run.delay);
        wire::put_u64(&mut p, run.budget);
        wire::put_u32(&mut p, run.sabotage.len() as u32);
        for s in &run.sabotage {
            wire::put_u64(&mut p, s.vstart);
            wire::put_u32(&mut p, s.slot);
            wire::put_u16(&mut p, s.imm_xor);
        }
        wire::put_bytes(&mut p, self.workload.as_bytes());
        let program = &self.program;
        wire::put_u64(&mut p, program.code_base());
        wire::put_u64(&mut p, program.entry());
        wire::put_u64(&mut p, program.initial_sp());
        wire::put_u32(&mut p, program.code().len() as u32);
        for &w in program.code() {
            wire::put_u32(&mut p, w);
        }
        wire::put_u32(&mut p, program.data_segments().len() as u32);
        for seg in program.data_segments() {
            wire::put_u64(&mut p, seg.base);
            wire::put_bytes(&mut p, &seg.bytes);
        }
        wire::put_u64(&mut p, self.checkpoint);
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
        let seed = c.take_opt_u64()?;
        let delay = c.take_opt_u64()?;
        let budget = c.take_u64()?;
        let n = c.take_u32()? as usize;
        let mut sabotage = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            sabotage.push(Sabotage {
                vstart: c.take_u64()?,
                slot: c.take_u32()?,
                imm_xor: c.take_u16()?,
            });
        }
        let workload = String::from_utf8_lossy(c.take_bytes()?).into_owned();
        let code_base = c.take_u64()?;
        let entry = c.take_u64()?;
        let initial_sp = c.take_u64()?;
        let n = c.take_u32()? as usize;
        let mut code = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            code.push(c.take_u32()?);
        }
        let mut program = Program::new(code_base, code)
            .with_entry(entry)
            .with_initial_sp(initial_sp);
        for _ in 0..c.take_u32()? {
            let base = c.take_u64()?;
            program = program.with_data(base, c.take_bytes()?.to_vec());
        }
        Ok(ReproBundle {
            workload,
            program,
            run: CellRun {
                form,
                chain,
                seed,
                delay,
                sabotage,
                budget,
            },
            checkpoint: c.take_u64()?,
            expected: take_divergence(&mut c)?,
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
