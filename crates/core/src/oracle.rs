//! The oracle: one definition of "identical" for every execution tier.
//!
//! The VM must be architecturally invisible (paper §2.2), precise traps
//! included, whether the guest ran interpreted, translated, as a region,
//! installed asynchronously, warm-started from a store, or through code
//! that was evicted, demoted or SMC-invalidated. Every differential in
//! the workspace judges that the same way: it captures an [`EndState`]
//! of the run under test and [`check`](EndState::check)s it against the
//! end state of a reference run.
//!
//! The reference is [`RefInterp`], an instruction-stepping interpreter
//! that starts from program entry and counts retirement exactly as
//! [`Vm::v_instructions`] does:
//!
//! * architectural NOPs never count, in any mode;
//! * an instruction that traps does not retire — the count at a trap is
//!   the V-instructions *before* the faulting one, and the trap's
//!   registers are the precise state in front of it.

use crate::error::VmError;
use crate::vm::{Vm, VmExit};
use alpha_isa::{step, AlignPolicy, Control, CpuState, DecodeCache, Memory, Program, Trap};
use std::fmt;

/// How a run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum End {
    /// The guest program halted.
    Halted,
    /// Stopped at an instruction budget, resumable at V-PC `pc`.
    Paused {
        /// The V-PC execution resumes at.
        pc: u64,
    },
    /// A precise trap was delivered.
    Trapped {
        /// Faulting V-address.
        vaddr: u64,
        /// The condition.
        trap: Trap,
        /// Architected registers in front of the faulting instruction.
        state: Box<[u64; 32]>,
    },
    /// A structural runtime fault stopped the VM (the reference never
    /// faults, so this end always fails the check).
    Fault(VmError),
}

impl End {
    /// Equal ends, ignoring a trap's register state (which the check
    /// compares register by register to name the first difference).
    fn same_kind(&self, other: &End) -> bool {
        match (self, other) {
            (
                End::Trapped { vaddr, trap, .. },
                End::Trapped {
                    vaddr: v2,
                    trap: t2,
                    ..
                },
            ) => vaddr == v2 && trap == t2,
            _ => self == other,
        }
    }
}

impl fmt::Display for End {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            End::Halted => write!(f, "halted"),
            End::Paused { pc } => write!(f, "paused at {pc:#x}"),
            End::Trapped { vaddr, trap, .. } => write!(f, "trapped at {vaddr:#x} ({trap})"),
            End::Fault(error) => write!(f, "faulted ({error})"),
        }
    }
}

/// The architected end state of a run: what every tier must reproduce.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EndState {
    /// Final GPR file.
    pub regs: [u64; 32],
    /// Order-independent digest of final memory contents.
    pub mem_digest: u64,
    /// Console output, in emission order.
    pub output: Vec<u8>,
    /// V-instructions retired, NOPs excluded.
    pub retired: u64,
    /// How the run ended.
    pub end: End,
}

impl EndState {
    /// The end state `vm` reached when `run` returned `exit`.
    pub fn of(vm: &Vm<'_>, exit: &VmExit) -> EndState {
        EndState::from_parts(
            vm.cpu(),
            vm.memory(),
            vm.output(),
            vm.v_instructions(),
            exit,
        )
    }

    fn from_parts(
        cpu: &CpuState,
        mem: &Memory,
        output: &[u8],
        retired: u64,
        exit: &VmExit,
    ) -> EndState {
        let end = match exit {
            VmExit::Halted => End::Halted,
            VmExit::Budget => End::Paused { pc: cpu.pc },
            VmExit::Trapped { vaddr, trap, state } => End::Trapped {
                vaddr: *vaddr,
                trap: *trap,
                state: state.clone(),
            },
            VmExit::Fault { error } => End::Fault(*error),
        };
        EndState {
            regs: cpu.registers(),
            mem_digest: mem.content_digest(),
            output: output.to_vec(),
            retired,
            end,
        }
    }

    /// Checks that `actual` ended exactly like this (reference) state:
    /// how it ended (V-PC and trap kind included), registers, a trap's
    /// precise registers, memory digest, console output and retired
    /// count. `Err` names the first difference.
    pub fn check(&self, actual: &EndState) -> Result<(), String> {
        if !actual.end.same_kind(&self.end) {
            return Err(format!("run {}, reference {}", actual.end, self.end));
        }
        first_reg_diff("GPR file", &actual.regs, &self.regs)?;
        if let (End::Trapped { state: a, .. }, End::Trapped { state: r, .. }) =
            (&actual.end, &self.end)
        {
            first_reg_diff("precise trap state", a, r)?;
        }
        if actual.mem_digest != self.mem_digest {
            return Err(format!(
                "memory diverged (digest {:#x}, reference {:#x})",
                actual.mem_digest, self.mem_digest
            ));
        }
        if actual.output != self.output {
            return Err(format!(
                "console output diverged ({} bytes, reference {})",
                actual.output.len(),
                self.output.len()
            ));
        }
        if actual.retired != self.retired {
            return Err(format!(
                "retired {} instructions, reference {}",
                actual.retired, self.retired
            ));
        }
        Ok(())
    }
}

fn first_reg_diff(what: &str, actual: &[u64; 32], reference: &[u64; 32]) -> Result<(), String> {
    match (0..32).find(|&r| actual[r] != reference[r]) {
        Some(r) => Err(format!(
            "{what} diverged (r{r}: {:#x}, reference {:#x})",
            actual[r], reference[r]
        )),
        None => Ok(()),
    }
}

/// Interprets `program` from entry until it halts or traps, within
/// `budget` retired instructions: the reference end state a run of the
/// whole program must reproduce.
pub fn reference(program: &Program, budget: u64) -> Result<EndState, String> {
    let mut r = RefInterp::from_start(program);
    r.advance_to(budget);
    if r.end.is_none() {
        return Err(format!("reference exhausted {budget} instructions"));
    }
    Ok(r.state())
}

/// The reference interpreter: steps instruction by instruction from
/// program entry to an exact retired count, for end-of-run and lockstep
/// comparison.
pub struct RefInterp {
    decoded: DecodeCache,
    cpu: CpuState,
    mem: Memory,
    output: Vec<u8>,
    retired: u64,
    /// `Halted` or `Trapped` once the program has ended.
    end: Option<End>,
}

impl RefInterp {
    /// A reference positioned at program entry.
    pub fn from_start(program: &Program) -> RefInterp {
        let (cpu, mem) = program.load();
        RefInterp {
            decoded: DecodeCache::new(program),
            cpu,
            mem,
            output: Vec::new(),
            retired: 0,
            end: None,
        }
    }

    /// Steps until `target` instructions have retired, or the program
    /// halts or traps first.
    pub fn advance_to(&mut self, target: u64) {
        while self.retired < target && self.end.is_none() {
            let pc = self.cpu.pc;
            let stepped = self.decoded.fetch(pc).and_then(|inst| {
                step(&mut self.cpu, &mut self.mem, inst, AlignPolicy::Enforce).map(|o| (inst, o))
            });
            let (inst, outcome) = match stepped {
                Ok(done) => done,
                Err(trap) => {
                    self.end = Some(End::Trapped {
                        vaddr: pc,
                        trap,
                        state: Box::new(self.cpu.registers()),
                    });
                    return;
                }
            };
            if !inst.is_nop() {
                self.retired += 1;
            }
            if let Some(b) = outcome.output {
                self.output.push(b);
            }
            if outcome.control == Control::Halt {
                self.end = Some(End::Halted);
            }
        }
    }

    /// Advances to where a run that ended as `actual` claims to be: its
    /// retired count and, when it trapped, one instruction further — the
    /// faulting instruction does not retire, so the reference has to try
    /// it to raise the same trap (and retires past the run's count if it
    /// does not trap).
    pub fn catch_up(&mut self, actual: &EndState) {
        let trapped = matches!(actual.end, End::Trapped { .. });
        self.advance_to(actual.retired + u64::from(trapped));
    }

    /// The reference's current state: ended, or paused at its V-PC.
    pub fn state(&self) -> EndState {
        EndState {
            regs: self.cpu.registers(),
            mem_digest: self.mem.content_digest(),
            output: self.output.clone(),
            retired: self.retired,
            end: self.end.clone().unwrap_or(End::Paused { pc: self.cpu.pc }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_isa::{Assembler, Reg};

    #[test]
    fn nops_and_faulting_instructions_do_not_retire() {
        // 200 iterations of addq/nop/subq/bne, then a trap.
        let mut asm = Assembler::new(0x1_0000);
        asm.lda_imm(Reg::A0, 200);
        let top = asm.here("top");
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.nop();
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.gentrap();
        let program = asm.finish().unwrap();
        let end = reference(&program, 10_000).unwrap();
        // lda + 200 * (addq, subq, bne); the gentrap faults and never
        // retires.
        assert_eq!(end.retired, 601);
        assert!(matches!(
            end.end,
            End::Trapped {
                vaddr: 0x1_0014,
                ..
            }
        ));
    }
}
