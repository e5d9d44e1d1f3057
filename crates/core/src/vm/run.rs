//! The run loop: interpretation with candidate profiling, translated
//! execution, and the safe point between them; plus the original-program
//! trace.

use super::{Vm, VmExit};
use crate::engine::{FragExit, TraceSink};
use crate::profile::{interp_block, InterpEvent};
use alpha_isa::{step, AlignPolicy, BranchOp, Control, DecodeCache, Inst, JumpKind, Program};
use ildp_uarch::{DynInst, InstClass};

impl Vm<'_> {
    /// Runs until halt, trap, or `budget` V-ISA instructions.
    ///
    /// Monomorphized over the sink (see [`TraceSink::TRACING`]): running
    /// with [`crate::NullSink`] compiles the trace machinery out of the
    /// engine's hot loop.
    pub fn run<S: TraceSink>(&mut self, budget: u64, sink: &mut S) -> VmExit {
        let exit = loop {
            // Safe point, reached at every fragment exit and interpreted
            // block end: architected state is complete here, so finished
            // background translations install now.
            self.service_background();
            if self.v_instructions() >= budget {
                break VmExit::Budget;
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
                    FragExit::Halt => break VmExit::Halted,
                    FragExit::Budget => break VmExit::Budget,
                    FragExit::Trap { vaddr, trap, state } => {
                        // The architected state at a trap is the precise
                        // state in front of the faulting instruction, as
                        // in every other mode.
                        self.cpu.set_registers(&state);
                        self.cpu.pc = vaddr;
                        break VmExit::Trapped { vaddr, trap, state };
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
                    FragExit::Fault { error } => break VmExit::Fault { error },
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
                &mut self.lowered,
                &mut self.engine,
                &mut self.candidates,
                &self.config.profile,
                &mut self.stats.interpreted,
                limit,
                &mut self.output,
                &mut self.cache,
            ) {
                InterpEvent::BlockEnd => {}
                InterpEvent::Halted => break VmExit::Halted,
                InterpEvent::Hot { vaddr } => {
                    self.translate_at(vaddr);
                }
                InterpEvent::Trapped { vaddr, trap } => {
                    break VmExit::Trapped {
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
        };
        self.stats = self.current_stats();
        exit
    }
}

/// Interprets `program` directly, emitting the **original-program** trace
/// (the paper's "original" superscalar configuration and the native-Alpha
/// bars of Figures 4, 6 and 8).
///
/// Returns the exit condition and the number of instructions traced.
pub fn trace_original<S: TraceSink>(program: &Program, budget: u64, sink: &mut S) -> (VmExit, u64) {
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
        alpha_view(&mut d, inst);
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

/// Fills in the native-Alpha view of an instruction: its class and
/// operand registers. Shared by the original-program trace and the
/// straightened form's trace templates, which carry non-control Alpha
/// instructions unchanged.
pub(crate) fn alpha_view(d: &mut DynInst, inst: Inst) {
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
            JumpKind::Ret => InstClass::Return,
            JumpKind::Jsr => InstClass::IndirectCall,
            _ => InstClass::IndirectJump,
        },
        Inst::CallPal { .. } => InstClass::IntAlu,
        // Traps at `step`; never retires into a trace.
        Inst::Unimplemented { .. } => unreachable!("unimplemented instructions trap"),
    };
    let mut srcs = [None; 3];
    for (k, r) in inst.sources().iter().enumerate() {
        srcs[k] = Some(r.number());
    }
    d.srcs = srcs;
    d.dst = inst.dest().map(|r| r.number());
}
