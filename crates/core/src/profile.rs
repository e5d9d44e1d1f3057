//! Interpretation, profiling and MRET superblock collection (paper §3.1).
//!
//! The DBT system starts by interpreting the V-ISA program, counting
//! executions of *trace start candidates*:
//!
//! * targets of register-indirect jumps (`JMP`/`JSR`/`RET`),
//! * targets of backward conditional branches,
//! * exit targets of existing fragments.
//!
//! When a candidate's counter reaches the threshold (paper: 50), the
//! interpreted path is followed to form a superblock — the
//! Most-Recently-Executed-Tail heuristic of Dynamo. Collection ends at a
//! register-indirect jump or trap, a backward taken conditional branch, a
//! revisited address (cycle), or the maximum size (paper: 200).

use crate::fragment::{AddrHasher, TranslationCache};
use crate::superblock::{CollectedFlow, SbEnd, SbInst, Superblock};
use alpha_isa::{
    step, AlignPolicy, BranchOp, Control, CpuState, DecodeCache, Inst, Memory, Program, Trap,
};
use std::collections::{HashMap, HashSet};

/// Profiling configuration (paper §4.1: threshold 50, maximum superblock
/// size 200).
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Executions of a start candidate before a superblock is formed.
    pub threshold: u32,
    /// Maximum superblock length in V-ISA instructions.
    pub max_superblock: usize,
    /// Alignment-trap policy for interpretation.
    pub align: AlignPolicy,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            threshold: 50,
            max_superblock: 200,
            align: AlignPolicy::Enforce,
        }
    }
}

/// Counters for superblock start candidates (the paper uses an unlimited
/// number of counters; so do we).
#[derive(Clone, Debug, Default)]
pub struct Candidates {
    counters: HashMap<u64, u32, AddrHasher>,
}

impl Candidates {
    /// Creates an empty counter table.
    pub fn new() -> Candidates {
        Candidates::default()
    }

    /// Bumps the counter for `vaddr`; returns `true` when it reaches
    /// `threshold` (the address is now hot).
    pub fn bump(&mut self, vaddr: u64, threshold: u32) -> bool {
        let c = self.counters.entry(vaddr).or_insert(0);
        *c += 1;
        *c == threshold
    }

    /// Whether `vaddr` has already crossed `threshold`.
    pub fn is_hot(&self, vaddr: u64, threshold: u32) -> bool {
        self.counters.get(&vaddr).is_some_and(|c| *c >= threshold)
    }

    /// Forgets the counter for `vaddr`. [`bump`](Candidates::bump) fires
    /// exactly once, at the threshold — so after a fragment is invalidated
    /// (evicted, or killed by a self-modifying store) its start address
    /// must be reset or it could never re-heat and re-translate.
    pub fn reset(&mut self, vaddr: u64) {
        self.counters.remove(&vaddr);
    }

    /// Iterates `(address, count)` over every counter, in unspecified
    /// order (snapshot capture sorts).
    pub fn counters(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counters.iter().map(|(&a, &c)| (a, c))
    }

    /// Sets the counter for `vaddr` (snapshot restore); a count of 0
    /// clears it. [`bump`](Candidates::bump) fires only when a counter
    /// *reaches* the threshold exactly, so restore clamps counts to one
    /// below it — a counter restored at or past the threshold would never
    /// fire again.
    pub fn set(&mut self, vaddr: u64, count: u32) {
        if count == 0 {
            self.counters.remove(&vaddr);
        } else {
            self.counters.insert(vaddr, count);
        }
    }

    /// Number of distinct candidate addresses seen.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no candidates have been seen.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Why [`interp_block`] returned control to its caller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterpEvent {
    /// The block ended at an ordinary boundary: a taken control transfer,
    /// a PC with an installed fragment, or the retired-count limit. The
    /// caller services its safe point and continues.
    BlockEnd,
    /// The program halted.
    Halted,
    /// A candidate address just became hot; the VM should collect a
    /// superblock starting there (the PC is already at it).
    Hot {
        /// The hot start address.
        vaddr: u64,
    },
    /// A trap was raised (delivered precisely by the interpreter).
    Trapped {
        /// Faulting V-address.
        vaddr: u64,
        /// The condition.
        trap: Trap,
    },
    /// The executed instruction stored into a guest page holding
    /// translated source code. The store **has** completed (interpretation
    /// is always architecturally current); the VM must invalidate the
    /// affected fragments before any of them runs again.
    SmcStore {
        /// Guest address written.
        addr: u64,
        /// Width of the store in bytes.
        len: u64,
    },
}

/// Interprets one block: instructions run in a tight loop until a taken
/// control transfer, a PC with an installed fragment, a hot candidate, a
/// halt, a trap, an SMC store, or `*interpreted` reaching `limit`.
/// Candidate counters are bumped for the *next* PC when the executed
/// instruction makes it a candidate.
///
/// Everything the caller checks between instructions — safe-point
/// service, the run budget, the fragment lookup — can only change at one
/// of those exits, so the caller does that work once per block. `limit`
/// is the retired count at which the caller's next count-anchored event
/// is due; the block stops exactly there, never past it.
///
/// Fetches through the predecoded [`DecodeCache`] (one decode per static
/// instruction for the whole run, not one per step). `interpreted`
/// counts retired non-NOP instructions (for the translation-overhead
/// model and the VM's retired count). Stores into pages holding
/// translated source code are reported as [`InterpEvent::SmcStore`] so
/// the VM can invalidate before the stale fragments run again.
///
/// `#[inline]`: the VM's run loop, in another codegen unit, calls this
/// once per interpreted block.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn interp_block(
    cpu: &mut CpuState,
    mem: &mut Memory,
    decoded: &DecodeCache,
    candidates: &mut Candidates,
    config: &ProfileConfig,
    interpreted: &mut u64,
    limit: u64,
    output: &mut Vec<u8>,
    cache: &TranslationCache,
) -> InterpEvent {
    loop {
        if *interpreted >= limit {
            return InterpEvent::BlockEnd;
        }
        let pc = cpu.pc;
        let inst = match decoded.fetch(pc) {
            Ok(i) => i,
            Err(trap) => return InterpEvent::Trapped { vaddr: pc, trap },
        };
        let outcome = match step(cpu, mem, inst, config.align) {
            Ok(o) => o,
            Err(trap) => return InterpEvent::Trapped { vaddr: pc, trap },
        };
        if let Some(b) = outcome.output {
            output.push(b);
        }
        // NOPs are excluded from the retire count in *every* mode —
        // superblock collection drops them and translated code never
        // emits them — so counting them here would make
        // `Vm::v_instructions` depend on how much of the run happened to
        // execute translated. Keeping the count NOP-free in the
        // interpreter too makes it a pure function of the architected
        // position, which snapshot restore and triage lockstep rely on.
        if !inst.is_nop() {
            *interpreted += 1;
        }
        if let Some(acc) = outcome.mem {
            // Stores never transfer control on Alpha, so reporting the SMC
            // hit instead of the (Sequential) control outcome loses
            // nothing.
            if acc.is_store && cache.smc_hit(acc.addr, acc.bytes as u64) {
                return InterpEvent::SmcStore {
                    addr: acc.addr,
                    len: acc.bytes as u64,
                };
            }
        }
        match outcome.control {
            Control::Halt => return InterpEvent::Halted,
            Control::Indirect { target, .. } => {
                return if candidates.bump(target, config.threshold) {
                    InterpEvent::Hot { vaddr: target }
                } else {
                    InterpEvent::BlockEnd
                };
            }
            Control::Taken { target } => {
                // Backward conditional branches make their targets
                // candidates.
                return if matches!(inst, Inst::Branch { op, .. }
                    if !matches!(op, BranchOp::Br | BranchOp::Bsr))
                    && target <= pc
                    && candidates.bump(target, config.threshold)
                {
                    InterpEvent::Hot { vaddr: target }
                } else {
                    InterpEvent::BlockEnd
                };
            }
            Control::NotTaken | Control::Sequential => {
                if cache.lookup(cpu.pc).is_some() {
                    return InterpEvent::BlockEnd;
                }
            }
        }
    }
}

/// A trap raised while collecting a superblock. The partial superblock
/// is abandoned with the PC on the faulting instruction, but the
/// instructions before it have executed and must be counted as retired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CollectionTrap {
    /// Faulting V-address.
    pub vaddr: u64,
    /// The condition.
    pub trap: Trap,
    /// Instructions executed before the faulting one, NOPs excluded.
    pub executed: u64,
}

/// Follows the interpreted path from the current PC, executing and
/// recording instructions until a superblock ending condition (paper
/// §3.1). NOP instructions are executed but not recorded.
///
/// Builds a [`DecodeCache`] for the one collection; a VM collecting
/// repeatedly keeps its own and calls [`collect_superblock_with_output`].
///
/// # Errors
///
/// Returns the trap if one is raised mid-collection (the partial
/// superblock is abandoned, matching the paper's "trap instructions end
/// fragments" rule — the VM falls back to interpretation).
pub fn collect_superblock(
    cpu: &mut CpuState,
    mem: &mut Memory,
    program: &Program,
    config: &ProfileConfig,
) -> Result<Superblock, CollectionTrap> {
    let decoded = DecodeCache::new(program);
    collect_superblock_with_output(cpu, mem, &decoded, config, &mut Vec::new())
}

/// [`collect_superblock`] fetching through an existing [`DecodeCache`],
/// additionally appending console bytes produced while the collection
/// executes the path.
///
/// # Errors
///
/// As [`collect_superblock`].
pub fn collect_superblock_with_output(
    cpu: &mut CpuState,
    mem: &mut Memory,
    decoded: &DecodeCache,
    config: &ProfileConfig,
    output: &mut Vec<u8>,
) -> Result<Superblock, CollectionTrap> {
    let start = cpu.pc;
    let mut insts: Vec<SbInst> = Vec::new();
    let mut seen: HashSet<u64, AddrHasher> = HashSet::default();
    loop {
        let pc = cpu.pc;
        if seen.contains(&pc) {
            return Ok(Superblock {
                start,
                insts,
                end: SbEnd::Cycle { next: pc },
            });
        }
        if insts.len() >= config.max_superblock {
            return Ok(Superblock {
                start,
                insts,
                end: SbEnd::MaxSize { next: pc },
            });
        }
        let trapped = |trap| CollectionTrap {
            vaddr: pc,
            trap,
            executed: insts.len() as u64,
        };
        let inst = decoded.fetch(pc).map_err(trapped)?;
        let outcome = step(cpu, mem, inst, config.align).map_err(trapped)?;
        if let Some(b) = outcome.output {
            output.push(b);
        }
        if inst.is_nop() {
            continue; // removed by translation (paper §4.4)
        }
        seen.insert(pc);
        let seq = pc.wrapping_add(4);
        let (flow, end) = match outcome.control {
            Control::Halt => (CollectedFlow::Sequential, Some(SbEnd::Halt)),
            Control::Indirect { kind, target } => (
                CollectedFlow::Indirect { kind, target },
                Some(SbEnd::IndirectJump),
            ),
            Control::Taken { target } => match inst {
                Inst::Branch { op, ra, .. } => {
                    if op.is_unconditional() {
                        let links = !ra.is_zero();
                        (CollectedFlow::Direct { target, links }, None)
                    } else if target <= pc {
                        (
                            CollectedFlow::CondTaken {
                                taken_target: target,
                                fallthrough: seq,
                            },
                            Some(SbEnd::BackwardTakenBranch {
                                target,
                                fallthrough: seq,
                            }),
                        )
                    } else {
                        (
                            CollectedFlow::CondTaken {
                                taken_target: target,
                                fallthrough: seq,
                            },
                            None,
                        )
                    }
                }
                _ => unreachable!("only branches produce Taken"),
            },
            Control::NotTaken => {
                let target = match inst {
                    Inst::Branch { disp, .. } => seq.wrapping_add(((disp as i64) << 2) as u64),
                    _ => unreachable!("only branches produce NotTaken"),
                };
                (
                    CollectedFlow::CondNotTaken {
                        taken_target: target,
                    },
                    None,
                )
            }
            Control::Sequential => (CollectedFlow::Sequential, None),
        };
        insts.push(SbInst {
            vaddr: pc,
            inst,
            flow,
        });
        if let Some(end) = end {
            return Ok(Superblock { start, insts, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_isa::{Assembler, Reg};
    use ildp_isa::IsaForm;

    fn countdown_program() -> Program {
        let mut asm = Assembler::new(0x1000);
        asm.lda_imm(Reg::A0, 100);
        let top = asm.here("top");
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.addq(Reg::A0, Reg::A0, Reg::V0);
        asm.bne(Reg::A0, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn backward_branch_target_becomes_hot() {
        let program = countdown_program();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        let mut cands = Candidates::new();
        let config = ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        };
        let code = TranslationCache::new();
        let mut interp = 0u64;
        let mut blocks = 0;
        let hot = loop {
            blocks += 1;
            match interp_block(
                &mut cpu,
                &mut mem,
                &decoded,
                &mut cands,
                &config,
                &mut interp,
                u64::MAX,
                &mut Vec::new(),
                &code,
            ) {
                InterpEvent::Hot { vaddr } => break vaddr,
                InterpEvent::BlockEnd => {}
                e => panic!("unexpected {e:?}"),
            }
        };
        assert_eq!(hot, 0x1004, "loop top becomes hot");
        // PC is at the hot address, ready for collection.
        assert_eq!(cpu.pc, 0x1004);
        // One block per taken backward branch: the lda plus ten
        // three-instruction iterations.
        assert_eq!(blocks, 10);
        assert_eq!(interp, 1 + 3 * 10);
    }

    #[test]
    fn block_stops_exactly_at_the_limit_and_skips_nops() {
        let mut asm = Assembler::new(0x1000);
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.nop();
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.nop();
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.halt();
        let program = asm.finish().unwrap();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        let mut cands = Candidates::new();
        let config = ProfileConfig::default();
        let code = TranslationCache::new();
        let mut interp = 0u64;
        let mut block = |cpu: &mut CpuState, interp: &mut u64, limit| {
            interp_block(
                cpu,
                &mut mem,
                &decoded,
                &mut cands,
                &config,
                interp,
                limit,
                &mut Vec::new(),
                &code,
            )
        };
        // The limit counts retired non-NOPs; the block stops as soon as
        // it is reached, before the following NOP executes.
        assert_eq!(block(&mut cpu, &mut interp, 2), InterpEvent::BlockEnd);
        assert_eq!((interp, cpu.pc), (2, 0x100c));
        // A limit already reached executes nothing.
        assert_eq!(block(&mut cpu, &mut interp, 2), InterpEvent::BlockEnd);
        assert_eq!((interp, cpu.pc), (2, 0x100c));
        assert_eq!(block(&mut cpu, &mut interp, u64::MAX), InterpEvent::Halted);
        assert_eq!(interp, 4);
    }

    #[test]
    fn block_ends_where_a_fragment_starts() {
        let program = countdown_program();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        let mut code = TranslationCache::new();
        let halt = vec![ildp_isa::IInst::Halt];
        let meta = vec![crate::fragment::IMeta::chain(0x1008)];
        code.install(0x1008, IsaForm::Modified, halt, meta, 1, HashMap::new());
        let mut interp = 0u64;
        let event = interp_block(
            &mut cpu,
            &mut mem,
            &decoded,
            &mut Candidates::new(),
            &ProfileConfig::default(),
            &mut interp,
            u64::MAX,
            &mut Vec::new(),
            &code,
        );
        assert_eq!(event, InterpEvent::BlockEnd);
        assert_eq!((interp, cpu.pc), (2, 0x1008));
    }

    #[test]
    fn collection_ends_at_backward_taken_branch() {
        let program = countdown_program();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        // Enter the loop first.
        let config = ProfileConfig::default();
        let mut n = 0;
        interp_block(
            &mut cpu,
            &mut mem,
            &decoded,
            &mut Candidates::new(),
            &config,
            &mut n,
            1,
            &mut Vec::new(),
            &TranslationCache::new(),
        );
        assert_eq!(cpu.pc, 0x1004);
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert_eq!(sb.start, 0x1004);
        assert_eq!(sb.len(), 3);
        assert!(matches!(
            sb.end,
            SbEnd::BackwardTakenBranch { target: 0x1004, .. }
        ));
        // Collection executed one loop iteration.
        assert_eq!(cpu.pc, 0x1004);
    }

    #[test]
    fn collection_detects_cycles_without_branch_end() {
        // A loop closed by an unconditional BR (followed through), so the
        // cycle rule ends collection.
        let mut asm = Assembler::new(0x2000);
        let top = asm.here("top");
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.br(top);
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let config = ProfileConfig::default();
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert!(matches!(sb.end, SbEnd::Cycle { next: 0x2000 }));
        // The BR is recorded as a followed direct branch.
        assert!(matches!(
            sb.insts.last().unwrap().flow,
            CollectedFlow::Direct { links: false, .. }
        ));
    }

    #[test]
    fn collection_respects_max_size() {
        let mut asm = Assembler::new(0x3000);
        for _ in 0..50 {
            asm.addq_imm(Reg::V0, 1, Reg::V0);
        }
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let config = ProfileConfig {
            max_superblock: 10,
            ..ProfileConfig::default()
        };
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert_eq!(sb.len(), 10);
        assert!(matches!(sb.end, SbEnd::MaxSize { next: 0x3028 }));
    }

    #[test]
    fn nops_are_executed_but_not_recorded() {
        let mut asm = Assembler::new(0x4000);
        asm.nop();
        asm.nop();
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let sb =
            collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default()).unwrap();
        assert_eq!(sb.len(), 2); // addq + halt
        assert_eq!(sb.insts[0].vaddr, 0x4008);
    }

    #[test]
    fn collection_reports_traps() {
        let mut asm = Assembler::new(0x5000);
        asm.lda_imm(Reg::A0, 42);
        asm.gentrap();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let err = collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default())
            .unwrap_err();
        assert_eq!(err.vaddr, 0x5004);
        assert_eq!(err.trap, Trap::GenTrap { code: 42 });
        assert_eq!(err.executed, 1, "the lda ran before the trap");
    }

    #[test]
    fn candidate_counters() {
        let mut c = Candidates::new();
        assert!(c.is_empty());
        for i in 1..50 {
            assert!(!c.bump(0x100, 50), "not hot at {i}");
        }
        assert!(c.bump(0x100, 50));
        assert!(c.is_hot(0x100, 50));
        assert!(!c.bump(0x100, 50), "hot fires exactly once");
        assert_eq!(c.len(), 1);
    }
}
