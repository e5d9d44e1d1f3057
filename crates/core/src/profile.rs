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

use crate::engine::{lower_alpha, Engine, LoweredEnd, Op};
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

/// One static instruction in the interpreter's lowered tier
/// ([`LoweredCode`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lowered {
    /// Not executed yet.
    Unseen,
    /// A non-control instruction as the engine runs it
    /// ([`lower_alpha`]); an architectural NOP is [`Op::Nop`], which does
    /// not retire.
    Op(Op),
    /// A control transfer or a PAL call, interpreted by [`step`]; an
    /// undecodable word, whose fetch traps.
    Step(Result<Inst, Trap>),
}

// The step entries ride in the ops' spare bytes.
const _: () = assert!(std::mem::size_of::<Lowered>() == std::mem::size_of::<Op>());

/// The interpreter's lowered tier: one entry per static instruction of a
/// program's code segment, parallel to its [`DecodeCache`], lowered to
/// the engine's `Op` at first execution. [`interp_block`] runs each
/// straight-line stretch of non-control instructions through
/// `Engine::run_lowered`, on the engine's register file and with the
/// engine's op semantics, and leaves control transfers and PAL calls to
/// [`step`].
///
/// An entry never goes stale: fetch reads the program's immutable code,
/// and a store into a code page invalidates translations, not the code
/// the interpreter runs. The table also marks every address a fragment
/// was installed at (from `TranslationCache::drain_installed`): a run
/// stops in front of a mark so the caller can look the fragment up and
/// end the block there, as it does after every interpreted instruction.
/// Marks outlive invalidation, so a stale one only costs that lookup.
#[derive(Debug)]
pub struct LoweredCode {
    base: u64,
    ops: Vec<Lowered>,
    cuts: Vec<bool>,
}

impl LoweredCode {
    /// An empty table for `program`'s code segment.
    pub fn new(program: &Program) -> LoweredCode {
        let n = program.code().len();
        LoweredCode {
            base: program.code_base(),
            ops: vec![Lowered::Unseen; n],
            cuts: vec![false; n],
        }
    }

    /// The entry index of `pc`, if it lies in the code segment.
    fn index(&self, pc: u64) -> Option<usize> {
        let k = usize::try_from(pc.wrapping_sub(self.base) / 4).ok()?;
        (pc >= self.base && pc.is_multiple_of(4) && k < self.ops.len()).then_some(k)
    }

    fn pc(&self, k: usize) -> u64 {
        self.base + 4 * k as u64
    }

    /// Lowers the not-yet-seen instructions from entry `k` up to the
    /// next control transfer.
    fn lower_from(&mut self, k: usize, decoded: &DecodeCache) {
        for j in k..self.ops.len() {
            if self.ops[j] != Lowered::Unseen {
                return;
            }
            let entry = match decoded.fetch(self.pc(j)) {
                Ok(inst) if inst.is_nop() => Lowered::Op(Op::Nop),
                Ok(inst @ (Inst::Operate { .. } | Inst::Mem { .. })) => {
                    Lowered::Op(lower_alpha(inst))
                }
                fetched => Lowered::Step(fetched),
            };
            self.ops[j] = entry;
            if matches!(entry, Lowered::Step(_)) {
                return;
            }
        }
    }

    /// Marks every fragment entry installed since the last call.
    fn mark_installs(&mut self, cache: &mut TranslationCache) {
        for vaddr in cache.drain_installed() {
            if let Some(k) = self.index(vaddr) {
                self.cuts[k] = true;
            }
        }
    }
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
/// Straight-line stretches of non-control instructions run from the
/// lowered tier ([`LoweredCode`]) on `engine`'s register file; control
/// transfers and PAL calls are fetched through the predecoded
/// [`DecodeCache`] and run by [`step`]. `interpreted` counts retired
/// non-NOP instructions (for the translation-overhead model and the VM's
/// retired count). Stores into pages holding translated source code are
/// reported as [`InterpEvent::SmcStore`] so the VM can invalidate before
/// the stale fragments run again.
///
/// `#[inline]`: the VM's run loop, in another codegen unit, calls this
/// once per interpreted block.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn interp_block(
    cpu: &mut CpuState,
    mem: &mut Memory,
    decoded: &DecodeCache,
    lowered: &mut LoweredCode,
    engine: &mut Engine,
    candidates: &mut Candidates,
    config: &ProfileConfig,
    interpreted: &mut u64,
    limit: u64,
    output: &mut Vec<u8>,
    cache: &mut TranslationCache,
) -> InterpEvent {
    lowered.mark_installs(cache);
    loop {
        if *interpreted >= limit {
            return InterpEvent::BlockEnd;
        }
        let pc = cpu.pc;
        let fetched = match lowered.index(pc) {
            None => decoded.fetch(pc),
            Some(k) => match lowered.ops[k] {
                Lowered::Unseen => {
                    lowered.lower_from(k, decoded);
                    continue;
                }
                Lowered::Op(_) => {
                    let (next, retired, end) = engine.run_lowered(
                        cpu,
                        mem,
                        &lowered.ops,
                        &lowered.cuts,
                        k,
                        limit - *interpreted,
                        config.align,
                        cache,
                    );
                    *interpreted += retired;
                    cpu.pc = lowered.pc(next);
                    match end {
                        LoweredEnd::Stop => {
                            if lowered.cuts.get(next) == Some(&true)
                                && cache.lookup(cpu.pc).is_some()
                            {
                                return InterpEvent::BlockEnd;
                            }
                        }
                        LoweredEnd::Trap(trap) => {
                            return InterpEvent::Trapped {
                                vaddr: cpu.pc,
                                trap,
                            }
                        }
                        LoweredEnd::SmcStore { addr, len } => {
                            return InterpEvent::SmcStore { addr, len }
                        }
                    }
                    continue;
                }
                Lowered::Step(fetched) => fetched,
            },
        };
        let inst = match fetched {
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
        // Control transfers and PAL calls are never NOPs, and none of
        // them stores: every retired instruction here counts.
        *interpreted += 1;
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
    use crate::engine::EngineConfig;
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
        let mut code = TranslationCache::new();
        let mut lowered = LoweredCode::new(&program);
        let mut engine = Engine::new(EngineConfig::default());
        let mut interp = 0u64;
        let mut blocks = 0;
        let hot = loop {
            blocks += 1;
            match interp_block(
                &mut cpu,
                &mut mem,
                &decoded,
                &mut lowered,
                &mut engine,
                &mut cands,
                &config,
                &mut interp,
                u64::MAX,
                &mut Vec::new(),
                &mut code,
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
        let mut code = TranslationCache::new();
        let mut lowered = LoweredCode::new(&program);
        let mut engine = Engine::new(EngineConfig::default());
        let mut interp = 0u64;
        let mut block = |cpu: &mut CpuState, interp: &mut u64, limit| {
            interp_block(
                cpu,
                &mut mem,
                &decoded,
                &mut lowered,
                &mut engine,
                &mut cands,
                &config,
                interp,
                limit,
                &mut Vec::new(),
                &mut code,
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
            &mut LoweredCode::new(&program),
            &mut Engine::new(EngineConfig::default()),
            &mut Candidates::new(),
            &ProfileConfig::default(),
            &mut interp,
            u64::MAX,
            &mut Vec::new(),
            &mut code,
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
            &mut LoweredCode::new(&program),
            &mut Engine::new(EngineConfig::default()),
            &mut Candidates::new(),
            &config,
            &mut n,
            1,
            &mut Vec::new(),
            &mut TranslationCache::new(),
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
