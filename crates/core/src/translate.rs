//! Superblock → I-ISA fragment emission (paper §3.3).
//!
//! The translator never re-schedules code: it walks the decomposed node
//! list in program order, re-mapping intra-strand communication onto
//! accumulators per the [`crate::plan`] and emitting one or two I-ISA
//! instructions per node, plus:
//!
//! * `copy-from-GPR` strand starters (two-global-operand splits and
//!   terminated-strand resumptions);
//! * in the **basic** form, `copy-to-GPR` instructions after every
//!   producer whose value must be architecturally visible (live-out,
//!   communication, exit-crossing and trap-window values — the paper's
//!   Table 2 copy overhead);
//! * fragment chaining code per the [`ChainPolicy`]: patchable
//!   `call-translator` exits, the 3-instruction software jump prediction
//!   sequence, dual-address-RAS pushes and the return/dispatch pair.
//!
//! The **straightened** form (paper §4.1) skips the analysis: it carries
//! each non-control Alpha instruction unchanged, drops the straightened-away
//! direct branches and emits the same chaining code.

use crate::classify::{analyze, CategoryCounts, ValueId};
use crate::fragment::{IMeta, RecoveryEntry, DISPATCH_IADDR};
use crate::strands::{plan, Role, TranslationPlan};
use crate::superblock::{decompose_with, CollectedFlow, Node, NodeOp, SbEnd, Superblock};
use alpha_isa::{BranchOp, Inst, JumpKind, MemOp, OperateOp, PalFunc, Reg};
use ildp_isa::{ASrc, Acc, CondKind, IInst, ITarget, IsaForm, MemWidth};
use std::collections::HashMap;

/// Fragment-chaining policy (paper §3.2 and §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainPolicy {
    /// `no_pred`: every indirect jump branches to the shared dispatch
    /// code.
    NoPred,
    /// `sw_pred.no_ras`: translation-time software target prediction (the
    /// 3-instruction compare-and-branch) for all indirect jumps, returns
    /// included.
    SwPred,
    /// `sw_pred.ras`: software prediction for jumps/calls plus the
    /// dual-address hardware RAS for returns — the paper's baseline.
    SwPredDualRas,
}

impl ChainPolicy {
    /// Whether returns use the dual-address RAS.
    pub fn uses_dual_ras(self) -> bool {
        matches!(self, ChainPolicy::SwPredDualRas)
    }

    /// Whether indirect jumps use software target prediction.
    pub fn uses_sw_pred(self) -> bool {
        !matches!(self, ChainPolicy::NoPred)
    }

    /// The label used in the paper's Figure 4.
    pub fn label(self) -> &'static str {
        match self {
            ChainPolicy::NoPred => "no_pred",
            ChainPolicy::SwPred => "sw_pred.no_ras",
            ChainPolicy::SwPredDualRas => "sw_pred.ras",
        }
    }
}

/// Translator configuration.
#[derive(Clone, Copy, Debug)]
pub struct Translator {
    /// Target ISA form.
    pub form: IsaForm,
    /// Chaining policy.
    pub chain: ChainPolicy,
    /// Logical accumulators available (paper: 4 default, 8 evaluated).
    pub acc_count: usize,
    /// The fused-memory extension (paper §4.5): keep displaced memory
    /// operations as single I-ISA instructions instead of decomposing
    /// them into address-compute + access pairs. Off by default (the
    /// paper's evaluated ISA decomposes).
    pub fuse_memory: bool,
}

impl Default for Translator {
    fn default() -> Translator {
        Translator {
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        }
    }
}

/// Per-superblock translation statistics (aggregated into Table 2 and
/// Figure 7 by the VM).
#[derive(Clone, Debug, Default)]
pub struct TranslateStats {
    /// Copy instructions emitted (`copy-to-GPR` + `copy-from-GPR`).
    pub copies: u32,
    /// Chaining-overhead instructions emitted.
    pub chain_insts: u32,
    /// Strands formed.
    pub strands: u32,
    /// Strands prematurely terminated.
    pub terminations: u32,
    /// Static category counts of produced values.
    pub categories: CategoryCounts,
}

/// The output of translating one superblock, ready for
/// [`crate::TranslationCache::install`].
#[derive(Clone, Debug)]
pub struct TranslatedCode {
    /// Entry V-address.
    pub vstart: u64,
    /// Emitted instructions.
    pub insts: Vec<IInst>,
    /// Parallel metadata.
    pub meta: Vec<IMeta>,
    /// Precise-trap recovery tables (basic form).
    pub recovery: HashMap<u32, Vec<RecoveryEntry>>,
    /// Source superblock length in V-ISA instructions.
    pub src_inst_count: u32,
    /// Emission statistics.
    pub stats: TranslateStats,
    /// The analysis artifacts behind this emission (consumed by
    /// translation validators).
    pub trace: TranslationTrace,
}

/// Everything the translator knew when it emitted a fragment: the
/// decomposed node list, its dataflow analysis, the strand/accumulator
/// plan, and the map from each emitted instruction back to the node it
/// implements. Static-analysis passes (the `ildp-verifier` crate) check
/// the emitted code against this record instead of re-deriving it.
#[derive(Clone, Debug, Default)]
pub struct TranslationTrace {
    /// Decomposed dataflow nodes of the source superblock.
    pub nodes: Vec<Node>,
    /// Dataflow analysis over `nodes`.
    pub df: crate::classify::Dataflow,
    /// Strand formation and accumulator assignment over `nodes`.
    pub plan: TranslationPlan,
    /// Per emitted instruction: the node it implements. `None` for the
    /// leading `SetVpcBase` and the block-ending continuation exit;
    /// chaining instructions emitted on behalf of a node (software jump
    /// prediction, RAS pushes) carry that node's index.
    pub inst_node: Vec<Option<u32>>,
}

/// Where each architected register's current value lives during emission
/// (recovery-table tracking, basic form).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CurDef {
    /// Still the live-in value (in the GPR file).
    LiveIn,
    /// Copied/written to the GPR file.
    Global,
    /// Resident only in an accumulator.
    AccResident(ValueId, Acc),
}

struct Emitter<'a> {
    tr: &'a Translator,
    sb: &'a Superblock,
    nodes: &'a [Node],
    df: &'a crate::classify::Dataflow,
    plan: &'a TranslationPlan,
    insts: Vec<IInst>,
    meta: Vec<IMeta>,
    recovery: HashMap<u32, Vec<RecoveryEntry>>,
    stats: TranslateStats,
    /// V-ISA instructions credited so far (for vcount attribution).
    credited: u32,
    /// Basic-form recovery tracking.
    cur_def: [CurDef; 32],
    acc_holds: [Option<ValueId>; Acc::MAX_ACCUMULATORS],
    /// Per emitted instruction: the node being emitted when it was pushed.
    inst_node: Vec<Option<u32>>,
    /// The node currently being emitted.
    cur_node: Option<u32>,
}

impl Translator {
    /// Translates a collected superblock into installable I-ISA code.
    ///
    /// # Panics
    ///
    /// Panics on an empty superblock (the profiler never produces one).
    pub fn translate(&self, sb: &Superblock) -> TranslatedCode {
        assert!(!sb.is_empty(), "cannot translate an empty superblock");
        if self.form == IsaForm::Straightened {
            return self.straighten(sb);
        }
        let nodes = decompose_with(sb, self.fuse_memory);
        let df = analyze(&nodes);
        let plan = plan(&nodes, &df, self.acc_count, self.form == IsaForm::Basic);
        let mut em = Emitter {
            tr: self,
            sb,
            nodes: &nodes,
            df: &df,
            plan: &plan,
            insts: Vec::with_capacity(nodes.len() * 2),
            meta: Vec::with_capacity(nodes.len() * 2),
            recovery: HashMap::new(),
            stats: TranslateStats {
                strands: plan.strand_count,
                terminations: plan.terminations,
                ..TranslateStats::default()
            },
            credited: 0,
            cur_def: [CurDef::LiveIn; 32],
            acc_holds: [None; Acc::MAX_ACCUMULATORS],
            inst_node: Vec::with_capacity(nodes.len() * 2),
            cur_node: None,
        };
        for v in &plan.final_category {
            em.stats.categories.bump(*v);
        }
        em.run();
        let Emitter {
            insts,
            meta,
            recovery,
            stats,
            inst_node,
            ..
        } = em;
        TranslatedCode {
            vstart: sb.start,
            insts,
            meta,
            recovery,
            src_inst_count: sb.len() as u32,
            stats,
            trace: TranslationTrace {
                nodes,
                df,
                plan,
                inst_node,
            },
        }
    }

    /// Emits the straightened form: each non-control Alpha instruction
    /// carried unchanged, straightened-away direct branches removed, and
    /// the accumulator forms' chaining code, with accumulator 0 holding the
    /// software-prediction compare. No analysis runs, so the trace is
    /// empty.
    fn straighten(&self, sb: &Superblock) -> TranslatedCode {
        let mut insts = Vec::with_capacity(sb.insts.len() + 8);
        let mut meta = Vec::with_capacity(sb.insts.len() + 8);
        let mut stats = TranslateStats::default();
        let mut credited = 0u32;
        let acc = Acc::new(0);
        for (k, si) in sb.insts.iter().enumerate() {
            // Every slot carries its originating V-address; `vcount`
            // credits the retirement of this instruction and of any
            // straightened-away branches before it.
            let mut push = |inst: IInst, vcount: u16, is_chain: bool| {
                stats.chain_insts += u32::from(is_chain);
                insts.push(inst);
                meta.push(IMeta {
                    vaddr: si.vaddr,
                    vcount,
                    category: None,
                    is_chain,
                });
            };
            let through = k as u32 + 1;
            let mut credit = || {
                let c = through.saturating_sub(credited);
                credited = through;
                c as u16
            };
            let exit_if = |op: BranchOp, ra: Reg, vtarget: u64| IInst::CallTranslatorIfCond {
                cond: CondKind::from_branch_op(op),
                acc,
                src: ASrc::Gpr(ra),
                vtarget,
            };
            let ras_push = |vret: u64| IInst::PushDualRas {
                vret,
                iret: ITarget::Addr(DISPATCH_IADDR),
            };
            match (si.flow, si.inst) {
                (CollectedFlow::Sequential, inst) => push(IInst::Alpha(inst), credit(), false),
                (CollectedFlow::Direct { links, .. }, Inst::Branch { ra, .. }) => {
                    if links {
                        let vaddr = si.vaddr + 4;
                        push(IInst::SaveVReturn { dst: ra, vaddr }, credit(), false);
                        if self.chain.uses_dual_ras() {
                            push(ras_push(vaddr), 0, true);
                        }
                    }
                    // Non-linking direct branches are removed outright.
                }
                (CollectedFlow::CondNotTaken { taken_target }, Inst::Branch { op, ra, .. }) => {
                    push(exit_if(op, ra, taken_target), credit(), false);
                }
                (
                    CollectedFlow::CondTaken {
                        taken_target,
                        fallthrough,
                    },
                    Inst::Branch { op, ra, .. },
                ) => {
                    let c = credit();
                    let is_last = k == sb.insts.len() - 1;
                    if is_last && matches!(sb.end, SbEnd::BackwardTakenBranch { .. }) {
                        push(exit_if(op, ra, taken_target), c, false);
                        push(
                            IInst::CallTranslator {
                                vtarget: fallthrough,
                            },
                            0,
                            true,
                        );
                    } else {
                        // Reversed so the followed path falls through.
                        push(exit_if(op.inverse(), ra, fallthrough), c, false);
                    }
                }
                (CollectedFlow::Indirect { kind, target }, Inst::Jump { ra, rb, .. }) => {
                    let vret = si.vaddr + 4;
                    // A jump through its own link register reads the old
                    // target into the accumulator before the link write,
                    // and dispatches from there.
                    let src = if !ra.is_zero() && ra == rb {
                        push(IInst::CopyFromGpr { acc, src: rb }, 0, true);
                        ASrc::Acc
                    } else {
                        ASrc::Gpr(rb)
                    };
                    if !ra.is_zero() {
                        push(
                            IInst::SaveVReturn {
                                dst: ra,
                                vaddr: vret,
                            },
                            0,
                            false,
                        );
                        if self.chain.uses_dual_ras() {
                            push(ras_push(vret), 0, true);
                        }
                    }
                    let c = credit();
                    match (kind, self.chain) {
                        (JumpKind::Ret, ChainPolicy::SwPredDualRas) => {
                            push(
                                IInst::IndirectJump {
                                    kind,
                                    acc,
                                    addr: src,
                                },
                                c,
                                false,
                            );
                            push(IInst::Dispatch { acc, src }, 0, true);
                        }
                        (_, chain) if chain == ChainPolicy::NoPred || src == ASrc::Acc => {
                            push(IInst::Dispatch { acc, src }, c, false)
                        }
                        _ => {
                            push(IInst::LoadEmbeddedTarget { acc, vaddr: target }, c, true);
                            let cmp = IInst::Op {
                                op: OperateOp::Cmpeq,
                                acc,
                                lhs: ASrc::Acc,
                                rhs: src,
                                dst: None,
                            };
                            push(cmp, 0, true);
                            let hit = IInst::CallTranslatorIfCond {
                                cond: CondKind::Ne,
                                acc,
                                src: ASrc::Acc,
                                vtarget: target,
                            };
                            push(hit, 0, true);
                            push(IInst::Dispatch { acc, src }, 0, true);
                        }
                    }
                }
                (flow, inst) => panic!("{inst:?} collected with flow {flow:?}"),
            }
        }
        if let SbEnd::Cycle { next } | SbEnd::MaxSize { next } = sb.end {
            // Trailing straightened-away branches have no later slot to
            // credit them; they retire on the way to this exit.
            stats.chain_insts += 1;
            insts.push(IInst::CallTranslator { vtarget: next });
            meta.push(IMeta {
                vcount: (sb.insts.len() as u32).saturating_sub(credited) as u16,
                ..IMeta::chain(sb.insts.last().map_or(sb.start, |si| si.vaddr))
            });
        }
        TranslatedCode {
            vstart: sb.start,
            insts,
            meta,
            recovery: HashMap::new(),
            src_inst_count: sb.len() as u32,
            stats,
            trace: TranslationTrace::default(),
        }
    }
}

impl Emitter<'_> {
    fn run(&mut self) {
        // Every fragment begins with the V-PC base special instruction
        // (paper §2.2).
        self.push(
            IInst::SetVpcBase {
                vaddr: self.sb.start,
            },
            IMeta {
                vaddr: self.sb.start,
                vcount: 0,
                category: None,
                is_chain: false,
            },
        );
        for i in 0..self.nodes.len() {
            self.cur_node = Some(i as u32);
            self.emit_node(i);
        }
        self.cur_node = None;
        // Block-ending continuation for non-control endings.
        match self.sb.end {
            SbEnd::Cycle { next } | SbEnd::MaxSize { next } => {
                let vaddr = self.last_vaddr();
                // Trailing straightened-away direct branches have no later
                // retiring node to credit them; they retire unconditionally
                // on the way to this exit, so the continuation carries the
                // outstanding count.
                let stranded = (self.sb.len() as u32).saturating_sub(self.credited) as u16;
                self.stats.chain_insts += 1;
                self.push(
                    IInst::CallTranslator { vtarget: next },
                    IMeta {
                        vcount: stranded,
                        ..IMeta::chain(vaddr)
                    },
                );
            }
            _ => {}
        }
    }

    fn last_vaddr(&self) -> u64 {
        self.nodes.last().map(|n| n.vaddr).unwrap_or(self.sb.start)
    }

    fn push(&mut self, inst: IInst, meta: IMeta) {
        debug_assert!(
            inst.validate(self.tr.form).is_ok(),
            "emitted invalid {inst:?} for {:?}",
            self.tr.form
        );
        // Track accumulator contents for recovery tables.
        if inst.writes_acc() {
            if let Some(acc) = inst.acc() {
                self.acc_holds[acc.index()] = None;
            }
        }
        self.insts.push(inst);
        self.meta.push(meta);
        self.inst_node.push(self.cur_node);
    }

    fn push_chain(&mut self, inst: IInst, vaddr: u64) {
        self.stats.chain_insts += 1;
        self.push(inst, IMeta::chain(vaddr));
    }

    /// vcount credit for a retiring node: covers any straightened-away
    /// direct branches between the previous retirement and this one.
    fn credit(&mut self, node: &Node) -> u16 {
        let through = node.sb_index + 1;
        let c = through.saturating_sub(self.credited);
        self.credited = through;
        c as u16
    }

    fn role_src(&self, i: usize, slot: usize) -> ASrc {
        match self.plan.input_role[i][slot] {
            Some(Role::Acc) => ASrc::Acc,
            Some(Role::Gpr(r)) => ASrc::Gpr(r),
            Some(Role::Imm(v)) => ASrc::Imm(v),
            None => panic!("missing input role for node {i} slot {slot}"),
        }
    }

    fn node_acc(&self, i: usize) -> Acc {
        self.plan.node_acc[i].unwrap_or(Acc::new(0))
    }

    /// The modified-form destination specifier for a producing node.
    /// `None` for a producing node whose register write was discarded
    /// (R31): it has no architected effect.
    fn dst_for(&self, value: Option<ValueId>) -> Option<Reg> {
        if self.tr.form != IsaForm::Modified {
            return None;
        }
        value.and_then(|v| self.df.value(v).reg)
    }

    fn emit_pre_copy(&mut self, i: usize) {
        if let Some(reg) = self.plan.pre_copy[i] {
            let acc = self.node_acc(i);
            self.push(
                IInst::CopyFromGpr { acc, src: reg },
                IMeta {
                    vaddr: self.nodes[i].vaddr,
                    vcount: 0,
                    category: None,
                    is_chain: false,
                },
            );
            self.stats.copies += 1;
        }
    }

    /// Basic-form architected-state copy after a producing instruction.
    fn emit_post_copy(&mut self, i: usize, value: Option<ValueId>) {
        let Some(v) = value else { return };
        let info = self.df.value(v);
        let Some(reg) = info.reg else {
            self.track_def(v);
            return;
        };
        let cat = self.plan.final_category[v.0 as usize];
        if self.tr.form == IsaForm::Basic {
            if cat.is_global() {
                let acc = self.node_acc(i);
                self.push(
                    IInst::CopyToGpr { acc, dst: reg },
                    IMeta {
                        vaddr: self.nodes[i].vaddr,
                        vcount: 0,
                        category: None,
                        is_chain: false,
                    },
                );
                self.stats.copies += 1;
                self.cur_def[reg.number() as usize] = CurDef::Global;
            } else {
                let acc = self.node_acc(i);
                self.cur_def[reg.number() as usize] = CurDef::AccResident(v, acc);
                self.acc_holds[acc.index()] = Some(v);
            }
        } else {
            // Modified form: the destination specifier updated the file.
            self.cur_def[reg.number() as usize] = CurDef::Global;
        }
    }

    /// Temps: keep the accumulator association for completeness.
    fn track_def(&mut self, v: ValueId) {
        let producer = self.df.value(v).producer as usize;
        if let Some(acc) = self.plan.node_acc[producer] {
            self.acc_holds[acc.index()] = Some(v);
        }
    }

    /// Records the trap-recovery table for a PEI that was just emitted at
    /// instruction index `idx`.
    fn record_recovery(&mut self, idx: u32) {
        if self.tr.form != IsaForm::Basic {
            return;
        }
        let mut entries = Vec::new();
        for rn in 0..31u8 {
            if let CurDef::AccResident(v, acc) = self.cur_def[rn as usize] {
                if self.acc_holds[acc.index()] == Some(v) {
                    entries.push(RecoveryEntry {
                        reg: Reg::new(rn),
                        acc,
                    });
                } else {
                    // The PEI-window rule must have upgraded such values.
                    debug_assert!(
                        false,
                        "architected r{rn} lost from accumulator before a PEI"
                    );
                }
            }
        }
        if !entries.is_empty() {
            self.recovery.insert(idx, entries);
        }
    }

    fn emit_node(&mut self, i: usize) {
        self.emit_pre_copy(i);
        let node = &self.nodes[i];
        let acc = self.node_acc(i);
        let value = self.df.produced[i];
        let vcount = if node.retires { self.credit(node) } else { 0 };
        let category = value.map(|v| self.plan.final_category[v.0 as usize]);
        let meta = IMeta {
            vaddr: node.vaddr,
            vcount,
            category,
            is_chain: false,
        };

        match node.op {
            NodeOp::Alu(op) => {
                let inst = IInst::Op {
                    op,
                    acc,
                    lhs: self.role_src(i, 0),
                    rhs: self.role_src(i, 1),
                    dst: self.dst_for(value),
                };
                self.push(inst, meta);
                self.emit_post_copy(i, value);
            }
            NodeOp::AddImm => {
                let inst = IInst::Op {
                    op: OperateOp::Addq,
                    acc,
                    lhs: self.role_src(i, 0),
                    rhs: ASrc::Imm(node.imm),
                    dst: self.dst_for(value),
                };
                self.push(inst, meta);
                self.emit_post_copy(i, value);
            }
            NodeOp::AddHigh => {
                let inst = IInst::AddHigh {
                    acc,
                    src: self.role_src(i, 0),
                    imm: node.imm,
                    dst: self.dst_for(value),
                };
                self.push(inst, meta);
                self.emit_post_copy(i, value);
            }
            NodeOp::Load(op) => {
                let inst = IInst::Load {
                    width: mem_width(op),
                    acc,
                    addr: self.role_src(i, 0),
                    disp: node.imm,
                    dst: self.dst_for(value),
                };
                let idx = self.insts.len() as u32;
                self.record_recovery(idx);
                self.push(inst, meta);
                self.emit_post_copy(i, value);
            }
            NodeOp::Store(op) => {
                let inst = IInst::Store {
                    width: mem_width(op),
                    acc,
                    addr: self.role_src(i, 0),
                    disp: node.imm,
                    value: self.role_src(i, 1),
                };
                let idx = self.insts.len() as u32;
                self.record_recovery(idx);
                self.push(inst, meta);
            }
            NodeOp::CmovSelect(sel) => {
                let old = self
                    .df
                    .value(value.expect("select produces a value"))
                    .reg
                    .expect("select destination is architected");
                let inst = IInst::CmovSelect {
                    lbs: sel == OperateOp::Cmovlbs,
                    acc,
                    value: self.role_src(i, 1),
                    old,
                    dst: self.dst_for(value),
                };
                self.push(inst, meta);
                self.emit_post_copy(i, value);
            }
            NodeOp::CondBranch(bop) => {
                let src = self.role_src(i, 0);
                let is_ending = i == self.nodes.len() - 1
                    && matches!(self.sb.end, SbEnd::BackwardTakenBranch { .. });
                match (node_flow(self.sb, node), is_ending) {
                    (CollectedFlow::CondNotTaken { taken_target }, _) => {
                        self.push(
                            IInst::CallTranslatorIfCond {
                                cond: CondKind::from_branch_op(bop),
                                acc,
                                src,
                                vtarget: taken_target,
                            },
                            meta,
                        );
                    }
                    (CollectedFlow::CondTaken { fallthrough, .. }, false) => {
                        // Reversed so the followed path falls through.
                        self.push(
                            IInst::CallTranslatorIfCond {
                                cond: CondKind::from_branch_op(bop.inverse()),
                                acc,
                                src,
                                vtarget: fallthrough,
                            },
                            meta,
                        );
                    }
                    (
                        CollectedFlow::CondTaken {
                            taken_target,
                            fallthrough,
                        },
                        true,
                    ) => {
                        // Block-ending backward taken branch (Fig. 2):
                        // conditional exit to the loop head, unconditional
                        // exit to the fall-through.
                        self.push(
                            IInst::CallTranslatorIfCond {
                                cond: CondKind::from_branch_op(bop),
                                acc,
                                src,
                                vtarget: taken_target,
                            },
                            meta,
                        );
                        self.push_chain(
                            IInst::CallTranslator {
                                vtarget: fallthrough,
                            },
                            node.vaddr,
                        );
                    }
                    (flow, _) => panic!("conditional branch with flow {flow:?}"),
                }
            }
            NodeOp::CallSave => {
                let dst = node.out.expect("call-save links a register");
                let vret = node.vaddr + 4;
                self.push(IInst::SaveVReturn { dst, vaddr: vret }, meta);
                self.cur_def[dst.number() as usize] = CurDef::Global;
                if self.tr.chain.uses_dual_ras() {
                    self.push_chain(
                        IInst::PushDualRas {
                            vret,
                            iret: ITarget::Addr(DISPATCH_IADDR),
                        },
                        node.vaddr,
                    );
                }
            }
            NodeOp::IndirectJump(kind) => {
                self.emit_indirect(i, kind, meta);
            }
            NodeOp::Pal(func) => match func {
                PalFunc::Halt => self.push(IInst::Halt, meta),
                PalFunc::GenTrap => {
                    let idx = self.insts.len() as u32;
                    self.record_recovery(idx);
                    self.push(IInst::GenTrap, meta);
                }
                PalFunc::PutChar => {
                    let inst = IInst::PutChar {
                        acc,
                        src: self.role_src(i, 0),
                    };
                    self.push(inst, meta);
                }
                PalFunc::Other(_) => {
                    // Architecturally a NOP: credit retirement on a free
                    // copy-less ALU no-op.
                    self.push(
                        IInst::Op {
                            op: OperateOp::Bis,
                            acc,
                            lhs: ASrc::Imm(0),
                            rhs: ASrc::Imm(0),
                            dst: None,
                        },
                        meta,
                    );
                }
            },
        }
    }

    fn emit_indirect(&mut self, i: usize, kind: JumpKind, meta: IMeta) {
        let node = &self.nodes[i];
        // Planning forces local jump targets global, so `src` is a GPR —
        // or, degenerately, an immediate when the guest jumps through R31
        // (the chaining code handles either operand kind). A jump through
        // its own link register reads the old target from the
        // accumulator it was captured in.
        let src = self.role_src(i, 0);
        let observed = match node_flow(self.sb, node) {
            CollectedFlow::Indirect { target, .. } => target,
            flow => panic!("indirect jump with flow {flow:?}"),
        };
        let acc = match src {
            ASrc::Acc => self.node_acc(i),
            _ => Acc::new(0), // block ends; any accumulator is free for chaining
        };
        match (kind, self.tr.chain) {
            (JumpKind::Ret, ChainPolicy::SwPredDualRas) => {
                // The return itself (dual-RAS predicted, non-atomic
                // semantics) followed by the dispatch fallback.
                let mut m = meta;
                m.vcount = meta.vcount;
                self.push(
                    IInst::IndirectJump {
                        kind,
                        acc,
                        addr: src,
                    },
                    m,
                );
                self.push_chain(IInst::Dispatch { acc, src }, node.vaddr);
            }
            (_, chain) if chain == ChainPolicy::NoPred || src == ASrc::Acc => {
                // Straight to the shared dispatch code. Software prediction
                // compares against a GPR, so a target held in an
                // accumulator dispatches too.
                self.push(IInst::Dispatch { acc, src }, meta);
            }
            _ => {
                // Software target prediction: the paper's 3-instruction
                // compare-and-branch, then dispatch.
                let mut m0 = IMeta::chain(node.vaddr);
                m0.vcount = meta.vcount; // the jump retires here
                self.stats.chain_insts += 1;
                self.push(
                    IInst::LoadEmbeddedTarget {
                        acc,
                        vaddr: observed,
                    },
                    m0,
                );
                self.push_chain(
                    IInst::Op {
                        op: OperateOp::Cmpeq,
                        acc,
                        lhs: ASrc::Acc,
                        rhs: src,
                        dst: None,
                    },
                    node.vaddr,
                );
                self.push_chain(
                    IInst::CallTranslatorIfCond {
                        cond: CondKind::Ne, // acc==1 means "target matches"
                        acc,
                        src: ASrc::Acc,
                        vtarget: observed,
                    },
                    node.vaddr,
                );
                self.push_chain(IInst::Dispatch { acc, src }, node.vaddr);
            }
        }
    }
}

/// The access width of an Alpha load or store.
pub(crate) fn mem_width(op: MemOp) -> MemWidth {
    match op {
        MemOp::Ldbu | MemOp::Stb => MemWidth::U8,
        MemOp::Ldwu | MemOp::Stw => MemWidth::U16,
        MemOp::Ldl | MemOp::Stl => MemWidth::I32,
        MemOp::Ldq | MemOp::Stq => MemWidth::U64,
        MemOp::Lda | MemOp::Ldah => unreachable!("address arithmetic is not memory"),
    }
}

fn node_flow(sb: &Superblock, node: &Node) -> CollectedFlow {
    sb.insts[node.sb_index as usize].flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superblock::SbInst;
    use alpha_isa::{BranchOp, Inst, Operand};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn fig2_superblock() -> Superblock {
        // The paper's Figure 2 example, as a one-iteration superblock
        // ending at the backward taken branch.
        let base = 0x1_0000u64;
        let mk = |i: u64, inst: Inst| SbInst {
            vaddr: base + i * 4,
            inst,
            flow: CollectedFlow::Sequential,
        };
        let mut insts = vec![
            mk(
                0,
                Inst::Mem {
                    op: MemOp::Ldbu,
                    ra: r(3),
                    rb: r(16),
                    disp: 0,
                },
            ),
            mk(
                1,
                Inst::Operate {
                    op: OperateOp::Subl,
                    ra: r(17),
                    rb: Operand::Lit(1),
                    rc: r(17),
                },
            ),
            mk(
                2,
                Inst::Mem {
                    op: MemOp::Lda,
                    ra: r(16),
                    rb: r(16),
                    disp: 1,
                },
            ),
            mk(
                3,
                Inst::Operate {
                    op: OperateOp::Xor,
                    ra: r(1),
                    rb: Operand::Reg(r(3)),
                    rc: r(3),
                },
            ),
            mk(
                4,
                Inst::Operate {
                    op: OperateOp::Srl,
                    ra: r(1),
                    rb: Operand::Lit(8),
                    rc: r(1),
                },
            ),
            mk(
                5,
                Inst::Operate {
                    op: OperateOp::And,
                    ra: r(3),
                    rb: Operand::Lit(0xff),
                    rc: r(3),
                },
            ),
            mk(
                6,
                Inst::Operate {
                    op: OperateOp::S8addq,
                    ra: r(3),
                    rb: Operand::Reg(r(0)),
                    rc: r(3),
                },
            ),
            mk(
                7,
                Inst::Mem {
                    op: MemOp::Ldq,
                    ra: r(3),
                    rb: r(3),
                    disp: 0,
                },
            ),
            mk(
                8,
                Inst::Operate {
                    op: OperateOp::Xor,
                    ra: r(3),
                    rb: Operand::Reg(r(1)),
                    rc: r(1),
                },
            ),
        ];
        insts.push(SbInst {
            vaddr: base + 9 * 4,
            inst: Inst::Branch {
                op: BranchOp::Bne,
                ra: r(17),
                disp: -10,
            },
            flow: CollectedFlow::CondTaken {
                taken_target: base,
                fallthrough: base + 10 * 4,
            },
        });
        Superblock {
            start: base,
            insts,
            end: SbEnd::BackwardTakenBranch {
                target: base,
                fallthrough: base + 10 * 4,
            },
        }
    }

    #[test]
    fn fig2_basic_translation_matches_paper_shape() {
        let tr = Translator {
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        };
        let out = tr.translate(&fig2_superblock());
        // Paper Fig. 2(c): 9 source instructions become 13 basic-ISA
        // computational instructions (4 copies), plus the two-way exit
        // and the leading SetVpcBase.
        let copies = out.insts.iter().filter(|i| i.is_copy()).count();
        assert_eq!(
            copies,
            4,
            "Fig 2(c) has four copy-to-GPR instructions:\n{}",
            out.insts
                .iter()
                .map(|i| format!("  {i}\n"))
                .collect::<String>()
        );
        assert!(matches!(out.insts[0], IInst::SetVpcBase { .. }));
        // The two-way ending: conditional + unconditional exits.
        let n = out.insts.len();
        assert!(matches!(
            out.insts[n - 2],
            IInst::CallTranslatorIfCond {
                cond: CondKind::Ne,
                ..
            }
        ));
        assert!(matches!(out.insts[n - 1], IInst::CallTranslator { .. }));
        // All instructions validate for the basic form.
        for inst in &out.insts {
            inst.validate(IsaForm::Basic).unwrap();
        }
        assert_eq!(out.src_inst_count, 10);
    }

    #[test]
    fn fig2_modified_translation_has_no_copies() {
        let tr = Translator {
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        };
        let out = tr.translate(&fig2_superblock());
        assert_eq!(
            out.insts.iter().filter(|i| i.is_copy()).count(),
            0,
            "modified form needs no state copies for this block"
        );
        // Every producing instruction names its destination GPR.
        for inst in &out.insts {
            inst.validate(IsaForm::Modified).unwrap();
            if matches!(inst, IInst::Op { .. } | IInst::Load { .. }) {
                assert!(
                    inst.gpr_write().is_some(),
                    "modified-form producer without destination: {inst}"
                );
            }
        }
        // Modified form executes fewer instructions than basic.
        let tr_b = Translator {
            form: IsaForm::Basic,
            ..tr
        };
        let out_b = tr_b.translate(&fig2_superblock());
        assert!(out.insts.len() < out_b.insts.len());
    }

    #[test]
    fn vcount_credits_cover_all_source_instructions() {
        let out = Translator::default().translate(&fig2_superblock());
        let total: u32 = out.meta.iter().map(|m| m.vcount as u32).sum();
        assert_eq!(total, out.src_inst_count);
    }

    #[test]
    fn straightened_form_carries_alpha_one_for_one() {
        let tr = Translator {
            form: IsaForm::Straightened,
            ..Translator::default()
        };
        let sb = fig2_superblock();
        let out = tr.translate(&sb);
        // The nine body instructions unchanged, then the two-way ending.
        assert_eq!(out.insts.len(), 11);
        for (inst, si) in out.insts.iter().zip(&sb.insts[..9]) {
            assert_eq!(*inst, IInst::Alpha(si.inst));
        }
        assert!(matches!(
            out.insts[9],
            IInst::CallTranslatorIfCond {
                cond: CondKind::Ne,
                src: ASrc::Gpr(_),
                ..
            }
        ));
        assert!(matches!(out.insts[10], IInst::CallTranslator { .. }));
        let total: u32 = out.meta.iter().map(|m| m.vcount as u32).sum();
        assert_eq!(total, out.src_inst_count);
        for inst in &out.insts {
            inst.validate(IsaForm::Straightened).unwrap();
        }
    }

    #[test]
    fn basic_form_recovery_tables_cover_acc_resident_state() {
        let tr = Translator {
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        };
        let out = tr.translate(&fig2_superblock());
        // The ldq (A0 <- mem[A0]) has r3's architected value (the s8addq
        // result) still in A0: the recovery table must say so.
        let ldq_idx = out
            .insts
            .iter()
            .position(|i| {
                matches!(
                    i,
                    IInst::Load {
                        width: MemWidth::U64,
                        ..
                    }
                )
            })
            .expect("fragment contains the ldq");
        let entries = out
            .recovery
            .get(&(ldq_idx as u32))
            .expect("ldq has a recovery table");
        assert!(
            entries.iter().any(|e| e.reg == r(3)),
            "r3 must be recoverable from an accumulator at the ldq: {entries:?}"
        );
    }

    #[test]
    fn return_chaining_emits_ras_then_dispatch() {
        let sb = Superblock {
            start: 0x2000,
            insts: vec![SbInst {
                vaddr: 0x2000,
                inst: Inst::Jump {
                    kind: JumpKind::Ret,
                    ra: Reg::ZERO,
                    rb: Reg::RA,
                    hint: 0,
                },
                flow: CollectedFlow::Indirect {
                    kind: JumpKind::Ret,
                    target: 0x9000,
                },
            }],
            end: SbEnd::IndirectJump,
        };
        let out = Translator::default().translate(&sb);
        assert!(matches!(
            out.insts[1],
            IInst::IndirectJump {
                kind: JumpKind::Ret,
                ..
            }
        ));
        assert!(matches!(out.insts[2], IInst::Dispatch { .. }));

        // Without the dual RAS, returns get the software-prediction
        // sequence instead.
        let tr = Translator {
            chain: ChainPolicy::SwPred,
            ..Translator::default()
        };
        let out = tr.translate(&sb);
        assert!(matches!(
            out.insts[1],
            IInst::LoadEmbeddedTarget { vaddr: 0x9000, .. }
        ));
        assert!(matches!(
            out.insts[2],
            IInst::Op {
                op: OperateOp::Cmpeq,
                ..
            }
        ));
        assert!(matches!(
            out.insts[3],
            IInst::CallTranslatorIfCond {
                vtarget: 0x9000,
                ..
            }
        ));
        assert!(matches!(out.insts[4], IInst::Dispatch { .. }));

        // no_pred: dispatch only.
        let tr = Translator {
            chain: ChainPolicy::NoPred,
            ..Translator::default()
        };
        let out = tr.translate(&sb);
        assert!(matches!(out.insts[1], IInst::Dispatch { .. }));
        assert_eq!(out.insts.len(), 2);
    }

    #[test]
    fn call_emits_save_and_ras_push() {
        let sb = Superblock {
            start: 0x3000,
            insts: vec![
                SbInst {
                    vaddr: 0x3000,
                    inst: Inst::Branch {
                        op: BranchOp::Bsr,
                        ra: Reg::RA,
                        disp: 100,
                    },
                    flow: CollectedFlow::Direct {
                        target: 0x3194,
                        links: true,
                    },
                },
                SbInst {
                    vaddr: 0x3194,
                    inst: Inst::CallPal {
                        func: PalFunc::Halt,
                    },
                    flow: CollectedFlow::Sequential,
                },
            ],
            end: SbEnd::Halt,
        };
        let out = Translator::default().translate(&sb);
        assert!(matches!(
            out.insts[1],
            IInst::SaveVReturn {
                dst: Reg::RA,
                vaddr: 0x3004
            }
        ));
        assert!(matches!(
            out.insts[2],
            IInst::PushDualRas { vret: 0x3004, .. }
        ));
        assert!(matches!(out.insts[3], IInst::Halt));
    }
}
