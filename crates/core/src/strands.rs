//! Strand formation and accumulator assignment (paper §3.3, phases two
//! and three).
//!
//! **Strand formation** walks the node list in program order and assigns a
//! strand number to every node, following the paper's rules:
//!
//! * zero local inputs → a new strand starts; if the node would need two
//!   GPR source operands, a `copy-from-GPR` is planned to start the strand
//!   (the node then consumes the copied value through the accumulator);
//! * one local input → the node joins the producer's strand;
//! * two local inputs → the temp producer's strand wins; otherwise the
//!   longer strand (by instruction count); the losing value is upgraded to
//!   a **spill global**.
//!
//! **Accumulator assignment** converts the unlimited strand numbers to the
//! finite logical accumulators with a linear scan. When the translator
//! runs out of accumulators, the live strand with the farthest next touch
//! is *terminated*: its current value is spilled to a GPR and the rest of
//! the strand is re-formed from the GPR (a planned `copy-from-GPR` at the
//! resumption point). Such upgrades, and the basic form's precise-trap
//! upgrades, change localness and so the strand structure: the plan is
//! re-formed until a round adds none. The paper reports (and the tests
//! confirm) that terminations are rare with four accumulators, so one
//! round is the rule.
//!
//! A round's *own* conflict spills (two local inputs, store and select
//! operand constraints) never force another: formation applies each one
//! at the moment it finds it, and the spilled value has exactly one
//! consumer, the node where it is found. Re-forming with the value global
//! from the start therefore takes every decision the same way and
//! reproduces the plan. Debug builds run that confirmation round and
//! assert it.

use crate::classify::{Dataflow, Reaching, UsageCat, ValueId};
use crate::superblock::{Node, NodeOp};
use alpha_isa::Reg;
use ildp_isa::Acc;

/// How a node's input slot is delivered in the translated code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Through the node's accumulator.
    Acc,
    /// From a general-purpose register.
    Gpr(Reg),
    /// An immediate.
    Imm(i16),
}

/// The complete translation plan for one superblock.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TranslationPlan {
    /// Per node: the strand it belongs to (`None` for strand-less nodes
    /// such as branches on global values).
    pub node_strand: Vec<Option<u32>>,
    /// Per node: the assigned logical accumulator.
    pub node_acc: Vec<Option<Acc>>,
    /// Per node: a planned `copy-from-GPR` to execute immediately before
    /// it (strand start from a global, or a resumption after premature
    /// termination).
    pub pre_copy: Vec<Option<Reg>>,
    /// Per node input slot: the delivery role.
    pub input_role: Vec<[Option<Role>; 3]>,
    /// Per value: final category after spill upgrades.
    pub final_category: Vec<UsageCat>,
    /// Total strands formed.
    pub strand_count: u32,
    /// Strands prematurely terminated to free an accumulator (paper: rare
    /// with four accumulators).
    pub terminations: u32,
}

/// Computes the strand/accumulator plan for a node list.
///
/// `acc_count` is the number of logical accumulators (the paper evaluates
/// 4, the default, and 8).
///
/// # Panics
///
/// Panics if `acc_count` is zero or exceeds [`Acc::MAX_ACCUMULATORS`].
pub fn plan(nodes: &[Node], df: &Dataflow, acc_count: usize, pei_copies: bool) -> TranslationPlan {
    assert!(
        acc_count > 0 && acc_count <= Acc::MAX_ACCUMULATORS,
        "accumulator count out of range"
    );
    let mut upgraded = ValueSet::new(df.values.len());
    let mut terminations = 0u32;
    // Re-form while precise-trap windows or accumulator terminations
    // upgrade a value (see the module docs for why a round's own conflict
    // spills do not). Ends because `upgraded` only grows.
    let f = loop {
        let (f, last, round_terminations) = round(nodes, df, &mut upgraded, acc_count, pei_copies);
        terminations += round_terminations;
        if last {
            break f;
        }
    };
    let plan = f.into_plan(df, &upgraded, terminations);
    #[cfg(debug_assertions)]
    {
        // The confirmation round: it must upgrade nothing, terminate no
        // strand, and reproduce the plan.
        let mut confirmed = upgraded.clone();
        let (again, _, extra) = round(nodes, df, &mut confirmed, acc_count, pei_copies);
        assert_eq!(
            again.into_plan(df, &confirmed, terminations + extra),
            plan,
            "a confirmation round changed the strand plan"
        );
    }
    plan
}

/// One planning round: forms strands under `upgraded`, adds the round's
/// own conflict spills, its precise-trap upgrades and its terminations'
/// spills to `upgraded`, and assigns accumulators. Returns the round's
/// formation, whether the round is the last one (its trap windows and
/// terminations upgraded nothing new), and its termination count.
fn round(
    nodes: &[Node],
    df: &Dataflow,
    upgraded: &mut ValueSet,
    acc_count: usize,
    pei_copies: bool,
) -> (Formation, bool, u32) {
    let mut f = Formation::new(nodes.len(), df.values.len());
    f.form(nodes, df, upgraded);
    upgraded.union_with(&f.local_upgrades);
    let before = upgraded.len;
    if pei_copies {
        pei_window_upgrades(nodes, df, &f, upgraded);
    }
    let terminations = assign_accumulators(df, &mut f, upgraded, acc_count);
    (f, upgraded.len == before, terminations)
}

/// A set of one dataflow's values, one bit per [`ValueId`].
#[derive(Clone)]
struct ValueSet {
    words: Vec<u64>,
    len: usize,
}

impl ValueSet {
    fn new(values: usize) -> ValueSet {
        ValueSet {
            words: vec![0; values.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, id: ValueId) -> bool {
        self.words[id.0 as usize / 64] & (1 << (id.0 % 64)) != 0
    }

    fn insert(&mut self, id: ValueId) {
        let word = &mut self.words[id.0 as usize / 64];
        let bit = 1 << (id.0 % 64);
        self.len += (*word & bit == 0) as usize;
        *word |= bit;
    }

    fn union_with(&mut self, other: &ValueSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            self.len += (o & !*w).count_ones() as usize;
            *w |= o;
        }
    }
}

/// Forces the candidate-local input in `slot` global: its value is upgraded
/// and the node reads it from its architected register.
fn spill(
    slot: usize,
    locals: &mut [Option<ValueId>; 3],
    global_regs: &mut [Option<Reg>; 3],
    upgrades: &mut ValueSet,
    df: &Dataflow,
) {
    if let Some(id) = locals[slot].take() {
        upgrades.insert(id);
        global_regs[slot] = Some(df.value(id).reg.expect("spilled local has a register"));
    }
}

/// One round's strand formation and accumulator assignment. Every table
/// is sized up front: a fragment forms at most one strand per node.
struct Formation {
    node_strand: Vec<Option<u32>>,
    node_acc: Vec<Option<Acc>>,
    pre_copy: Vec<Option<Reg>>,
    input_role: Vec<[Option<Role>; 3]>,
    strand_count: u32,
    /// Per strand: length in nodes (for the longer-strand heuristic),
    /// counted during formation.
    strand_len: Vec<u32>,
    /// Strand touches as one flat table: strand `s` touches the nodes
    /// `touches[touch_start[s]..touch_start[s + 1]]`, in program order.
    touch_start: Vec<u32>,
    touches: Vec<u32>,
    /// Per value: the strand carrying it (if acc-carried).
    value_strand: Vec<Option<u32>>,
    /// Values upgraded to spill globals during this formation pass.
    local_upgrades: ValueSet,
}

impl Formation {
    fn new(nodes: usize, values: usize) -> Formation {
        Formation {
            node_strand: vec![None; nodes],
            node_acc: vec![None; nodes],
            pre_copy: vec![None; nodes],
            input_role: vec![[None; 3]; nodes],
            strand_count: 0,
            strand_len: Vec::with_capacity(nodes),
            touch_start: Vec::with_capacity(nodes + 1),
            touches: vec![0; nodes],
            value_strand: vec![None; values],
            local_upgrades: ValueSet::new(values),
        }
    }

    /// The nodes `strand` touches, in program order.
    fn touches_of(&self, strand: u32) -> &[u32] {
        let s = strand as usize;
        &self.touches[self.touch_start[s] as usize..self.touch_start[s + 1] as usize]
    }

    /// The finished plan: `upgraded` values become spill globals.
    fn into_plan(self, df: &Dataflow, upgraded: &ValueSet, terminations: u32) -> TranslationPlan {
        let final_category = df
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if upgraded.contains(ValueId(i as u32)) {
                    UsageCat::Spill
                } else {
                    v.category
                }
            })
            .collect();
        TranslationPlan {
            node_strand: self.node_strand,
            node_acc: self.node_acc,
            pre_copy: self.pre_copy,
            input_role: self.input_role,
            final_category,
            strand_count: self.strand_count,
            terminations,
        }
    }

    fn form(&mut self, nodes: &[Node], df: &Dataflow, upgraded: &ValueSet) {
        // Local upgrades discovered during this pass (conflicts) are
        // applied immediately — safe because an acc-carried value has
        // exactly one consumer, the node at which the conflict is
        // discovered.
        let locality = |lu: &ValueSet, id: ValueId| {
            df.value(id).category.is_acc_carried() && !upgraded.contains(id) && !lu.contains(id)
        };

        for (i, node) in nodes.iter().enumerate() {
            // Gather the candidate-local and global inputs, by input slot.
            let mut locals: [Option<ValueId>; 3] = [None; 3];
            let mut global_regs: [Option<Reg>; 3] = [None; 3];
            for (slot, r) in df.reaching[i].iter().enumerate() {
                match r {
                    Some(Reaching::Value(id)) => {
                        if locality(&self.local_upgrades, *id) {
                            locals[slot] = Some(*id);
                        } else {
                            let reg = df
                                .value(*id)
                                .reg
                                .expect("global value must have an architected register");
                            global_regs[slot] = Some(reg);
                        }
                    }
                    Some(Reaching::LiveIn(reg)) => global_regs[slot] = Some(*reg),
                    Some(Reaching::Imm(v)) => self.input_role[i][slot] = Some(Role::Imm(*v)),
                    None => {}
                }
            }
            let mut to_gpr = |slot, locals: &mut _, global_regs: &mut _| {
                spill(slot, locals, global_regs, &mut self.local_upgrades, df)
            };

            // Node-specific constraints that force values global.
            match node.op {
                NodeOp::Store(_) => {
                    // At most the address operand (slot 0) stays local; a
                    // local value operand is spilled unless it is the same
                    // value.
                    if let [Some(addr), Some(value), _] = locals {
                        if addr != value {
                            to_gpr(1, &mut locals, &mut global_regs);
                        }
                    }
                }
                NodeOp::IndirectJump(_) => {
                    // Chaining code (software jump prediction, dual-RAS
                    // return checks, dispatch) reads the target from a GPR;
                    // force it global. The exception is a temp: the old
                    // target of a jump through its own link register,
                    // captured before the link write. It has no register
                    // to spill to and stays in its accumulator.
                    for slot in 0..3 {
                        if locals[slot].is_some_and(|id| df.value(id).reg.is_some()) {
                            to_gpr(slot, &mut locals, &mut global_regs);
                        }
                    }
                }
                NodeOp::CmovSelect(_) => {
                    // The test temp (slot 0) is the accumulator input; the
                    // move value and old destination are read as GPRs.
                    to_gpr(1, &mut locals, &mut global_regs);
                    to_gpr(2, &mut locals, &mut global_regs);
                    // The old-destination's *reaching architected value*
                    // must be current in the GPR file (implicit
                    // destination read).
                }
                _ => {
                    // Generic two-local conflict: temp wins, else longer
                    // strand.
                    let mut held = (0..3).filter_map(|s| locals[s].map(|v| (s, v)));
                    if let (Some((s0, v0)), Some((s1, v1)), None) =
                        (held.next(), held.next(), held.next())
                    {
                        let t0 = df.value(v0).reg.is_none();
                        let t1 = df.value(v1).reg.is_none();
                        let keep_first = if t0 == t1 {
                            let l0 = self.value_strand[v0.0 as usize]
                                .map(|s| self.strand_len[s as usize])
                                .unwrap_or(0);
                            let l1 = self.value_strand[v1.0 as usize]
                                .map(|s| self.strand_len[s as usize])
                                .unwrap_or(0);
                            l1 <= l0
                        } else {
                            t0
                        };
                        to_gpr(
                            if keep_first { s1 } else { s0 },
                            &mut locals,
                            &mut global_regs,
                        );
                    }
                }
            }

            // Resolve the strand. A load writes its accumulator even when
            // its value is dead (a load into r31), so it owns one like a
            // producer: strand-less, it would clobber whatever strand
            // holds the default accumulator.
            let produces = df.produced[i].is_some() || matches!(node.op, NodeOp::Load(_));
            let first_local = (0..3).find_map(|s| locals[s].map(|id| (s, id)));
            let strand: Option<u32> = if let Some((slot, id)) = first_local {
                // Joins the local input's strand.
                self.input_role[i][slot] = Some(Role::Acc);
                self.value_strand[id.0 as usize]
            } else if produces || global_regs.iter().flatten().count() >= 2 {
                // New strand: a producer, or a branch/store on global
                // values only that must still satisfy the one-GPR rule.
                // Two GPR sources → plan a copy-from-GPR for the first;
                // the node then consumes it through the accumulator.
                if global_regs.iter().flatten().count() >= 2 {
                    let slot = (0..3).find(|&s| global_regs[s].is_some()).unwrap();
                    self.pre_copy[i] = global_regs[slot].take();
                    self.input_role[i][slot] = Some(Role::Acc);
                }
                let s = self.strand_count;
                self.strand_count += 1;
                self.strand_len.push(0);
                Some(s)
            } else {
                // Strand-less: a branch/store on one global value.
                None
            };

            for (slot, reg) in global_regs.into_iter().enumerate() {
                if let Some(reg) = reg {
                    self.input_role[i][slot] = Some(Role::Gpr(reg));
                }
            }

            if let Some(s) = strand {
                self.node_strand[i] = Some(s);
                self.strand_len[s as usize] += 1;
                if let Some(v) = df.produced[i] {
                    self.value_strand[v.0 as usize] = Some(s);
                }
            }
        }

        // Lay the touches out flat, strand by strand. `touch_start[s + 1]`
        // first holds strand `s`'s start, the sum of the lengths before
        // it; filling advances it to `s`'s end, which is `s + 1`'s start.
        self.touch_start.push(0);
        let mut end = 0;
        for &len in &self.strand_len {
            self.touch_start.push(end);
            end += len;
        }
        for (i, s) in self.node_strand.iter().enumerate() {
            if let Some(s) = s {
                let at = &mut self.touch_start[*s as usize + 1];
                self.touches[*at as usize] = i as u32;
                *at += 1;
            }
        }
    }
}

/// Basic-form precise-trap rule (paper §2.2): a value whose accumulator is
/// overwritten (by the strand's next production, or potentially reused
/// after the strand's last touch) while its architected register is still
/// live at a later PEI must be copied to a GPR. Modified-form fragments
/// never need this — every producer names its destination GPR.
fn pei_window_upgrades(nodes: &[Node], df: &Dataflow, f: &Formation, upgraded: &mut ValueSet) {
    for (vi, v) in df.values.iter().enumerate() {
        let id = ValueId(vi as u32);
        if v.reg.is_none() || !v.category.is_acc_carried() || upgraded.contains(id) {
            continue;
        }
        let Some(strand) = f.value_strand[vi] else {
            continue;
        };
        let touches = f.touches_of(strand);
        // The accumulator stops holding this value at the strand's next
        // production after it, or (conservatively) at the strand's last
        // touch, after which the accumulator may be reused.
        let clobber = touches
            .iter()
            .filter(|&&t| t > v.producer)
            .find(|&&t| df.produced[t as usize].is_some())
            .copied()
            .or_else(|| touches.last().copied())
            .unwrap_or(v.producer);
        // A PEI strictly after the clobber and before the register's
        // redefinition (or at the redefining instruction itself, if that
        // instruction can trap) makes the value unrecoverable.
        let end = v.redef.map_or(nodes.len(), |rd| rd as usize + 1);
        let exposed = nodes
            .get(clobber as usize + 1..end)
            .is_some_and(|window| window.iter().any(|n| n.is_pei));
        if exposed {
            upgraded.insert(id);
        }
    }
}

/// Linear-scan conversion of strands to logical accumulators. Returns the
/// number of premature terminations; newly-spilled values are added to
/// `upgraded` (forcing a re-plan).
fn assign_accumulators(
    df: &Dataflow,
    f: &mut Formation,
    upgraded: &mut ValueSet,
    acc_count: usize,
) -> u32 {
    let mut terminations = 0u32;
    // Per strand, the accumulator it holds; the active strands as
    // (strand, accumulator, next-touch cursor); the free accumulators,
    // next to allocate last.
    let mut strand_acc: Vec<Option<u8>> = vec![None; f.strand_count as usize];
    let mut active: Vec<(u32, u8, usize)> = Vec::with_capacity(acc_count);
    let mut free: Vec<u8> = (0..acc_count as u8).rev().collect();

    for i in 0..f.node_strand.len() {
        // Expire strands whose last touch has passed.
        active.retain(|&(s, acc, cursor)| {
            if cursor >= f.touches_of(s).len() {
                free.push(acc);
                false
            } else {
                true
            }
        });
        let Some(s) = f.node_strand[i] else { continue };
        let su = s as usize;
        if strand_acc[su].is_none() {
            // Strand start: allocate.
            let acc = if let Some(a) = free.pop() {
                a
            } else {
                // Terminate the active strand with the farthest next touch.
                let (pos, _) = active
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(vs, _, cursor))| {
                        f.touches_of(vs).get(cursor).copied().unwrap_or(u32::MAX)
                    })
                    .expect("no free accumulator implies active strands");
                let (victim, acc, _) = active.swap_remove(pos);
                terminations += 1;
                strand_acc[victim as usize] = None;
                // Spill the victim's current (most recently produced) value
                // so the remainder of its strand re-forms from the GPR.
                if let Some(v) = last_value_of_strand(df, f, victim, i) {
                    upgraded.insert(v);
                }
                acc
            };
            strand_acc[su] = Some(acc);
            active.push((s, acc, 0));
        }
        // Advance this strand's cursor past the current touch.
        for entry in active.iter_mut() {
            if entry.0 == s {
                entry.2 += 1;
            }
        }
        f.node_acc[i] = Some(Acc::new(strand_acc[su].expect("assigned above")));
    }
    terminations
}

/// The most recent value produced by `strand` before node `before`.
fn last_value_of_strand(
    df: &Dataflow,
    f: &Formation,
    strand: u32,
    before: usize,
) -> Option<ValueId> {
    f.touches_of(strand)
        .iter()
        .filter(|&&t| (t as usize) < before)
        .rev()
        .find_map(|&t| df.produced[t as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::analyze;
    use crate::superblock::{decompose, CollectedFlow, SbEnd, SbInst, Superblock};
    use alpha_isa::{Inst, MemOp, Operand, OperateOp};
    use std::collections::HashSet;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn op(opr: OperateOp, ra: u8, rb: u8, rc: u8) -> Inst {
        Inst::Operate {
            op: opr,
            ra: r(ra),
            rb: Operand::Reg(r(rb)),
            rc: r(rc),
        }
    }

    fn plan_of(insts: Vec<Inst>, accs: usize) -> (TranslationPlan, Vec<Node>) {
        let sb = Superblock {
            start: 0x1000,
            insts: insts
                .into_iter()
                .enumerate()
                .map(|(i, inst)| SbInst {
                    vaddr: 0x1000 + (i as u64) * 4,
                    inst,
                    flow: CollectedFlow::Sequential,
                })
                .collect(),
            end: SbEnd::Halt,
        };
        let nodes = decompose(&sb);
        (plan(&nodes, &analyze(&nodes), accs, false), nodes)
    }

    #[test]
    fn figure2_loop_body_forms_expected_strands() {
        // The gzip CRC loop of the paper's Figure 2 (without the branch).
        let insts = vec![
            Inst::Mem {
                op: MemOp::Ldbu,
                ra: r(3),
                rb: r(16),
                disp: 0,
            },
            Inst::Operate {
                op: OperateOp::Subl,
                ra: r(17),
                rb: Operand::Lit(1),
                rc: r(17),
            },
            Inst::Mem {
                op: MemOp::Lda,
                ra: r(16),
                rb: r(16),
                disp: 1,
            },
            op(OperateOp::Xor, 1, 3, 3),
            Inst::Operate {
                op: OperateOp::Srl,
                ra: r(1),
                rb: Operand::Lit(8),
                rc: r(1),
            },
            Inst::Operate {
                op: OperateOp::And,
                ra: r(3),
                rb: Operand::Lit(0xff),
                rc: r(3),
            },
            op(OperateOp::S8addq, 3, 0, 3),
            Inst::Mem {
                op: MemOp::Ldq,
                ra: r(3),
                rb: r(3),
                disp: 0,
            },
            op(OperateOp::Xor, 3, 1, 1),
        ];
        let (p, nodes) = plan_of(insts, 4);
        assert_eq!(nodes.len(), 9);
        // Paper Fig. 2(c) shows four distinct strands; the linear-scan
        // allocator fits them in fewer physical accumulators by reusing
        // expired ones, and never terminates a strand prematurely.
        assert_eq!(p.strand_count, 4, "strands: {:?}", p.node_strand);
        let used: HashSet<Acc> = p.node_acc.iter().flatten().copied().collect();
        assert!(!used.is_empty() && used.len() <= 4, "accs used: {used:?}");
        assert_eq!(p.terminations, 0);
        // The A0 chain: ldbu, xor, and, s8addq, ldq all share one strand.
        let s_ldbu = p.node_strand[0];
        assert_eq!(p.node_strand[3], s_ldbu, "xor joins the load strand");
        assert_eq!(p.node_strand[5], s_ldbu);
        assert_eq!(p.node_strand[6], s_ldbu);
        assert_eq!(p.node_strand[7], s_ldbu);
        // r17-1 and r16+1 each start their own strands.
        assert_ne!(p.node_strand[1], s_ldbu);
        assert_ne!(p.node_strand[2], s_ldbu);
        assert_ne!(p.node_strand[1], p.node_strand[2]);
    }

    #[test]
    fn two_global_inputs_get_a_pre_copy() {
        // Both inputs live-in: r3 = r1 + r2 needs a copy-from-GPR.
        let (p, _) = plan_of(vec![op(OperateOp::Addq, 1, 2, 3)], 4);
        assert_eq!(p.pre_copy[0], Some(r(1)));
        assert_eq!(p.input_role[0][0], Some(Role::Acc));
        assert_eq!(p.input_role[0][1], Some(Role::Gpr(r(2))));
    }

    #[test]
    fn one_local_input_joins_strand_without_copy() {
        // r3 is overwritten at the end so its first value is Local, not
        // live-out.
        let (p, _) = plan_of(
            vec![
                op(OperateOp::Addq, 1, 2, 3),
                op(OperateOp::Addq, 3, 4, 5),
                op(OperateOp::Addq, 1, 1, 3),
            ],
            4,
        );
        assert_eq!(p.pre_copy[1], None);
        assert_eq!(p.node_strand[1], p.node_strand[0]);
        assert_eq!(p.input_role[1][0], Some(Role::Acc));
    }

    #[test]
    fn two_local_conflict_spills_one() {
        // v1 = r1+r2 (local), v2 = r3+r4 (local), v3 = v1+v2.
        let (p, _) = plan_of(
            vec![
                op(OperateOp::Addq, 1, 2, 5),
                op(OperateOp::Addq, 3, 4, 6),
                op(OperateOp::Addq, 5, 6, 7),
                // Overwrite r5/r6 so the first two values are Local.
                op(OperateOp::Addq, 1, 1, 5),
                op(OperateOp::Addq, 1, 1, 6),
            ],
            4,
        );
        // One of the two inputs of node 2 is spilled.
        let spilled = p
            .final_category
            .iter()
            .filter(|c| **c == UsageCat::Spill)
            .count();
        assert_eq!(spilled, 1);
        // Longer-strand heuristic with equal lengths keeps the first input.
        assert_eq!(p.node_strand[2], p.node_strand[0]);
        assert_eq!(p.input_role[2][0], Some(Role::Acc));
        assert!(matches!(p.input_role[2][1], Some(Role::Gpr(_))));
    }

    #[test]
    fn accumulator_exhaustion_terminates_a_strand() {
        // Five interleaved strands with only 4 accumulators: produce five
        // values, then consume all five.
        let mut insts = Vec::new();
        for k in 0..5u8 {
            insts.push(op(OperateOp::Addq, 1, 2, 10 + k)); // five new strands? no: 2 globals → pre-copy, 1 strand each
        }
        // Consume each value once so they stay Local (then overwrite).
        for k in 0..5u8 {
            insts.push(op(OperateOp::Addq, 10 + k, 1, 20 + k));
        }
        for k in 0..5u8 {
            insts.push(op(OperateOp::Addq, 1, 1, 10 + k));
        }
        for k in 0..5u8 {
            insts.push(op(OperateOp::Addq, 1, 1, 20 + k));
        }
        let (p4, _) = plan_of(insts.clone(), 4);
        assert!(
            p4.terminations > 0,
            "five live strands must not fit in four accumulators"
        );
        let (p8, _) = plan_of(insts, 8);
        assert_eq!(p8.terminations, 0, "eight accumulators suffice");
    }

    #[test]
    fn acc_count_respected() {
        for accs in [1usize, 2, 4, 8] {
            let insts: Vec<Inst> = (0..20u8)
                .map(|k| op(OperateOp::Addq, 1, 2, (k % 20) + 5))
                .collect();
            let (p, _) = plan_of(insts, accs);
            let max = p
                .node_acc
                .iter()
                .flatten()
                .map(|a| a.number())
                .max()
                .unwrap_or(0);
            assert!((max as usize) < accs, "acc {max} with limit {accs}");
        }
    }

    #[test]
    fn store_value_spilled_when_both_local() {
        let (p, _) = plan_of(
            vec![
                op(OperateOp::Addq, 1, 2, 5), // address value (local)
                op(OperateOp::Addq, 3, 4, 6), // store value (local)
                Inst::Mem {
                    op: MemOp::Stq,
                    ra: r(6),
                    rb: r(5),
                    disp: 0,
                },
                op(OperateOp::Addq, 1, 1, 5),
                op(OperateOp::Addq, 1, 1, 6),
            ],
            4,
        );
        // Store node is index 2: address stays acc, value is GPR.
        assert_eq!(p.input_role[2][0], Some(Role::Acc));
        assert_eq!(p.input_role[2][1], Some(Role::Gpr(r(6))));
        assert_eq!(p.node_strand[2], p.node_strand[0]);
    }
}
