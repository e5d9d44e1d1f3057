//! Dependence and usage identification (paper §3.3, first phase).
//!
//! Builds the def-use structure of a superblock's node list and classifies
//! every produced value's "globalness" — the paper's usage categories that
//! drive strand formation and determine how many `copy-to-GPR`
//! instructions the basic I-ISA needs:
//!
//! * **no user** — never read before being overwritten;
//! * **local** — read exactly once before being overwritten, with no
//!   fragment exit in between;
//! * **temp** — passed between the two halves of a decomposed instruction;
//! * **live-out global** — not overwritten inside the superblock;
//! * **communication global** — read more than once before overwrite;
//! * **local → global / no-user → global** — a local (or dead) value that
//!   must nevertheless be saved to a GPR because a side exit (conditional
//!   branch) intervenes before the register is overwritten (Fig. 7's extra
//!   copy categories for the basic ISA);
//! * **spill global** — upgraded during strand formation (two-local-input
//!   conflicts, accumulator exhaustion).

use crate::superblock::{Node, NodeInput};
use alpha_isa::Reg;

/// Identifier of a produced value within one superblock's dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValueId(pub u32);

/// The paper's output-value usage categories (Fig. 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UsageCat {
    /// Never used before overwrite; no exit intervenes.
    NoUser,
    /// Used once before overwrite; no exit intervenes.
    Local,
    /// A decomposition temp (always accumulator-carried).
    Temp,
    /// Not overwritten before the superblock ends.
    LiveOut,
    /// Used more than once before overwrite.
    Communication,
    /// Local, but a side exit precedes the overwrite — needs a GPR copy in
    /// the basic ISA.
    LocalToGlobal,
    /// Dead, but a side exit precedes the overwrite — needs a GPR copy in
    /// the basic ISA.
    NoUserToGlobal,
    /// Upgraded to a GPR-communicated value by strand formation.
    Spill,
}

impl UsageCat {
    /// Number of categories (the width of array-backed counters).
    pub const COUNT: usize = 8;

    /// Every category, in discriminant order (matches [`UsageCat::index`]).
    pub const ALL: [UsageCat; UsageCat::COUNT] = [
        UsageCat::NoUser,
        UsageCat::Local,
        UsageCat::Temp,
        UsageCat::LiveOut,
        UsageCat::Communication,
        UsageCat::LocalToGlobal,
        UsageCat::NoUserToGlobal,
        UsageCat::Spill,
    ];

    /// Dense index for array-backed counters (the enum discriminant).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the value must be available in a GPR (in the basic ISA this
    /// costs a `copy-to-GPR`; in the modified ISA the destination
    /// specifier covers it).
    pub fn is_global(self) -> bool {
        matches!(
            self,
            UsageCat::LiveOut
                | UsageCat::Communication
                | UsageCat::LocalToGlobal
                | UsageCat::NoUserToGlobal
                | UsageCat::Spill
        )
    }

    /// Whether the value is carried to its consumer through an accumulator.
    ///
    /// Local and temp values always are; local→global values are too (the
    /// GPR copy is only for architected state). Communication and live-out
    /// values are read back from GPRs.
    pub fn is_acc_carried(self) -> bool {
        matches!(
            self,
            UsageCat::NoUser
                | UsageCat::Local
                | UsageCat::Temp
                | UsageCat::LocalToGlobal
                | UsageCat::NoUserToGlobal
        )
    }
}

/// Value counts per usage category, backed by a [`UsageCat::index`]-indexed
/// array — one representation shared by the static (per-superblock) and
/// dynamic ([`crate::EngineStats`]) sides of the Figure 7 statistic, with no
/// per-superblock allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CategoryCounts(pub [u64; UsageCat::COUNT]);

impl CategoryCounts {
    /// Increments the count for `cat`.
    pub fn bump(&mut self, cat: UsageCat) {
        self.0[cat.index()] += 1;
    }

    /// The count for one category.
    pub fn category(&self, cat: UsageCat) -> u64 {
        self.0[cat.index()]
    }

    /// Total values counted across all categories.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(category, count)` pairs in [`UsageCat::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (UsageCat, u64)> + '_ {
        UsageCat::ALL.iter().map(move |&c| (c, self.0[c.index()]))
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &CategoryCounts) {
        for k in 0..UsageCat::COUNT {
            self.0[k] += other.0[k];
        }
    }
}

/// A resolved input operand: where the value a node reads actually comes
/// from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reaching {
    /// A value produced by an earlier node in this superblock.
    Value(ValueId),
    /// A register that is live into the superblock (read before any def).
    LiveIn(Reg),
    /// An immediate.
    Imm(i16),
}

/// One produced value's def-use record.
#[derive(Clone, Debug)]
pub struct ValueInfo {
    /// Producing node index.
    pub producer: u32,
    /// The architected register this value defines (`None` for temps).
    pub reg: Option<Reg>,
    /// How many node input slots read this value.
    pub use_count: u32,
    /// The node index that overwrites the register (`None` if the value is
    /// live past the end of the superblock). Always `None` for temps.
    pub redef: Option<u32>,
    /// Assigned usage category.
    pub category: UsageCat,
}

/// The dataflow analysis result for one superblock.
#[derive(Clone, Debug, Default)]
pub struct Dataflow {
    /// One record per produced value, in production order.
    pub values: Vec<ValueInfo>,
    /// Per node: the resolved source of each input slot.
    pub reaching: Vec<[Option<Reaching>; 3]>,
    /// Per node: the value it produces, if any.
    pub produced: Vec<Option<ValueId>>,
    /// Registers read before any definition (live-in globals).
    pub live_ins: Vec<Reg>,
}

impl Dataflow {
    /// The value record for `id`.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.0 as usize]
    }

    /// Counts values per category (the Fig. 7 statistic, static form;
    /// the VM weights these by execution counts for the dynamic figure).
    pub fn category_counts(&self) -> CategoryCounts {
        let mut out = CategoryCounts::default();
        for v in &self.values {
            out.bump(v.category);
        }
        out
    }
}

/// Builds def-use records and classifies every produced value.
///
/// `nodes` is the decomposed node list of one superblock (see
/// [`crate::decompose`]).
pub fn analyze(nodes: &[Node]) -> Dataflow {
    analyze_with(nodes, false)
}

/// [`analyze`] with **oracle boundaries** (paper §4.4's reference to the
/// ISCA 2002 oracle trace): side exits are not treated as state
/// boundaries, so no `local→global` / `no-user→global` upgrades occur and
/// only true communication and genuine live-outs are global. Statistics
/// only — code translated this way could not recover state at exits.
pub fn analyze_oracle(nodes: &[Node]) -> Dataflow {
    analyze_with(nodes, true)
}

fn analyze_with(nodes: &[Node], oracle: bool) -> Dataflow {
    let n = nodes.len();
    let mut values: Vec<ValueInfo> = Vec::with_capacity(n);
    let mut reaching: Vec<[Option<Reaching>; 3]> = vec![[None; 3]; n];
    let mut produced: Vec<Option<ValueId>> = vec![None; n];
    // Sized once: at most one live-in per register, one temp per node.
    let mut live_ins: Vec<Reg> = Vec::with_capacity(32);
    // Current definition per architected register, and per temp: temps
    // are numbered in production order, so temp `t` is `temp_def[t]`.
    let mut last_def: [Option<ValueId>; 32] = [None; 32];
    let mut temp_def: Vec<ValueId> = Vec::with_capacity(n);
    // The latest exit (side exit or final control transfer) before the
    // current node. A value's uses all precede its redefinition, so it is
    // classified at the redefining node: it crosses an exit iff the
    // latest exit lies strictly between its producer and that node.
    let mut last_exit: Option<u32> = None;

    for (i, node) in nodes.iter().enumerate() {
        // Resolve inputs against reaching definitions.
        for (slot, input) in node.inputs.iter().enumerate() {
            let Some(input) = input else { continue };
            let r = match *input {
                NodeInput::Imm(v) => Reaching::Imm(v),
                NodeInput::Temp(t) => {
                    let id = temp_def[t as usize];
                    values[id.0 as usize].use_count += 1;
                    Reaching::Value(id)
                }
                NodeInput::Reg(reg) => match last_def[reg.number() as usize] {
                    Some(id) => {
                        values[id.0 as usize].use_count += 1;
                        Reaching::Value(id)
                    }
                    None => {
                        if !live_ins.contains(&reg) {
                            live_ins.push(reg);
                        }
                        Reaching::LiveIn(reg)
                    }
                },
            };
            reaching[i][slot] = Some(r);
        }
        // Record the produced value.
        if node.produces_temp {
            let id = ValueId(values.len() as u32);
            values.push(ValueInfo {
                producer: i as u32,
                reg: None,
                use_count: 0,
                redef: None,
                category: UsageCat::Temp,
            });
            temp_def.push(id);
            produced[i] = Some(id);
        } else if let Some(reg) = node.out {
            if !reg.is_zero() {
                let id = ValueId(values.len() as u32);
                if let Some(prev) = last_def[reg.number() as usize] {
                    let v = &mut values[prev.0 as usize];
                    v.redef = Some(i as u32);
                    let crosses_exit = !oracle && last_exit.is_some_and(|e| e > v.producer);
                    v.category = match (v.use_count, crosses_exit) {
                        (2.., _) => UsageCat::Communication,
                        (1, false) => UsageCat::Local,
                        (1, true) => UsageCat::LocalToGlobal,
                        (0, false) => UsageCat::NoUser,
                        (0, true) => UsageCat::NoUserToGlobal,
                    };
                }
                values.push(ValueInfo {
                    producer: i as u32,
                    reg: Some(reg),
                    use_count: 0,
                    redef: None,
                    // Reclassified at the redefinition, if there is one.
                    category: UsageCat::LiveOut,
                });
                last_def[reg.number() as usize] = Some(id);
                produced[i] = Some(id);
            }
        }
        if node.is_exit {
            last_exit = Some(i as u32);
        }
    }
    // A value never redefined is live-out, unless it is read twice.
    for id in last_def.into_iter().flatten() {
        let v = &mut values[id.0 as usize];
        if v.use_count >= 2 {
            v.category = UsageCat::Communication;
        }
    }

    Dataflow {
        values,
        reaching,
        produced,
        live_ins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superblock::{decompose, CollectedFlow, SbEnd, SbInst, Superblock};
    use alpha_isa::{BranchOp, Inst, MemOp, Operand, OperateOp};

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

    fn build(insts: Vec<Inst>, with_exit_at: Option<usize>) -> Dataflow {
        let sb_insts: Vec<SbInst> = insts
            .into_iter()
            .enumerate()
            .map(|(i, inst)| SbInst {
                vaddr: 0x1000 + (i as u64) * 4,
                inst,
                flow: if Some(i) == with_exit_at {
                    CollectedFlow::CondNotTaken {
                        taken_target: 0x9000,
                    }
                } else {
                    CollectedFlow::Sequential
                },
            })
            .collect();
        let sb = Superblock {
            start: 0x1000,
            insts: sb_insts,
            end: SbEnd::Halt,
        };
        analyze(&decompose(&sb))
    }

    #[test]
    fn single_use_no_exit_is_local() {
        // r1 = r2+r3 ; r4 = r1+r2 ; r1 = r2+r2 (overwrite)
        let df = build(
            vec![
                op(OperateOp::Addq, 2, 3, 1),
                op(OperateOp::Addq, 1, 2, 4),
                op(OperateOp::Addq, 2, 2, 1),
            ],
            None,
        );
        let v0 = &df.values[0];
        assert_eq!(v0.reg, Some(r(1)));
        assert_eq!(v0.use_count, 1);
        assert_eq!(v0.redef, Some(2));
        assert_eq!(v0.category, UsageCat::Local);
    }

    #[test]
    fn double_use_is_communication() {
        let df = build(
            vec![
                op(OperateOp::Addq, 2, 3, 1),
                op(OperateOp::Addq, 1, 2, 4),
                op(OperateOp::Addq, 1, 3, 5),
                op(OperateOp::Addq, 2, 2, 1),
            ],
            None,
        );
        assert_eq!(df.values[0].category, UsageCat::Communication);
    }

    #[test]
    fn unredefined_value_is_liveout() {
        let df = build(vec![op(OperateOp::Addq, 2, 3, 1)], None);
        assert_eq!(df.values[0].category, UsageCat::LiveOut);
    }

    #[test]
    fn exit_before_overwrite_upgrades_local() {
        // r1 = r2+r3 ; use r1 ; [cond branch exit] ; r1 = ...
        let df = build(
            vec![
                op(OperateOp::Addq, 2, 3, 1),
                op(OperateOp::Addq, 1, 2, 4),
                Inst::Branch {
                    op: BranchOp::Beq,
                    ra: r(5),
                    disp: 8,
                },
                op(OperateOp::Addq, 2, 2, 1),
            ],
            Some(2),
        );
        assert_eq!(df.values[0].category, UsageCat::LocalToGlobal);
        // The branch-condition producer is elsewhere (live-in r5).
        assert!(df.live_ins.contains(&r(5)));
    }

    #[test]
    fn dead_value_categories() {
        let df = build(
            vec![
                op(OperateOp::Addq, 2, 3, 1), // dead: overwritten next
                op(OperateOp::Addq, 2, 2, 1),
            ],
            None,
        );
        assert_eq!(df.values[0].category, UsageCat::NoUser);
    }

    #[test]
    fn temps_from_memory_decomposition() {
        let df = build(
            vec![Inst::Mem {
                op: MemOp::Ldq,
                ra: r(1),
                rb: r(2),
                disp: 8,
            }],
            None,
        );
        // Two values: the address temp and the load result.
        assert_eq!(df.values.len(), 2);
        assert_eq!(df.values[0].category, UsageCat::Temp);
        assert_eq!(df.values[0].use_count, 1);
        assert_eq!(df.values[1].category, UsageCat::LiveOut);
    }

    #[test]
    fn live_ins_recorded_once() {
        let df = build(
            vec![op(OperateOp::Addq, 2, 3, 1), op(OperateOp::Addq, 2, 3, 4)],
            None,
        );
        assert_eq!(df.live_ins, vec![r(2), r(3)]);
    }

    #[test]
    fn category_counts_sum_to_values() {
        let df = build(
            vec![
                op(OperateOp::Addq, 2, 3, 1),
                op(OperateOp::Addq, 1, 2, 4),
                op(OperateOp::Addq, 2, 2, 1),
            ],
            None,
        );
        let counts = df.category_counts();
        assert_eq!(counts.total(), df.values.len() as u64);
        let itemized: u64 = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(itemized, counts.total());
    }

    #[test]
    fn globalness_predicates() {
        assert!(UsageCat::Communication.is_global());
        assert!(UsageCat::LocalToGlobal.is_global());
        assert!(!UsageCat::Local.is_global());
        assert!(UsageCat::Local.is_acc_carried());
        assert!(UsageCat::LocalToGlobal.is_acc_carried());
        assert!(!UsageCat::Communication.is_acc_carried());
        assert!(UsageCat::Temp.is_acc_carried());
    }
}
