//! Pass 1 — accumulator discipline (rules `A01`–`A06`).
//!
//! Abstract interpretation over the emitted instruction stream, tracking
//! what every accumulator holds (a planned dataflow value, a
//! strand-starting GPR copy, chaining scratch, or garbage) and which
//! strand wrote it. The pass proves:
//!
//! * `A01` — each instruction names the accumulator the plan assigned to
//!   its node;
//! * `A02` — the instruction's shape and operands match the node and the
//!   planned delivery roles (accumulator / GPR / immediate per slot);
//! * `A03` — an accumulator read observes a value written by the
//!   reader's own strand (no cross-strand leakage between kills);
//! * `A04` — the value observed is exactly the reaching definition the
//!   dataflow analysis resolved for that operand;
//! * `A05` — strand-starting `copy-from-GPR` instructions copy from the
//!   planned register;
//! * `A06` — every instruction is structurally encodable in the target
//!   ISA form.

use crate::Violation;
use alpha_isa::{MemOp, OperateOp, PalFunc, Reg};
use ildp_core::{
    Node, NodeOp, Reaching, Role, TranslatedCode, TranslationTrace, Translator, ValueId,
};
use ildp_isa::{ASrc, Acc, IInst, MemWidth};

/// Abstract contents of one accumulator.
#[derive(Clone, Copy, PartialEq, Debug)]
enum AccVal {
    /// Never written in this fragment.
    Uninit,
    /// Holds a planned dataflow value.
    Value(ValueId),
    /// Holds a strand-starting copy from a GPR.
    FromGpr(Reg),
    /// Holds chaining scratch (embedded target, compare result).
    Chain,
    /// Holds an architecturally meaningless result (NOP credit).
    Scratch,
}

fn width_of(op: MemOp) -> MemWidth {
    match op {
        MemOp::Ldbu | MemOp::Stb => MemWidth::U8,
        MemOp::Ldwu | MemOp::Stw => MemWidth::U16,
        MemOp::Ldl | MemOp::Stl => MemWidth::I32,
        MemOp::Ldq | MemOp::Stq => MemWidth::U64,
        MemOp::Lda | MemOp::Ldah => unreachable!("address arithmetic is not memory"),
    }
}

fn role_asrc(role: Role) -> ASrc {
    match role {
        Role::Acc => ASrc::Acc,
        Role::Gpr(r) => ASrc::Gpr(r),
        Role::Imm(v) => ASrc::Imm(v),
    }
}

/// The accumulator-read operands of a node's main instruction (at most
/// two), paired with the node input slot their reaching definition lives
/// in. The boolean marks implicit reads (the cmov-select test) that have
/// no explicit operand field to role-check.
fn read_slots(node: &Node, inst: &IInst) -> [Option<(ASrc, usize, bool)>; 2] {
    let one = |src| [Some((src, 0, false)), None];
    match (*inst, node.op) {
        (IInst::Op { lhs, rhs, .. }, NodeOp::Alu(_)) => {
            [Some((lhs, 0, false)), Some((rhs, 1, false))]
        }
        (IInst::Op { lhs, .. }, NodeOp::AddImm) => one(lhs),
        (IInst::Op { .. }, NodeOp::Pal(_)) => [None; 2],
        (IInst::AddHigh { src, .. }, _) => one(src),
        (IInst::Load { addr, .. }, _) => one(addr),
        (IInst::Store { addr, value, .. }, _) => [Some((addr, 0, false)), Some((value, 1, false))],
        (IInst::CmovSelect { value, .. }, _) => {
            [Some((ASrc::Acc, 0, true)), Some((value, 1, false))]
        }
        (IInst::CallTranslatorIfCond { src, .. }, NodeOp::CondBranch(_)) => one(src),
        (IInst::PutChar { src, .. }, _) => one(src),
        (IInst::IndirectJump { addr, .. }, _) => one(addr),
        (IInst::Dispatch { src, .. }, _) => one(src),
        _ => [None; 2],
    }
}

/// Checks that the main instruction emitted for `node` has the expected
/// kind and fixed fields (operation, displacement, width, polarity).
fn check_shape(
    t: &TranslationTrace,
    node: &Node,
    i: usize,
    inst: &IInst,
    k: usize,
    vstart: u64,
    out: &mut Vec<Violation>,
) {
    let mismatch = |out: &mut Vec<Violation>, expected: String| {
        out.push(Violation::new(
            "A02",
            vstart,
            Some(k),
            expected,
            format!("{inst:?}"),
        ));
    };
    match node.op {
        NodeOp::Alu(nop) => match *inst {
            IInst::Op { op, .. } if op == nop => {}
            _ => mismatch(out, format!("Op {nop:?} for node {i}")),
        },
        NodeOp::AddImm => match *inst {
            IInst::Op {
                op: OperateOp::Addq,
                rhs,
                ..
            } if rhs == ASrc::Imm(node.imm) => {}
            _ => mismatch(out, format!("Op Addq with Imm({}) for node {i}", node.imm)),
        },
        NodeOp::AddHigh => match *inst {
            IInst::AddHigh { imm, .. } if imm == node.imm => {}
            _ => mismatch(out, format!("AddHigh with imm {} for node {i}", node.imm)),
        },
        NodeOp::Load(mop) => match *inst {
            IInst::Load { width, disp, .. } if width == width_of(mop) && disp == node.imm => {}
            _ => mismatch(
                out,
                format!("Load {:?} disp {} for node {i}", width_of(mop), node.imm),
            ),
        },
        NodeOp::Store(mop) => match *inst {
            IInst::Store { width, disp, .. } if width == width_of(mop) && disp == node.imm => {}
            _ => mismatch(
                out,
                format!("Store {:?} disp {} for node {i}", width_of(mop), node.imm),
            ),
        },
        NodeOp::CmovSelect(sel) => {
            let want_lbs = sel == OperateOp::Cmovlbs;
            let want_old = t.df.produced[i].and_then(|v| t.df.value(v).reg);
            match *inst {
                IInst::CmovSelect { lbs, old, .. } if lbs == want_lbs && Some(old) == want_old => {}
                _ => mismatch(
                    out,
                    format!("CmovSelect lbs={want_lbs} old={want_old:?} for node {i}"),
                ),
            }
        }
        NodeOp::CondBranch(_) => match *inst {
            IInst::CallTranslatorIfCond { .. } => {}
            _ => mismatch(out, format!("CallTranslatorIfCond for branch node {i}")),
        },
        NodeOp::CallSave => match *inst {
            IInst::SaveVReturn { dst, vaddr }
                if Some(dst) == node.out && vaddr == node.vaddr + 4 => {}
            _ => mismatch(
                out,
                format!(
                    "SaveVReturn {:?} vret {:#x} for node {i}",
                    node.out,
                    node.vaddr + 4
                ),
            ),
        },
        NodeOp::IndirectJump(_) => match *inst {
            IInst::IndirectJump { .. } | IInst::Dispatch { .. } => {}
            _ => mismatch(out, format!("IndirectJump or Dispatch for node {i}")),
        },
        NodeOp::Pal(func) => {
            let ok = match func {
                PalFunc::Halt => matches!(inst, IInst::Halt),
                PalFunc::GenTrap => matches!(inst, IInst::GenTrap),
                PalFunc::PutChar => matches!(inst, IInst::PutChar { .. }),
                PalFunc::Other(_) => matches!(
                    inst,
                    IInst::Op {
                        op: OperateOp::Bis,
                        lhs: ASrc::Imm(0),
                        rhs: ASrc::Imm(0),
                        dst: None,
                        ..
                    }
                ),
            };
            if !ok {
                mismatch(
                    out,
                    format!("translation of CALL_PAL {func:?} for node {i}"),
                );
            }
        }
    }
}

pub(crate) fn check(code: &TranslatedCode, tr: &Translator, out: &mut Vec<Violation>) {
    let t = &code.trace;
    let vstart = code.vstart;
    let mut vals = [AccVal::Uninit; Acc::MAX_ACCUMULATORS];
    let mut strands: [Option<u32>; Acc::MAX_ACCUMULATORS] = [None; Acc::MAX_ACCUMULATORS];

    // Reading `acc` must observe `expected` (the reaching definition the
    // analysis resolved), written by `reader_strand`.
    let check_read = |vals: &[AccVal],
                      strands: &[Option<u32>],
                      acc: Acc,
                      expected: Option<Reaching>,
                      reader_strand: Option<u32>,
                      pre_copy: Option<Reg>,
                      k: usize,
                      out: &mut Vec<Violation>| {
        let held = vals[acc.index()];
        match held {
            AccVal::Value(id) => {
                if !matches!(expected, Some(Reaching::Value(eid)) if eid == id) {
                    out.push(Violation::new(
                        "A04",
                        vstart,
                        Some(k),
                        format!("{acc} holding {expected:?}"),
                        format!("{acc} holding {held:?}"),
                    ));
                } else if strands[acc.index()] != reader_strand {
                    out.push(Violation::new(
                        "A03",
                        vstart,
                        Some(k),
                        format!("{acc} written by strand {reader_strand:?}"),
                        format!("{acc} written by strand {:?}", strands[acc.index()]),
                    ));
                }
            }
            AccVal::FromGpr(r) => {
                let source_matches = match expected {
                    Some(Reaching::LiveIn(rr)) => rr == r,
                    Some(Reaching::Value(id)) => t.df.value(id).reg == Some(r),
                    _ => false,
                };
                if !source_matches || pre_copy != Some(r) {
                    out.push(Violation::new(
                        "A04",
                        vstart,
                        Some(k),
                        format!("{acc} holding {expected:?} (pre-copy {pre_copy:?})"),
                        format!("{acc} holding copy of {r}"),
                    ));
                }
            }
            AccVal::Chain | AccVal::Scratch | AccVal::Uninit => {
                out.push(Violation::new(
                    "A04",
                    vstart,
                    Some(k),
                    format!("{acc} holding {expected:?}"),
                    format!("{acc} holding {held:?}"),
                ));
            }
        }
    };

    for (k, inst) in code.insts.iter().enumerate() {
        if code.meta[k].is_chain {
            // Chaining code owns its accumulator as scratch; the shape is
            // pass 3's concern. Track the kill so later reads are flagged.
            match *inst {
                IInst::LoadEmbeddedTarget { acc, .. } | IInst::Op { acc, .. } => {
                    vals[acc.index()] = AccVal::Chain;
                    strands[acc.index()] = None;
                }
                _ => {}
            }
            continue;
        }
        let Some(i) = t.inst_node[k].map(|i| i as usize) else {
            continue; // the leading SetVpcBase
        };
        let node = &t.nodes[i];
        let planned_acc = t.plan.node_acc[i].unwrap_or(Acc::new(0));
        let strand = t.plan.node_strand[i];

        if let Err(e) = inst.validate(tr.form) {
            out.push(Violation::new(
                "A06",
                vstart,
                Some(k),
                format!("{:?}-form encodable instruction", tr.form),
                format!("{inst:?}: {e}"),
            ));
        }
        if let Some(a) = inst.acc() {
            if a != planned_acc {
                out.push(Violation::new(
                    "A01",
                    vstart,
                    Some(k),
                    format!("{planned_acc} (planned for node {i})"),
                    format!("{a}"),
                ));
            }
        }

        match *inst {
            IInst::CopyFromGpr { acc, src } => {
                if t.plan.pre_copy[i] != Some(src) {
                    out.push(Violation::new(
                        "A05",
                        vstart,
                        Some(k),
                        format!("copy-from-GPR of {:?} (planned)", t.plan.pre_copy[i]),
                        format!("copy-from-GPR of {src}"),
                    ));
                }
                vals[acc.index()] = AccVal::FromGpr(src);
                strands[acc.index()] = strand;
            }
            IInst::CopyToGpr { acc, .. } => {
                // Post-copy: must read the value node `i` just produced.
                let expected = t.df.produced[i].map(Reaching::Value);
                check_read(&vals, &strands, acc, expected, strand, None, k, out);
            }
            _ => {
                check_shape(t, node, i, inst, k, vstart, out);
                for (operand, slot, implicit) in read_slots(node, inst).into_iter().flatten() {
                    if !implicit {
                        if let Some(role) = t.plan.input_role[i][slot] {
                            let want = role_asrc(role);
                            if operand != want {
                                out.push(Violation::new(
                                    "A02",
                                    vstart,
                                    Some(k),
                                    format!("operand {want:?} (role for node {i} slot {slot})"),
                                    format!("{operand:?}"),
                                ));
                            }
                        }
                    }
                    if operand == ASrc::Acc {
                        let acc = inst.acc().unwrap_or(Acc::new(0));
                        let expected = t.df.reaching[i][slot];
                        check_read(
                            &vals,
                            &strands,
                            acc,
                            expected,
                            strand,
                            t.plan.pre_copy[i],
                            k,
                            out,
                        );
                    }
                }
                if inst.writes_acc() {
                    let a = inst.acc().expect("acc-writing instruction names one");
                    vals[a.index()] = match t.df.produced[i] {
                        Some(v) => AccVal::Value(v),
                        None => AccVal::Scratch,
                    };
                    strands[a.index()] = strand;
                }
            }
        }
    }
}
