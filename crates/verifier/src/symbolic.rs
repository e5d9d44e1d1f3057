//! Pass 4 — symbolic equivalence (rules `E01`–`E07`).
//!
//! A symbolic evaluator runs the source Alpha superblock and the emitted
//! I-ISA fragment side by side over symbolic initial registers and
//! memory, then proves the two produce identical machines:
//!
//! * `E01` — at every exit, each architected register holds the same
//!   symbolic expression on both sides;
//! * `E02` — exit conditions (branch condition source, indirect target)
//!   are the same expressions;
//! * `E03` — the fragments expose the same exits, in the same order,
//!   with the same static targets;
//! * `E04` — identical memory effect logs (loads and stores: width,
//!   address, stored value, interleaving);
//! * `E05` — identical output-port effects;
//! * `E06` — at every potentially-trapping instruction, the recoverable
//!   precise state equals the Alpha state at that point;
//! * `E07` — the fragment is not pre-install code: it contains an
//!   already-resolved branch (nothing to prove against; install-time
//!   patching is pass 3's domain) or a carried Alpha control transfer
//!   (the straightened form carries non-control instructions only).
//!
//! A straightened-form fragment carries non-control Alpha instructions
//! unchanged; the fragment walk evaluates each with the source walk's own
//! per-instruction semantics ([`alpha_step`]).
//!
//! Both walks intern every expression into one hash-consing [`Arena`]
//! per check, through normalizing smart constructors (constant folding,
//! `x + 0` / `x | 0` identities). A correct translation therefore yields
//! structurally identical expressions even where the emitter simplified,
//! and structurally identical expressions are the same [`Id`]: every
//! comparison below is an integer compare.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::Violation;
use alpha_isa::{Inst, MemOp, Operand, OperateOp, PageHasher, PalFunc, Reg};
use ildp_core::{CollectedFlow, SbEnd, Superblock, TranslatedCode, Translator};
use ildp_isa::{ASrc, CondKind, IInst, MemWidth};

/// Index of an interned expression in its [`Arena`].
type Id = u32;

/// A symbolic 64-bit value; children are [`Id`]s in the same arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    /// Initial (live-in) value of an architected register.
    Init(u8),
    /// An accumulator read before any write (only reachable through a
    /// miscompiled fragment; never equal to anything the Alpha side has).
    Undef(u8),
    /// A known constant.
    Const(u64),
    /// An ALU operation.
    Op(OperateOp, Id, Id),
    /// A raw (undecomposed) conditional move, as the engine's defensive
    /// `Op` path computes it.
    CmovRaw(OperateOp, Id, Id, Id),
    /// The decomposed conditional-move select.
    Select {
        lbs: bool,
        test: Id,
        value: Id,
        old: Id,
    },
    /// The `serial`-th memory load of the block.
    Load {
        serial: u32,
        width: MemWidth,
        addr: Id,
    },
    /// Jump-target alignment mask (`x & !3`).
    AndNot3(Id),
}

/// A register file: one expression per architected register. Snapshots
/// (exits, trap points) are plain copies.
type Regs = [Id; 32];

/// The initial register file: [`Arena::new`] interns `Init(r)` at id `r`
/// and the zero register's `Const(0)` at id 31.
fn init_regs() -> Regs {
    std::array::from_fn(|r| r as Id)
}

/// [`Expr::Const`]`(0)`'s id.
const ZERO: Id = 31;

/// [`Expr::Undef`]`(0)`'s id; accumulator `a` starts at `UNDEF + a`.
const UNDEF: Id = 32;

/// The hash-consing store of one [`check`]: every expression either walk
/// builds is interned exactly once, so structural equality is id
/// equality and common subterms are shared. Expressions form a DAG whose
/// *tree* unfolding can be exponentially larger (a merged, unrolled
/// region block doubles a value per step), so nothing here recurses
/// structurally except the depth-bounded [`Show`].
struct Arena {
    nodes: Vec<Expr>,
    index: HashMap<Expr, Id, BuildHasherDefault<PageHasher>>,
}

impl Arena {
    /// An arena sized for a block of `insts` source instructions (a walk
    /// interns about one expression per instruction), seeded with the
    /// initial register and accumulator values. The seeds bypass the
    /// index: no constructor builds `Init` or `Undef`, and [`Arena::cnst`]
    /// maps 0 to [`ZERO`].
    fn new(insts: usize) -> Arena {
        let mut nodes = Vec::with_capacity(64 + 2 * insts);
        nodes.extend((0..31).map(Expr::Init));
        nodes.push(Expr::Const(0));
        nodes.extend((0..16).map(Expr::Undef));
        let index = HashMap::with_capacity_and_hasher(2 * insts, Default::default());
        Arena { nodes, index }
    }

    fn intern(&mut self, e: Expr) -> Id {
        let nodes = &mut self.nodes;
        *self.index.entry(e).or_insert_with(|| {
            nodes.push(e);
            (nodes.len() - 1) as Id
        })
    }

    fn cnst(&mut self, v: u64) -> Id {
        match v {
            0 => ZERO,
            _ => self.intern(Expr::Const(v)),
        }
    }

    /// Normalizing ALU constructor shared by both walks.
    fn op(&mut self, op: OperateOp, a: Id, b: Id) -> Id {
        if !op.is_cmov() {
            let (ea, eb) = (self.nodes[a as usize], self.nodes[b as usize]);
            if let (Expr::Const(x), Expr::Const(y)) = (ea, eb) {
                return self.cnst(op.eval(x, y));
            }
            match op {
                OperateOp::Addq | OperateOp::Bis if b == ZERO => return a,
                OperateOp::Bis if a == ZERO => return b,
                _ => {}
            }
        }
        self.intern(Expr::Op(op, a, b))
    }

    /// `base + imm` with the immediate already widened to 64 bits.
    fn add_imm(&mut self, base: Id, imm: u64) -> Id {
        let imm = self.cnst(imm);
        self.op(OperateOp::Addq, base, imm)
    }

    fn and_not3(&mut self, e: Id) -> Id {
        match self.nodes[e as usize] {
            Expr::Const(v) => self.cnst(v & !3),
            _ => self.intern(Expr::AndNot3(e)),
        }
    }

    /// `id` rendered for a diagnostic.
    fn show(&self, id: Id) -> Show<'_> {
        Show(self, id, 0)
    }
}

/// Print depth past which [`Show`] elides subtrees with `…`.
const DEBUG_DEPTH: usize = 8;

/// Depth-bounded `Debug` rendering of an arena expression: the
/// expression and its depth below the rendered root.
struct Show<'a>(&'a Arena, Id, usize);

impl fmt::Debug for Show<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Show(arena, id, depth) = *self;
        if depth > DEBUG_DEPTH {
            return write!(f, "…");
        }
        let sub = |id| Show(arena, id, depth + 1);
        match arena.nodes[id as usize] {
            Expr::Init(r) => write!(f, "Init({r})"),
            Expr::Undef(a) => write!(f, "Undef({a})"),
            Expr::Const(v) => write!(f, "Const({v:#x})"),
            Expr::Op(op, a, b) => write!(f, "Op({op:?}, {:?}, {:?})", sub(a), sub(b)),
            Expr::CmovRaw(op, a, b, old) => {
                let (a, b, old) = (sub(a), sub(b), sub(old));
                write!(f, "CmovRaw({op:?}, {a:?}, {b:?}, {old:?})")
            }
            Expr::Select {
                lbs,
                test,
                value,
                old,
            } => {
                let (t, v, o) = (sub(test), sub(value), sub(old));
                write!(
                    f,
                    "Select {{ lbs: {lbs}, test: {t:?}, value: {v:?}, old: {o:?} }}"
                )
            }
            Expr::Load {
                serial,
                width,
                addr,
            } => {
                let a = sub(addr);
                write!(
                    f,
                    "Load {{ serial: {serial}, width: {width:?}, addr: {a:?} }}"
                )
            }
            Expr::AndNot3(e) => write!(f, "AndNot3({:?})", sub(e)),
        }
    }
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

/// Independent restatement of the cmov decomposition the front end uses:
/// `(test_op, test_imm, low-bit-set polarity)`.
fn cmov_split(op: OperateOp) -> (OperateOp, i16, bool) {
    use OperateOp::*;
    match op {
        Cmoveq => (Cmpeq, 0, true),
        Cmovne => (Cmpeq, 0, false),
        Cmovlt => (Cmplt, 0, true),
        Cmovge => (Cmplt, 0, false),
        Cmovle => (Cmple, 0, true),
        Cmovgt => (Cmple, 0, false),
        Cmovlbs => (And, 1, true),
        Cmovlbc => (And, 1, false),
        other => panic!("not a cmov: {other:?}"),
    }
}

/// How a walk left the block at one exit point: its static skeleton.
#[derive(PartialEq)]
enum ExitKind {
    /// Conditional side exit to a static target.
    Cond { cond: CondKind, target: u64 },
    /// Unconditional exit to a static target.
    Always { target: u64 },
    /// Register-indirect exit.
    Indirect,
    /// Architected halt.
    Halt,
}

struct Exit {
    /// Emitted-instruction index on the I side (0 for the Alpha side).
    at: usize,
    kind: ExitKind,
    /// The condition source of a `Cond` exit, the target of an
    /// `Indirect` one.
    operand: Option<Id>,
    regs: Regs,
    stores_before: usize,
    loads_before: usize,
    outs_before: usize,
}

struct StoreRec {
    at: usize,
    width: MemWidth,
    addr: Id,
    value: Id,
}

struct LoadRec {
    at: usize,
    width: MemWidth,
    addr: Id,
    stores_before: usize,
}

struct PeiRec {
    at: usize,
    regs: Regs,
}

/// Everything observable a walk produced.
#[derive(Default)]
struct Effects {
    exits: Vec<Exit>,
    stores: Vec<StoreRec>,
    loads: Vec<LoadRec>,
    outs: Vec<(usize, Id)>,
    peis: Vec<PeiRec>,
}

impl Effects {
    fn exit(&mut self, at: usize, kind: ExitKind, operand: Option<Id>, regs: &Regs) {
        self.exits.push(Exit {
            at,
            kind,
            operand,
            regs: *regs,
            stores_before: self.stores.len(),
            loads_before: self.loads.len(),
            outs_before: self.outs.len(),
        });
    }
}

fn read(regs: &Regs, r: Reg) -> Id {
    regs[r.number() as usize]
}

fn write(regs: &mut Regs, r: Reg, e: Id) {
    if r.number() != 31 {
        regs[r.number() as usize] = e;
    }
}

/// Symbolically executes the source superblock along its collected path.
fn walk_alpha(sb: &Superblock, ar: &mut Arena) -> Effects {
    let mut fx = Effects::default();
    let mut regs = init_regs();

    for (idx, si) in sb.insts.iter().enumerate() {
        let va = si.vaddr;
        let last = idx + 1 == sb.insts.len();
        match si.inst {
            Inst::Branch { op, ra, .. } => {
                let src = Some(read(&regs, ra));
                let cond = |op, target| ExitKind::Cond {
                    cond: CondKind::from_branch_op(op),
                    target,
                };
                match si.flow {
                    CollectedFlow::Direct { links: true, .. } => {
                        let e = ar.cnst(va + 4);
                        write(&mut regs, ra, e);
                    }
                    CollectedFlow::CondNotTaken { taken_target } => {
                        fx.exit(0, cond(op, taken_target), src, &regs);
                    }
                    CollectedFlow::CondTaken {
                        taken_target,
                        fallthrough,
                    } => {
                        if last && matches!(sb.end, SbEnd::BackwardTakenBranch { .. }) {
                            fx.exit(0, cond(op, taken_target), src, &regs);
                            let always = ExitKind::Always {
                                target: fallthrough,
                            };
                            fx.exit(0, always, None, &regs);
                        } else {
                            fx.exit(0, cond(op.inverse(), fallthrough), src, &regs);
                        }
                    }
                    _ => {}
                }
            }
            Inst::Jump { ra, rb, .. } => {
                // Target is read before the link write (`jsr ra,(ra)`).
                let target = ar.and_not3(read(&regs, rb));
                let link = ar.cnst(va + 4);
                write(&mut regs, ra, link);
                fx.exit(0, ExitKind::Indirect, Some(target), &regs);
            }
            inst => alpha_step(inst, 0, &mut regs, &mut fx, ar),
        }
    }
    match sb.end {
        SbEnd::Cycle { next } | SbEnd::MaxSize { next } => {
            fx.exit(0, ExitKind::Always { target: next }, None, &regs);
        }
        _ => {}
    }
    fx
}

/// Symbolically executes one non-control Alpha instruction at emitted
/// slot `at` (0 on the source side). The source walk and the
/// straightened form's carried instructions share it, so a carried
/// instruction is proved against the very semantics it was copied from.
fn alpha_step(inst: Inst, at: usize, regs: &mut Regs, fx: &mut Effects, ar: &mut Arena) {
    match inst {
        Inst::Mem { op, ra, rb, disp } => match op {
            MemOp::Lda => {
                let e = ar.add_imm(read(regs, rb), disp as i64 as u64);
                write(regs, ra, e);
            }
            MemOp::Ldah => {
                let e = ar.add_imm(read(regs, rb), ((disp as i64) << 16) as u64);
                write(regs, ra, e);
            }
            _ => {
                fx.peis.push(PeiRec { at, regs: *regs });
                let addr = ar.add_imm(read(regs, rb), disp as i64 as u64);
                let width = width_of(op);
                if op.is_load() {
                    let serial = fx.loads.len() as u32;
                    fx.loads.push(LoadRec {
                        at,
                        width,
                        addr,
                        stores_before: fx.stores.len(),
                    });
                    let e = ar.intern(Expr::Load {
                        serial,
                        width,
                        addr,
                    });
                    write(regs, ra, e);
                } else {
                    fx.stores.push(StoreRec {
                        at,
                        width,
                        addr,
                        value: read(regs, ra),
                    });
                }
            }
        },
        Inst::Operate { op, ra, rb, rc } => {
            let b = match rb {
                Operand::Reg(r) => read(regs, r),
                Operand::Lit(v) => ar.cnst(v as u64),
            };
            if op.is_cmov() {
                // Mirror the front end's test/select decomposition so
                // expressions match the fragment structurally.
                let (test_op, test_imm, lbs) = cmov_split(op);
                let imm = ar.cnst(test_imm as i64 as u64);
                let test = ar.op(test_op, read(regs, ra), imm);
                let sel = ar.intern(Expr::Select {
                    lbs,
                    test,
                    value: b,
                    old: read(regs, rc),
                });
                write(regs, rc, sel);
            } else {
                let e = ar.op(op, read(regs, ra), b);
                write(regs, rc, e);
            }
        }
        Inst::CallPal { func } => match func {
            PalFunc::Halt => fx.exit(at, ExitKind::Halt, None, regs),
            PalFunc::GenTrap => fx.peis.push(PeiRec { at, regs: *regs }),
            PalFunc::PutChar => fx.outs.push((at, read(regs, Reg::A0))),
            PalFunc::Other(_) => {}
        },
        // Traps before retiring; never collected into a superblock.
        Inst::Unimplemented { .. } => {}
        Inst::Branch { .. } | Inst::Jump { .. } => {
            unreachable!("control transfers are walked by their callers")
        }
    }
}

/// Symbolically executes the emitted fragment, mirroring the engine's
/// concrete semantics expression-for-expression. Returns `None` when the
/// code is not a pre-install fragment (`E07`).
fn walk_fragment(
    code: &TranslatedCode,
    ar: &mut Arena,
    out: &mut Vec<Violation>,
) -> Option<Effects> {
    let mut fx = Effects::default();
    let mut regs = init_regs();
    let mut accs: [Id; 16] = std::array::from_fn(|a| UNDEF + a as Id);

    let insts = &code.insts;
    let mut k = 0usize;
    while k < insts.len() {
        // Resolve an operand against the instruction's named accumulator.
        macro_rules! v {
            ($src:expr, $acc:expr) => {
                match $src {
                    ASrc::Acc => accs[$acc.index()],
                    ASrc::Gpr(r) => read(&regs, r),
                    ASrc::Imm(v) => ar.cnst(v as i64 as u64),
                }
            };
        }
        let mut pei_check = |k: usize, regs: &Regs, accs: &[Id; 16]| {
            let mut recovered = *regs;
            if let Some(entries) = code.recovery.get(&(k as u32)) {
                for e in entries {
                    recovered[e.reg.number() as usize] = accs[e.acc.index()];
                }
            }
            fx.peis.push(PeiRec {
                at: k,
                regs: recovered,
            });
        };

        match insts[k] {
            IInst::SetVpcBase { .. } | IInst::PushDualRas { .. } => {}
            IInst::LoadEmbeddedTarget { acc, vaddr } => {
                // The software-prediction group collapses to one
                // architectural indirect exit.
                let group_rhs = match insts.get(k + 1) {
                    Some(&IInst::Op {
                        op: OperateOp::Cmpeq,
                        acc: a,
                        lhs: ASrc::Acc,
                        rhs,
                        dst: None,
                    }) if a == acc
                        && matches!(
                            insts.get(k + 2),
                            Some(&IInst::CallTranslatorIfCond {
                                cond: CondKind::Ne,
                                acc: a2,
                                src: ASrc::Acc,
                                vtarget,
                            }) if a2 == acc && vtarget == vaddr
                        )
                        && matches!(
                            insts.get(k + 3),
                            Some(&IInst::Dispatch { src, .. }) if src == rhs
                        ) =>
                    {
                        Some(rhs)
                    }
                    _ => None,
                };
                if let Some(rhs) = group_rhs {
                    let target = v!(rhs, acc);
                    let target = ar.and_not3(target);
                    fx.exit(k, ExitKind::Indirect, Some(target), &regs);
                    k += 4;
                    continue;
                }
                accs[acc.index()] = ar.cnst(vaddr);
            }
            IInst::Op {
                op,
                acc,
                lhs,
                rhs,
                dst,
            } => {
                let a = v!(lhs, acc);
                let b = v!(rhs, acc);
                let result = if op.is_cmov() {
                    ar.intern(Expr::CmovRaw(op, a, b, accs[acc.index()]))
                } else {
                    ar.op(op, a, b)
                };
                accs[acc.index()] = result;
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::AddHigh { acc, src, imm, dst } => {
                let src = v!(src, acc);
                let result = ar.add_imm(src, ((imm as i64) << 16) as u64);
                accs[acc.index()] = result;
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::Load {
                width,
                acc,
                addr,
                disp,
                dst,
            } => {
                pei_check(k, &regs, &accs);
                let base = v!(addr, acc);
                let addr = ar.add_imm(base, disp as i64 as u64);
                let serial = fx.loads.len() as u32;
                fx.loads.push(LoadRec {
                    at: k,
                    width,
                    addr,
                    stores_before: fx.stores.len(),
                });
                let result = ar.intern(Expr::Load {
                    serial,
                    width,
                    addr,
                });
                accs[acc.index()] = result;
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::Store {
                width,
                acc,
                addr,
                disp,
                value,
            } => {
                pei_check(k, &regs, &accs);
                let base = v!(addr, acc);
                let addr = ar.add_imm(base, disp as i64 as u64);
                let value = v!(value, acc);
                fx.stores.push(StoreRec {
                    at: k,
                    width,
                    addr,
                    value,
                });
            }
            IInst::CmovSelect {
                lbs,
                acc,
                value,
                old,
                dst,
            } => {
                let value = v!(value, acc);
                let sel = ar.intern(Expr::Select {
                    lbs,
                    test: accs[acc.index()],
                    value,
                    old: read(&regs, old),
                });
                accs[acc.index()] = sel;
                if let Some(d) = dst {
                    write(&mut regs, d, sel);
                }
            }
            IInst::CopyToGpr { acc, dst } => write(&mut regs, dst, accs[acc.index()]),
            IInst::CopyFromGpr { acc, src } => accs[acc.index()] = read(&regs, src),
            IInst::SaveVReturn { dst, vaddr } => {
                let e = ar.cnst(vaddr);
                write(&mut regs, dst, e);
            }
            IInst::IndirectJump { acc, addr, .. } => {
                let target = v!(addr, acc);
                let target = ar.and_not3(target);
                fx.exit(k, ExitKind::Indirect, Some(target), &regs);
                // The dispatch fallback re-states the same exit.
                if matches!(insts.get(k + 1), Some(&IInst::Dispatch { src, .. }) if src == addr) {
                    k += 2;
                    continue;
                }
            }
            IInst::Dispatch { acc, src } => {
                let target = v!(src, acc);
                let target = ar.and_not3(target);
                fx.exit(k, ExitKind::Indirect, Some(target), &regs);
            }
            IInst::CallTranslatorIfCond {
                cond,
                acc,
                src,
                vtarget,
            } => {
                let src = v!(src, acc);
                let kind = ExitKind::Cond {
                    cond,
                    target: vtarget,
                };
                fx.exit(k, kind, Some(src), &regs);
            }
            IInst::CallTranslator { vtarget } => {
                fx.exit(k, ExitKind::Always { target: vtarget }, None, &regs);
            }
            IInst::Alpha(inst) if !matches!(inst, Inst::Branch { .. } | Inst::Jump { .. }) => {
                alpha_step(inst, k, &mut regs, &mut fx, ar)
            }
            IInst::CondBranch { .. } | IInst::Branch { .. } | IInst::Alpha(_) => {
                out.push(Violation::new(
                    "E07",
                    code.vstart,
                    Some(k),
                    "accumulator-ISA code with only unresolved (patchable) exits".to_string(),
                    format!("{:?}", insts[k]),
                ));
                return None;
            }
            IInst::GenTrap => pei_check(k, &regs, &accs),
            IInst::PutChar { acc, src } => {
                let e = v!(src, acc);
                fx.outs.push((k, e));
            }
            IInst::Halt => fx.exit(k, ExitKind::Halt, None, &regs),
        }
        k += 1;
    }
    Some(fx)
}

impl fmt::Display for ExitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitKind::Cond { cond, target } => write!(f, "cond {cond:?} -> {target:#x}"),
            ExitKind::Always { target } => write!(f, "always -> {target:#x}"),
            ExitKind::Indirect => write!(f, "indirect"),
            ExitKind::Halt => write!(f, "halt"),
        }
    }
}

pub(crate) fn check(
    sb: &Superblock,
    code: &TranslatedCode,
    _tr: &Translator,
    out: &mut Vec<Violation>,
) {
    check_in(&mut Arena::new(sb.len()), sb, code, out);
}

/// [`check`] with a caller-supplied arena, which both walks intern into.
fn check_in(ar: &mut Arena, sb: &Superblock, code: &TranslatedCode, out: &mut Vec<Violation>) {
    let vstart = code.vstart;
    let alpha = walk_alpha(sb, ar);
    let Some(frag) = walk_fragment(code, ar, out) else {
        return;
    };
    let ar = &*ar;
    let mut flag = |rule, at, expected: String, actual: String| {
        out.push(Violation::new(rule, vstart, at, expected, actual));
    };
    // Every log first compares lengths, then entries pairwise.
    let (a, f) = (alpha.exits.len(), frag.exits.len());
    if a != f {
        flag(
            "E03",
            None,
            format!("{a} exits (source block)"),
            format!("{f} exits"),
        );
    }
    for (a, f) in alpha.exits.iter().zip(&frag.exits) {
        let at = Some(f.at);
        // E03 — exit skeleton.
        if a.kind != f.kind {
            flag("E03", at, a.kind.to_string(), f.kind.to_string());
            continue;
        }
        // E02 — exit-condition expressions.
        if let (Some(x), Some(y)) = (a.operand, f.operand) {
            if x != y {
                let what = match a.kind {
                    ExitKind::Indirect => "indirect target",
                    _ => "condition source",
                };
                let (x, y) = (ar.show(x), ar.show(y));
                flag("E02", at, format!("{what} {x:?}"), format!("{y:?}"));
            }
        }
        // E01 — architected registers at the exit.
        for r in 0..32 {
            if a.regs[r] != f.regs[r] {
                let (x, y, exit) = (ar.show(a.regs[r]), ar.show(f.regs[r]), &a.kind);
                flag(
                    "E01",
                    at,
                    format!("r{r} = {x:?} at exit {exit}"),
                    format!("{y:?}"),
                );
            }
        }
        // E04/E05 — effect interleaving at the exit.
        if (a.stores_before, a.loads_before) != (f.stores_before, f.loads_before) {
            let effects =
                |e: &Exit| format!("{} stores / {} loads", e.stores_before, e.loads_before);
            flag(
                "E04",
                at,
                format!("{} before exit {}", effects(a), a.kind),
                effects(f),
            );
        }
        if a.outs_before != f.outs_before {
            let (x, y, exit) = (a.outs_before, f.outs_before, &a.kind);
            flag(
                "E05",
                at,
                format!("{x} outputs before exit {exit}"),
                format!("{y} outputs"),
            );
        }
    }

    // E04 — memory effect logs.
    let (a, f) = (alpha.stores.len(), frag.stores.len());
    if a != f {
        flag("E04", None, format!("{a} stores"), format!("{f} stores"));
    }
    for (a, f) in alpha.stores.iter().zip(&frag.stores) {
        if (a.width, a.addr, a.value) != (f.width, f.addr, f.value) {
            let show = |s: &StoreRec| {
                let (addr, value) = (ar.show(s.addr), ar.show(s.value));
                format!("store {:?} {addr:?} <- {value:?}", s.width)
            };
            flag("E04", Some(f.at), show(a), show(f));
        }
    }
    let (a, f) = (alpha.loads.len(), frag.loads.len());
    if a != f {
        flag("E04", None, format!("{a} loads"), format!("{f} loads"));
    }
    for (a, f) in alpha.loads.iter().zip(&frag.loads) {
        if (a.width, a.addr, a.stores_before) != (f.width, f.addr, f.stores_before) {
            let show = |l: &LoadRec| {
                let (width, addr) = (l.width, ar.show(l.addr));
                format!("load {width:?} {addr:?} after {} stores", l.stores_before)
            };
            flag("E04", Some(f.at), show(a), show(f));
        }
    }

    // E05 — output log.
    let (a, f) = (alpha.outs.len(), frag.outs.len());
    if a != f {
        flag("E05", None, format!("{a} outputs"), format!("{f} outputs"));
    }
    for (&(_, a), &(at, f)) in alpha.outs.iter().zip(&frag.outs) {
        if a != f {
            let (x, y) = (ar.show(a), ar.show(f));
            flag("E05", Some(at), format!("output {x:?}"), format!("{y:?}"));
        }
    }

    // E06 — precise state at every potentially-trapping instruction.
    let (a, f) = (alpha.peis.len(), frag.peis.len());
    if a != f {
        flag(
            "E06",
            None,
            format!("{a} trap points"),
            format!("{f} trap points"),
        );
    }
    for (a, f) in alpha.peis.iter().zip(&frag.peis) {
        for r in 0..32 {
            if a.regs[r] != f.regs[r] {
                let (x, y) = (ar.show(a.regs[r]), ar.show(f.regs[r]));
                let expected = format!("recoverable r{r} = {x:?} at trap point");
                flag("E06", Some(f.at), expected, format!("{y:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ildp_core::SbInst;

    /// `steps` rounds of `addq r1,r1,r1; stq r1,0(r2)`. Every step doubles
    /// the tree unfolding of `r1`; only a shared DAG stays small.
    fn doubling_chain(steps: u64) -> Superblock {
        let add = Inst::Operate {
            op: OperateOp::Addq,
            ra: Reg::new(1),
            rb: Operand::Reg(Reg::new(1)),
            rc: Reg::new(1),
        };
        let store = Inst::Mem {
            op: MemOp::Stq,
            ra: Reg::new(1),
            rb: Reg::new(2),
            disp: 0,
        };
        let insts = (0..2 * steps)
            .map(|k| SbInst {
                vaddr: 0x1000 + 4 * k,
                inst: if k % 2 == 0 { add } else { store },
                flow: CollectedFlow::Sequential,
            })
            .collect();
        let next = 0x1000 + 8 * steps;
        Superblock {
            start: 0x1000,
            insts,
            end: SbEnd::Cycle { next },
        }
    }

    #[test]
    fn arena_stays_linear_and_diagnostics_bounded_on_a_doubling_chain() {
        let sb = doubling_chain(256);
        let tr = Translator::default();
        let mut code = tr.translate(&sb);
        assert!(crate::verify_translation(&sb, &code, &tr).is_empty());
        let mut ar = Arena::new(sb.len());
        check_in(&mut ar, &sb, &code, &mut Vec::new());
        assert!(
            ar.nodes.len() <= 64 + 2 * sb.len(),
            "{} nodes",
            ar.nodes.len()
        );

        // Seeded E01: the last add writes r9 instead of r1.
        let k = code
            .insts
            .iter()
            .rposition(|i| matches!(i, IInst::Op { .. }));
        if let IInst::Op { dst, .. } = &mut code.insts[k.unwrap()] {
            *dst = Some(Reg::new(9));
        }
        let mut out = Vec::new();
        check(&sb, &code, &tr, &mut out);
        let e01: Vec<_> = out.iter().filter(|v| v.rule == "E01").collect();
        assert!(e01.iter().any(|v| v.expected.contains('…')));
        // Rendering stops DEBUG_DEPTH levels down a binary tree.
        for s in e01.iter().flat_map(|v| [&v.expected, &v.actual]) {
            assert!(s.matches("Op(").count() < 1 << (DEBUG_DEPTH + 1), "{s}");
        }
    }
}
