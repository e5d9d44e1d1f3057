//! Pass 3 — chaining integrity (rules `C01`–`C07`).
//!
//! Structural checks on a fragment's entry/exit skeleton, before and
//! after installation:
//!
//! * `C01` — the fragment opens with exactly one `set-vpc-base` naming
//!   its own entry V-address (which must match the source superblock);
//!   a straightened-form fragment, Alpha code laid out 1:1, carries none;
//! * `C02` — every embedded-target load starts the paper's exact
//!   software-prediction sequence (compare, predicted-target branch,
//!   dispatch fallback), only under a predicting chain policy;
//! * `C03` — dual-RAS pushes pair with the preceding return-address save
//!   and name the dispatcher as their I-side return; under a dual-RAS
//!   policy every save is so paired;
//! * `C04` — a predicted return is only emitted under the dual-RAS
//!   policy and is backed by a dispatch fallback on the next slot;
//! * `C05` — exactly one block-terminal instruction, in the last slot;
//! * `C06` — a resolved control transfer targets the dispatcher or a
//!   valid fragment entry (post-install; pre-install code must carry
//!   only patchable `call-translator` exits);
//! * `C07` — the install-time direct-link table agrees with the patched
//!   instruction words in lockstep.

use crate::Violation;
use alpha_isa::{JumpKind, OperateOp};
use ildp_core::{
    Fragment, Superblock, TranslatedCode, TranslationCache, Translator, DISPATCH_IADDR,
};
use ildp_isa::{ASrc, CondKind, IInst, ITarget, IsaForm};

/// Checks the emitted (pre-install, unpatched) fragment structure.
pub(crate) fn check_static(
    sb: &Superblock,
    code: &TranslatedCode,
    tr: &Translator,
    out: &mut Vec<Violation>,
) {
    let vstart = code.vstart;
    let insts = &code.insts;

    // C01 — entry shape.
    if vstart != sb.start {
        out.push(Violation::new(
            "C01",
            vstart,
            None,
            format!("fragment entry at superblock start {:#x}", sb.start),
            format!("{vstart:#x}"),
        ));
    }
    // The straightened form is Alpha code laid out 1:1: it has no V-PC
    // base to set, so it carries no SetVpcBase at all.
    let straightened = tr.form == IsaForm::Straightened;
    if !straightened {
        match insts.first() {
            Some(IInst::SetVpcBase { vaddr }) if *vaddr == vstart => {}
            other => out.push(Violation::new(
                "C01",
                vstart,
                Some(0),
                format!("SetVpcBase {{ vaddr: {vstart:#x} }}"),
                format!("{other:?}"),
            )),
        }
    }
    for (k, inst) in insts.iter().enumerate().skip(usize::from(!straightened)) {
        if matches!(inst, IInst::SetVpcBase { .. }) {
            out.push(Violation::new(
                "C01",
                vstart,
                Some(k),
                if straightened {
                    "no SetVpcBase in the straightened form"
                } else {
                    "a single leading SetVpcBase"
                }
                .to_string(),
                format!("SetVpcBase at slot {k}"),
            ));
        }
    }

    // C05 — terminal shape.
    match insts.last() {
        Some(last) if last.is_terminal() => {}
        other => out.push(Violation::new(
            "C05",
            vstart,
            Some(insts.len().saturating_sub(1)),
            "a block-terminal instruction in the last slot".to_string(),
            format!("{other:?}"),
        )),
    }
    for (k, inst) in insts.iter().enumerate() {
        if k + 1 != insts.len() && inst.is_terminal() {
            out.push(Violation::new(
                "C05",
                vstart,
                Some(k),
                "terminal instructions only in the last slot".to_string(),
                format!("{inst:?}"),
            ));
        }
        // C06 — resolved branches exist only after install-time patching.
        if matches!(inst, IInst::Branch { .. } | IInst::CondBranch { .. }) {
            out.push(Violation::new(
                "C06",
                vstart,
                Some(k),
                "only patchable call-translator exits before installation".to_string(),
                format!("{inst:?}"),
            ));
        }
    }

    for (k, inst) in insts.iter().enumerate() {
        match *inst {
            // C02 — the software-prediction group.
            IInst::LoadEmbeddedTarget { acc, vaddr } => {
                if !tr.chain.uses_sw_pred() {
                    out.push(Violation::new(
                        "C02",
                        vstart,
                        Some(k),
                        format!("no target prediction under {:?}", tr.chain),
                        "LoadEmbeddedTarget".to_string(),
                    ));
                }
                let cmp_rhs = match insts.get(k + 1) {
                    Some(&IInst::Op {
                        op: OperateOp::Cmpeq,
                        acc: a,
                        lhs: ASrc::Acc,
                        rhs,
                        dst: None,
                    }) if a == acc => Some(rhs),
                    _ => None,
                };
                let branch_ok = matches!(
                    insts.get(k + 2),
                    Some(&IInst::CallTranslatorIfCond {
                        cond: CondKind::Ne,
                        acc: a,
                        src: ASrc::Acc,
                        vtarget,
                    }) if a == acc && vtarget == vaddr
                );
                let dispatch_ok = matches!(
                    insts.get(k + 3),
                    Some(&IInst::Dispatch { src, .. }) if Some(src) == cmp_rhs
                );
                let meta_ok = (k..k + 4).all(|j| code.meta.get(j).is_some_and(|m| m.is_chain));
                if cmp_rhs.is_none() || !branch_ok || !dispatch_ok || !meta_ok {
                    out.push(Violation::new(
                        "C02",
                        vstart,
                        Some(k),
                        "sw-pred group: load-embedded; cmpeq acc,actual; \
                         branch-if-match; dispatch actual (all chain code)"
                            .to_string(),
                        format!("{:?}", &insts[k..insts.len().min(k + 4)]),
                    ));
                }
            }
            // C03 — dual-RAS push pairing.
            IInst::PushDualRas { vret, iret } => {
                if !tr.chain.uses_dual_ras() {
                    out.push(Violation::new(
                        "C03",
                        vstart,
                        Some(k),
                        format!("no RAS maintenance under {:?}", tr.chain),
                        "PushDualRas".to_string(),
                    ));
                }
                let paired = matches!(
                    k.checked_sub(1).and_then(|p| insts.get(p)),
                    Some(&IInst::SaveVReturn { vaddr, .. }) if vaddr == vret
                );
                if !paired || iret != ITarget::Addr(DISPATCH_IADDR) {
                    out.push(Violation::new(
                        "C03",
                        vstart,
                        Some(k),
                        format!(
                            "push paired with SaveVReturn of {vret:#x}, \
                             I-side return at dispatch {DISPATCH_IADDR:#x}"
                        ),
                        format!(
                            "prev {:?}, iret {iret:?}",
                            k.checked_sub(1).map(|p| insts[p])
                        ),
                    ));
                }
            }
            IInst::SaveVReturn { vaddr, .. } if tr.chain.uses_dual_ras() => {
                let pushed = matches!(
                    insts.get(k + 1),
                    Some(&IInst::PushDualRas { vret, .. }) if vret == vaddr
                );
                if !pushed {
                    out.push(Violation::new(
                        "C03",
                        vstart,
                        Some(k),
                        format!("PushDualRas {{ vret: {vaddr:#x} }} after the save"),
                        format!("{:?}", insts.get(k + 1)),
                    ));
                }
            }
            // C04 — predicted returns.
            IInst::IndirectJump { kind, addr, .. } => {
                let backed = matches!(
                    insts.get(k + 1),
                    Some(&IInst::Dispatch { src, .. }) if src == addr
                );
                if kind != JumpKind::Ret || !tr.chain.uses_dual_ras() || !backed {
                    out.push(Violation::new(
                        "C04",
                        vstart,
                        Some(k),
                        "dual-RAS-predicted return backed by a dispatch of the same source"
                            .to_string(),
                        format!("{kind:?} under {:?}, next {:?}", tr.chain, insts.get(k + 1)),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Checks an installed (possibly patched and linked) fragment against the
/// cache's fragment map.
pub(crate) fn check_installed(cache: &TranslationCache, frag: &Fragment) -> Vec<Violation> {
    let mut out = Vec::new();
    let vstart = frag.vstart;

    // A patchable or RAS-side target resolved to an I-address: audit both
    // the address and the lockstep direct link.
    let check_target = |k: usize, target: ITarget, out: &mut Vec<Violation>| {
        let link = frag.links.get(k).copied().flatten();
        match target {
            ITarget::Addr(a) if a == DISPATCH_IADDR => {
                if link.is_some() {
                    out.push(Violation::new(
                        "C07",
                        vstart,
                        Some(k),
                        "no direct link for a dispatcher target".to_string(),
                        format!("link to {link:?}"),
                    ));
                }
            }
            ITarget::Addr(a) => match cache.lookup_iaddr(a) {
                None => out.push(Violation::new(
                    "C06",
                    vstart,
                    Some(k),
                    "resolved target at the dispatcher or a fragment entry".to_string(),
                    format!("{a:#x} is neither"),
                )),
                Some(fid) => {
                    if link != Some(fid) {
                        out.push(Violation::new(
                            "C07",
                            vstart,
                            Some(k),
                            format!("direct link {fid:?} matching target {a:#x}"),
                            format!("link {link:?}"),
                        ));
                    }
                }
            },
            ITarget::Local(_) => out.push(Violation::new(
                "C06",
                vstart,
                Some(k),
                "installed transfers use absolute I-addresses".to_string(),
                format!("{target:?}"),
            )),
        }
    };

    for (k, inst) in frag.insts.iter().enumerate() {
        match *inst {
            IInst::Branch { target } | IInst::CondBranch { target, .. } => {
                check_target(k, target, &mut out);
            }
            IInst::PushDualRas { iret, .. } => check_target(k, iret, &mut out),
            _ => {
                if frag.links.get(k).copied().flatten().is_some() {
                    out.push(Violation::new(
                        "C07",
                        vstart,
                        Some(k),
                        "direct links only on resolved control transfers".to_string(),
                        format!("link on {inst:?}"),
                    ));
                }
            }
        }
    }

    // The patched fragment must still open and terminate correctly.
    if !matches!(frag.insts.first(), Some(IInst::SetVpcBase { vaddr }) if *vaddr == vstart) {
        out.push(Violation::new(
            "C01",
            vstart,
            Some(0),
            format!("SetVpcBase {{ vaddr: {vstart:#x} }}"),
            format!("{:?}", frag.insts.first()),
        ));
    }
    if !frag.insts.last().is_some_and(|i| i.is_terminal()) {
        out.push(Violation::new(
            "C05",
            vstart,
            Some(frag.insts.len().saturating_sub(1)),
            "a block-terminal instruction in the last slot".to_string(),
            format!("{:?}", frag.insts.last()),
        ));
    }
    out
}
