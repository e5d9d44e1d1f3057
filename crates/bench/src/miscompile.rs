//! Shared seeded-miscompile corpus and injection machinery.
//!
//! One place holds the exemplar superblocks (the paper's Figure 2 loop
//! plus return/call/cmov/two-source blocks covering every exit flavor)
//! and the per-rule tampering functions that turn a correct translation
//! into a specific miscompile. The verifier's A/P/C/E detection tests
//! (`tests/seeded_miscompiles.rs` at the workspace root) and `lint flow`'s F-rule
//! detection phase both draw from here, so every rule family exercises
//! the same injection machinery.

use alpha_isa::{BranchOp, Inst, JumpKind, MemOp, Operand, OperateOp, Reg};
use ildp_core::{
    ChainPolicy, CollectedFlow, IMeta, SbEnd, SbInst, Superblock, TranslatedCode, TranslationCache,
    Translator, DISPATCH_IADDR,
};
use ildp_isa::{ASrc, Acc, IInst, ITarget, IsaForm};
use ildp_verifier::{flow, Violation};

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn seq(vaddr: u64, inst: Inst) -> SbInst {
    SbInst {
        vaddr,
        inst,
        flow: CollectedFlow::Sequential,
    }
}

/// The paper's Figure 2 inner loop: loads, ALU work, a backward taken
/// branch ending the block.
pub fn fig2_superblock() -> Superblock {
    let base = 0x1_0000u64;
    let mk = |i: u64, inst: Inst| seq(base + i * 4, inst);
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

/// The Figure 2 loop merged with itself — the exact superblock
/// [`ildp_core::merge_region`] produces when the VM's region
/// re-formation unrolls the degenerate single-block hot cycle by a
/// factor of two. The interior seam becomes a reversed conditional side
/// exit; the final backedge closes the region back to its head.
pub fn fig2_region() -> Superblock {
    let sb = fig2_superblock();
    ildp_core::merge_region(&[sb.clone(), sb])
}

/// The Figure 2 loop split at its midpoint into a two-block chain
/// (`A` falls through to `B`, `B` branches back to `A`'s head), then
/// merged — the two-member closed-chain region shape.
pub fn chain_region() -> Superblock {
    let full = fig2_superblock();
    let split = 5usize;
    let a = Superblock {
        start: full.start,
        insts: full.insts[..split].to_vec(),
        end: SbEnd::Cycle {
            next: full.insts[split].vaddr,
        },
    };
    let b = Superblock {
        start: full.insts[split].vaddr,
        insts: full.insts[split..].to_vec(),
        end: full.end,
    };
    ildp_core::merge_region(&[a, b])
}

/// A block ending in a return (exercises every indirect-exit flavor).
pub fn ret_superblock() -> Superblock {
    let base = 0x2_0000u64;
    let insts = vec![
        seq(
            base,
            Inst::Operate {
                op: OperateOp::Addq,
                ra: r(1),
                rb: Operand::Lit(8),
                rc: r(1),
            },
        ),
        SbInst {
            vaddr: base + 4,
            inst: Inst::Jump {
                kind: JumpKind::Ret,
                ra: r(31),
                rb: r(26),
                hint: 0,
            },
            flow: CollectedFlow::Indirect {
                kind: JumpKind::Ret,
                target: 0x3_0000,
            },
        },
    ];
    Superblock {
        start: base,
        insts,
        end: SbEnd::IndirectJump,
    }
}

/// A block ending in an indirect call (`jsr`): return-address save plus
/// software target prediction.
pub fn jsr_superblock() -> Superblock {
    let base = 0x4_0000u64;
    let insts = vec![
        seq(
            base,
            Inst::Operate {
                op: OperateOp::Addq,
                ra: r(9),
                rb: Operand::Lit(1),
                rc: r(9),
            },
        ),
        SbInst {
            vaddr: base + 4,
            inst: Inst::Jump {
                kind: JumpKind::Jsr,
                ra: r(26),
                rb: r(27),
                hint: 0,
            },
            flow: CollectedFlow::Indirect {
                kind: JumpKind::Jsr,
                target: 0x5_0000,
            },
        },
    ];
    Superblock {
        start: base,
        insts,
        end: SbEnd::IndirectJump,
    }
}

/// A block containing conditional-move and store traffic plus a halt.
pub fn cmov_store_superblock() -> Superblock {
    let base = 0x6_0000u64;
    let insts = vec![
        seq(
            base,
            Inst::Operate {
                op: OperateOp::Cmoveq,
                ra: r(2),
                rb: Operand::Reg(r(3)),
                rc: r(4),
            },
        ),
        seq(
            base + 4,
            Inst::Mem {
                op: MemOp::Stq,
                ra: r(4),
                rb: r(30),
                disp: 16,
            },
        ),
        seq(
            base + 8,
            Inst::CallPal {
                func: alpha_isa::PalFunc::Halt,
            },
        ),
    ];
    Superblock {
        start: base,
        insts,
        end: SbEnd::Halt,
    }
}

/// Two live-in GPR sources force a planned copy-from-GPR.
pub fn two_gpr_superblock() -> Superblock {
    let base = 0x7_0000u64;
    let insts = vec![seq(
        base,
        Inst::Operate {
            op: OperateOp::Addq,
            ra: r(1),
            rb: Operand::Reg(r(2)),
            rc: r(3),
        },
    )];
    Superblock {
        start: base,
        insts,
        end: SbEnd::Cycle { next: base + 4 },
    }
}

/// A block that prints one console character (`call_pal putchar`
/// outputs `a0`).
pub fn putchar_superblock() -> Superblock {
    let base = 0x8_0000u64;
    let inc = Inst::Operate {
        op: OperateOp::Addq,
        ra: r(16),
        rb: Operand::Lit(1),
        rc: r(16),
    };
    let put = Inst::CallPal {
        func: alpha_isa::PalFunc::PutChar,
    };
    Superblock {
        start: base,
        insts: vec![seq(base, inc), seq(base + 4, put)],
        end: SbEnd::Cycle { next: base + 8 },
    }
}

/// Every corpus superblock, for clean-matrix sweeps.
pub fn corpus() -> Vec<Superblock> {
    vec![
        fig2_superblock(),
        ret_superblock(),
        jsr_superblock(),
        cmov_store_superblock(),
        two_gpr_superblock(),
        putchar_superblock(),
    ]
}

/// Translates `sb` under the standard 4-accumulator translator.
pub fn translate(
    sb: &Superblock,
    form: IsaForm,
    chain: ChainPolicy,
) -> (TranslatedCode, Translator) {
    let tr = Translator {
        form,
        chain,
        acc_count: 4,
        fuse_memory: false,
    };
    (tr.translate(sb), tr)
}

/// One seeded miscompile at the translation level: a correct translation
/// of a corpus superblock plus a tamper that a specific rule must catch.
pub struct SeededMiscompile {
    /// The rule expected to fire.
    pub rule: &'static str,
    /// Short descriptive label for reports.
    pub name: &'static str,
    /// Builds the source superblock.
    pub superblock: fn() -> Superblock,
    /// ISA form to translate under.
    pub form: IsaForm,
    /// Chain policy to translate under.
    pub chain: ChainPolicy,
    /// Injects the miscompile into the translation.
    pub tamper: fn(&mut TranslatedCode),
}

impl SeededMiscompile {
    /// Translates, tampers, and returns the superblock + poisoned code
    /// plus the translator used.
    pub fn build(&self) -> (Superblock, TranslatedCode, Translator) {
        let sb = (self.superblock)();
        let (mut code, tr) = translate(&sb, self.form, self.chain);
        (self.tamper)(&mut code);
        (sb, code, tr)
    }
}

fn find<F: Fn(&IInst) -> bool>(code: &TranslatedCode, pred: F, what: &str) -> usize {
    code.insts
        .iter()
        .position(pred)
        .unwrap_or_else(|| panic!("corpus translation lacks {what}"))
}

/// Drops one entry from the first trap point that has recovery state.
fn drop_recovery_entry(code: &mut TranslatedCode) {
    let k = code
        .recovery
        .iter()
        .filter(|(_, es)| !es.is_empty())
        .map(|(&k, _)| k)
        .min()
        .expect("basic-form translation has recovery state at a load");
    code.recovery.get_mut(&k).unwrap().pop();
}

/// Rebinds the first conditional side exit to the fragment's own head.
fn rebind_side_exit_to_head(code: &mut TranslatedCode) {
    let head = code.vstart;
    let k = find(
        code,
        |i| matches!(i, IInst::CallTranslatorIfCond { .. }),
        "an interior seam side exit",
    );
    if let IInst::CallTranslatorIfCond { vtarget, .. } = &mut code.insts[k] {
        *vtarget = head;
    }
}

/// Moves the last conditional exit (a loop's backedge) 40 bytes on.
fn rebind_backedge(code: &mut TranslatedCode) {
    let k = code
        .insts
        .iter()
        .rposition(|i| matches!(i, IInst::CallTranslatorIfCond { .. }))
        .expect("translation lacks a closing backedge");
    if let IInst::CallTranslatorIfCond { vtarget, .. } = &mut code.insts[k] {
        *vtarget += 40;
    }
}

/// Drops the last emitted instruction.
fn truncate_tail(code: &mut TranslatedCode) {
    code.insts.pop();
    code.meta.pop();
}

/// Seeded miscompiles for the single-fragment verifier families
/// (A/P/C/E), one per representative rule.
pub fn verifier_seeds() -> Vec<SeededMiscompile> {
    vec![
        SeededMiscompile {
            rule: "A01",
            name: "wrong accumulator on an op",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(code, |i| matches!(i, IInst::Op { .. }), "an op");
                if let IInst::Op { acc, .. } = &mut code.insts[k] {
                    *acc = Acc::new((acc.index() as u8 + 1) % 4);
                }
            },
        },
        SeededMiscompile {
            rule: "A05",
            name: "wrong pre-copy source register",
            superblock: two_gpr_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CopyFromGpr { .. }),
                    "a copy-from-GPR",
                );
                if let IInst::CopyFromGpr { src, .. } = &mut code.insts[k] {
                    *src = Reg::new(13);
                }
            },
        },
        SeededMiscompile {
            rule: "P01",
            name: "dropped modified-form destination",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::Op { dst: Some(_), .. }),
                    "an op with a destination",
                );
                if let IInst::Op { dst, .. } = &mut code.insts[k] {
                    *dst = None;
                }
            },
        },
        SeededMiscompile {
            rule: "P04",
            name: "missing recovery entry",
            superblock: fig2_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: drop_recovery_entry,
        },
        SeededMiscompile {
            rule: "P05",
            name: "spurious recovery table in modified form",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(code, |i| i.is_pei(), "a PEI");
                code.recovery
                    .entry(k as u32)
                    .or_default()
                    .push(ildp_core::RecoveryEntry {
                        reg: Reg::new(3),
                        acc: Acc::new(0),
                    });
            },
        },
        SeededMiscompile {
            rule: "C02",
            name: "broken software-prediction compare",
            superblock: jsr_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPred,
            tamper: |code| {
                let k = find(
                    code,
                    |i| {
                        matches!(
                            i,
                            IInst::Op {
                                op: OperateOp::Cmpeq,
                                ..
                            }
                        )
                    },
                    "the sw-pred compare",
                );
                if let IInst::Op { op, .. } = &mut code.insts[k] {
                    *op = OperateOp::Cmpule;
                }
            },
        },
        SeededMiscompile {
            rule: "C03",
            name: "wrong dual-RAS return address",
            superblock: jsr_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::PushDualRas { .. }),
                    "a dual-RAS push",
                );
                if let IInst::PushDualRas { iret, .. } = &mut code.insts[k] {
                    *iret = ITarget::Addr(0);
                }
            },
        },
        SeededMiscompile {
            rule: "C04",
            name: "unbacked predicted return",
            superblock: ret_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::Dispatch { .. }),
                    "the dispatch fallback",
                );
                if let IInst::Dispatch { src, .. } = &mut code.insts[k] {
                    *src = ASrc::Gpr(Reg::new(7));
                }
            },
        },
        SeededMiscompile {
            rule: "E03",
            name: "wrong symbolic exit target",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CallTranslator { .. }),
                    "a call-translator exit",
                );
                if let IInst::CallTranslator { vtarget } = &mut code.insts[k] {
                    *vtarget += 4;
                }
            },
        },
        SeededMiscompile {
            rule: "E01",
            name: "wrong copy-out destination",
            superblock: fig2_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CopyToGpr { .. }),
                    "a copy-to-GPR",
                );
                if let IInst::CopyToGpr { dst, .. } = &mut code.insts[k] {
                    *dst = Reg::new(9);
                }
            },
        },
        SeededMiscompile {
            rule: "E04",
            name: "wrong store displacement",
            superblock: cmov_store_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(code, |i| matches!(i, IInst::Store { .. }), "a store");
                if let IInst::Store { disp, .. } = &mut code.insts[k] {
                    *disp += 8;
                }
            },
        },
        SeededMiscompile {
            rule: "E02",
            name: "wrong branch-condition source",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CallTranslatorIfCond { .. }),
                    "a conditional exit",
                );
                if let IInst::CallTranslatorIfCond { src, .. } = &mut code.insts[k] {
                    *src = ASrc::Gpr(Reg::new(16));
                }
            },
        },
        SeededMiscompile {
            rule: "E05",
            name: "wrong putchar operand",
            superblock: putchar_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(code, |i| matches!(i, IInst::PutChar { .. }), "a putchar");
                if let IInst::PutChar { src, .. } = &mut code.insts[k] {
                    *src = ASrc::Gpr(Reg::new(9));
                }
            },
        },
        SeededMiscompile {
            rule: "E06",
            name: "recovery entry dropped",
            superblock: fig2_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: drop_recovery_entry,
        },
    ]
}

/// Seeded miscompiles specific to re-formed regions: translations of
/// merged region superblocks ([`fig2_region`], [`chain_region`])
/// poisoned at the structures region merging creates — interior seam
/// side exits, the closing backedge, seam copy traffic, and recovery
/// state inside an unrolled iteration. `lint region` requires every one
/// to be detected by the full install gate (`verify_translation`).
pub fn region_seeds() -> Vec<SeededMiscompile> {
    vec![
        SeededMiscompile {
            rule: "E03",
            name: "interior seam side exit rebound to the region head",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: rebind_side_exit_to_head,
        },
        SeededMiscompile {
            rule: "E03",
            name: "interior seam side exit rebound (modified form)",
            superblock: fig2_region,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: rebind_side_exit_to_head,
        },
        SeededMiscompile {
            rule: "E03",
            name: "unrolled backedge rebound past the loop",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: rebind_backedge,
        },
        SeededMiscompile {
            rule: "A05",
            name: "seam copy-in from the wrong global",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CopyFromGpr { .. }),
                    "a seam copy-in",
                );
                if let IInst::CopyFromGpr { src, .. } = &mut code.insts[k] {
                    *src = Reg::new(13);
                }
            },
        },
        SeededMiscompile {
            rule: "P03",
            name: "seam copy-out to the wrong global",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = code
                    .insts
                    .iter()
                    .rposition(|i| matches!(i, IInst::CopyToGpr { .. }))
                    .expect("region translation lacks a seam copy-out");
                if let IInst::CopyToGpr { dst, .. } = &mut code.insts[k] {
                    *dst = Reg::new(19);
                }
            },
        },
        SeededMiscompile {
            rule: "P04",
            name: "recovery entry dropped inside an unrolled iteration",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: drop_recovery_entry,
        },
        SeededMiscompile {
            rule: "A00",
            name: "region tail truncated",
            superblock: fig2_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: truncate_tail,
        },
        SeededMiscompile {
            rule: "E03",
            name: "chain-region backedge rebound",
            superblock: chain_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: rebind_backedge,
        },
        SeededMiscompile {
            rule: "A00",
            name: "chain-region tail truncated",
            superblock: chain_region,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: truncate_tail,
        },
    ]
}

/// Seeded miscompiles for the translation-level flow rules (F01–F04,
/// checked by `flow::check_translation`).
pub fn flow_translation_seeds() -> Vec<SeededMiscompile> {
    vec![
        SeededMiscompile {
            rule: "F01",
            name: "global communication never reaches the register",
            superblock: fig2_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                // Retarget a copy-out so its global value's register is
                // never defined in the fragment.
                let k = find(
                    code,
                    |i| matches!(i, IInst::CopyToGpr { .. }),
                    "a copy-to-GPR",
                );
                if let IInst::CopyToGpr { dst, .. } = &mut code.insts[k] {
                    *dst = Reg::new(25);
                }
            },
        },
        SeededMiscompile {
            rule: "F02",
            name: "copy-in of a register the source never supplies",
            superblock: two_gpr_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CopyFromGpr { .. }),
                    "a copy-from-GPR",
                );
                if let IInst::CopyFromGpr { src, .. } = &mut code.insts[k] {
                    *src = Reg::new(13);
                }
            },
        },
        SeededMiscompile {
            rule: "F03",
            name: "accumulator read before any write in the fragment",
            superblock: fig2_superblock,
            form: IsaForm::Basic,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                // A copy-out of an accumulator no instruction has written
                // yet: its live range would cross the fragment seam.
                code.insts.insert(
                    1,
                    IInst::CopyToGpr {
                        acc: Acc::new(3),
                        dst: Reg::new(25),
                    },
                );
            },
        },
        SeededMiscompile {
            rule: "F04",
            name: "exit arm targeting a V-address outside the superblock",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                let k = find(
                    code,
                    |i| matches!(i, IInst::CallTranslator { .. }),
                    "a call-translator exit",
                );
                if let IInst::CallTranslator { vtarget } = &mut code.insts[k] {
                    *vtarget += 0x9990;
                }
            },
        },
        SeededMiscompile {
            rule: "F04",
            name: "unreachable exit arm after the terminal transfer",
            superblock: fig2_superblock,
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            tamper: |code| {
                code.insts.push(IInst::CallTranslator { vtarget: 0x1_0000 });
                code.meta.push(IMeta::chain(0x1_0000));
            },
        },
    ]
}

/// One seeded miscompile at the cache or trace level: builds a poisoned
/// installed cache (or trace) and returns the violations the checker
/// found. The named rule must be among them.
pub struct CacheSeed {
    /// The rule expected to fire.
    pub rule: &'static str,
    /// Short descriptive label for reports.
    pub name: &'static str,
    /// Builds the poisoned state and runs the whole-cache / dynamic
    /// checker over it.
    pub run: fn() -> Vec<Violation>,
}

fn leaf(vstart: u64) -> (Vec<IInst>, Vec<IMeta>) {
    let insts = vec![IInst::SetVpcBase { vaddr: vstart }, IInst::Halt];
    let meta = insts.iter().map(|_| IMeta::chain(vstart)).collect();
    (insts, meta)
}

fn install(cache: &mut TranslationCache, vstart: u64, insts: Vec<IInst>) -> ildp_core::FragmentId {
    let meta = insts.iter().map(|_| IMeta::chain(vstart)).collect();
    cache.install(
        vstart,
        IsaForm::Modified,
        insts,
        meta,
        1,
        std::collections::HashMap::new(),
    )
}

/// Seeded miscompiles for the installed-cache and dynamic flow rules
/// (F04 link poison, F05 push poison, F06 trace mismatch).
pub fn flow_cache_seeds() -> Vec<CacheSeed> {
    vec![
        CacheSeed {
            rule: "F04",
            name: "resolved link redirected to a wrong but valid entry",
            run: || {
                let mut cache = TranslationCache::new();
                let aid = install(
                    &mut cache,
                    0x1000,
                    vec![
                        IInst::SetVpcBase { vaddr: 0x1000 },
                        IInst::CallTranslator { vtarget: 0x2000 },
                    ],
                );
                let (b, _) = leaf(0x2000);
                install(&mut cache, 0x2000, b);
                let (c, _) = leaf(0x3000);
                let cid = install(&mut cache, 0x3000, c);
                let c_start = cache.fragment(cid).istart;
                cache.edit_fragment(aid, |fa| {
                    fa.insts[1] = IInst::Branch {
                        target: ITarget::Addr(c_start),
                    };
                    fa.links[1] = Some(cid);
                });
                flow::check_cache(&cache, None).0
            },
        },
        CacheSeed {
            rule: "F05",
            name: "dual-RAS push resolved to the wrong fragment",
            run: || {
                let mut cache = TranslationCache::new();
                let aid = install(
                    &mut cache,
                    0x1000,
                    vec![
                        IInst::PushDualRas {
                            vret: 0x2000,
                            iret: ITarget::Addr(DISPATCH_IADDR),
                        },
                        IInst::Halt,
                    ],
                );
                let (b, _) = leaf(0x2000);
                install(&mut cache, 0x2000, b);
                let (c, _) = leaf(0x3000);
                let cid = install(&mut cache, 0x3000, c);
                let c_start = cache.fragment(cid).istart;
                cache.edit_fragment(aid, |fa| {
                    if let IInst::PushDualRas { iret, .. } = &mut fa.insts[0] {
                        *iret = ITarget::Addr(c_start);
                    }
                });
                flow::check_cache(&cache, Some(ChainPolicy::SwPredDualRas)).0
            },
        },
        CacheSeed {
            rule: "F05",
            name: "dual-RAS push under a non-dual-RAS policy",
            run: || {
                let mut cache = TranslationCache::new();
                install(
                    &mut cache,
                    0x1000,
                    vec![
                        IInst::PushDualRas {
                            vret: 0x2000,
                            iret: ITarget::Addr(DISPATCH_IADDR),
                        },
                        IInst::Halt,
                    ],
                );
                flow::check_cache(&cache, Some(ChainPolicy::SwPred)).0
            },
        },
        CacheSeed {
            rule: "F06",
            name: "retired trace disagreeing with the installed summary",
            run: || {
                let mut cache = TranslationCache::new();
                let fid = install(
                    &mut cache,
                    0x1000,
                    vec![
                        IInst::SetVpcBase { vaddr: 0x1000 },
                        IInst::CopyFromGpr {
                            acc: Acc::new(0),
                            src: Reg::new(2),
                        },
                        IInst::CopyToGpr {
                            acc: Acc::new(0),
                            dst: Reg::new(3),
                        },
                        IInst::Halt,
                    ],
                );
                let trace = cache.fragment(fid).trace_templates();
                cache.edit_fragment(fid, |f| {
                    if let IInst::CopyFromGpr { src, .. } = &mut f.insts[1] {
                        *src = Reg::new(7);
                    }
                });
                flow::check_dynamic(&cache, &trace)
            },
        },
        CacheSeed {
            rule: "F06",
            name: "runtime accumulator read crossing a fragment seam",
            run: || {
                let mut cache = TranslationCache::new();
                let fid = install(
                    &mut cache,
                    0x1000,
                    vec![
                        IInst::SetVpcBase { vaddr: 0x1000 },
                        IInst::CopyFromGpr {
                            acc: Acc::new(0),
                            src: Reg::new(2),
                        },
                        IInst::CopyToGpr {
                            acc: Acc::new(0),
                            dst: Reg::new(3),
                        },
                        IInst::Halt,
                    ],
                );
                let templates = cache.fragment(fid).trace_templates();
                // Entry, then the copy-out retires without the
                // accumulator having been written since fragment entry.
                let trace = vec![templates[0], templates[2]];
                flow::check_dynamic(&cache, &trace)
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_translates_under_every_configuration() {
        for sb in corpus() {
            for form in [IsaForm::Basic, IsaForm::Modified] {
                for chain in [
                    ChainPolicy::NoPred,
                    ChainPolicy::SwPred,
                    ChainPolicy::SwPredDualRas,
                ] {
                    let (code, _) = translate(&sb, form, chain);
                    assert!(!code.insts.is_empty());
                }
            }
        }
    }
}
