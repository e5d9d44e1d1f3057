//! Precise-trap recovery, exercised systematically (paper §2.2).
//!
//! Parameterized programs raise traps (`gentrap`, and data-dependent
//! misaligned loads) at chosen iteration depths — before translation,
//! right at the translation threshold, and deep inside hot translated
//! code. In every case the DBT must pass the oracle against pure
//! interpretation: the same faulting V-PC, trap condition, precise
//! registers, memory, output and retired count — under both I-ISA
//! forms and the straightened form, three body shapes chosen to stress
//! different value
//! categories, reduced accumulator counts (which force premature strand
//! terminations), synchronous and background installs, and a trap in
//! the very iteration that collects the superblock.

use alpha_isa::{Assembler, Program, Reg};
use ildp_core::oracle::{reference, End, EndState};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;

/// Runs `program` under `config` and panics with the first difference
/// unless it ends in the same trap as the interpreter, in every
/// architected respect. Returns the VM, for tier assertions, and its end.
fn assert_traps_like_interpreter<'p>(
    program: &'p Program,
    config: VmConfig,
    what: &str,
) -> (Vm<'p>, End) {
    let expected = reference(program, 100_000).unwrap();
    assert!(
        matches!(expected.end, End::Trapped { .. }),
        "{what}: the program must trap"
    );
    let mut vm = Vm::new(config, program);
    let exit = vm.run(100_000, &mut NullSink);
    let actual = EndState::of(&vm, &exit);
    if let Err(e) = expected.check(&actual) {
        panic!("{what}: {e}");
    }
    (vm, actual.end)
}

/// A loop whose body stresses strand formation (long and short chains,
/// loads, stores) and raises `gentrap` on iteration `trap_at`.
fn trapping_program(trap_at: i16, body_variant: u8) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let arena = asm.zero_block(4096);
    asm.li32(Reg::new(11), arena as u32);
    asm.clr(Reg::A1); // i
    asm.clr(Reg::V0);
    let top = asm.here("top");
    // Body: variant-dependent mix so different value categories arise.
    match body_variant {
        0 => {
            // Long single strand (gzip-like).
            asm.ldq(Reg::new(1), 0, Reg::new(11));
            asm.xor(Reg::V0, Reg::new(1), Reg::new(1));
            asm.srl_imm(Reg::new(1), 3, Reg::new(1));
            asm.and_imm(Reg::new(1), 0x7f, Reg::new(1));
            asm.s8addq(Reg::new(1), Reg::new(11), Reg::new(2));
            asm.ldq(Reg::new(3), 0, Reg::new(2));
            asm.addq(Reg::V0, Reg::new(3), Reg::V0);
            asm.stq(Reg::V0, 8, Reg::new(11));
        }
        1 => {
            // Many short strands (wide ILP).
            asm.addq_imm(Reg::A1, 3, Reg::new(1));
            asm.sll_imm(Reg::A1, 2, Reg::new(2));
            asm.subq(Reg::new(1), Reg::new(2), Reg::new(3));
            asm.mull_imm(Reg::A1, 7, Reg::new(4));
            asm.xor(Reg::new(3), Reg::new(4), Reg::new(5));
            asm.addq(Reg::V0, Reg::new(5), Reg::V0);
        }
        _ => {
            // Stores + cmovs (merging writes near the PEI).
            asm.and_imm(Reg::A1, 63, Reg::new(1));
            asm.s8addq(Reg::new(1), Reg::new(11), Reg::new(1));
            asm.cmplt_imm(Reg::A1, 100, Reg::new(2));
            asm.cmovne(Reg::new(2), Reg::A1, Reg::new(3));
            asm.stq(Reg::new(3), 0, Reg::new(1));
            asm.ldq(Reg::new(4), 0, Reg::new(1));
            asm.addq(Reg::V0, Reg::new(4), Reg::V0);
        }
    }
    // Trap trigger: gentrap when i == trap_at (a0 carries the code).
    let no_trap = asm.label("no_trap");
    asm.cmpeq_imm(Reg::A1, trap_at.max(0) as u8, Reg::new(7));
    asm.beq(Reg::new(7), no_trap);
    asm.mov(Reg::V0, Reg::A0);
    asm.gentrap();
    asm.bind(no_trap);
    asm.addq_imm(Reg::A1, 1, Reg::A1);
    asm.cmplt_imm(Reg::A1, 120, Reg::new(7));
    asm.bne(Reg::new(7), top);
    asm.halt();
    asm.finish().expect("trapping program assembles")
}

fn check_trap(trap_at: i16, variant: u8, form: IsaForm, acc_count: usize) {
    let program = trapping_program(trap_at, variant);
    let config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: 3,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    };
    let what = format!("({form:?}, {acc_count} accs, variant {variant}, trap_at {trap_at})");
    let (vm, _) = assert_traps_like_interpreter(&program, config, &what);
    if trap_at > 20 {
        assert!(
            vm.stats().engine.v_insts > 50,
            "late traps must fire inside translated code \
             ({form:?}, variant {variant}, trap_at {trap_at})"
        );
    }
}

#[test]
fn traps_recover_exactly_in_basic_form() {
    for variant in 0..3u8 {
        for trap_at in [0i16, 1, 7, 40, 100] {
            check_trap(trap_at, variant, IsaForm::Basic, 4);
        }
    }
}

#[test]
fn traps_recover_exactly_in_modified_form() {
    for variant in 0..3u8 {
        for trap_at in [0i16, 1, 7, 40, 100] {
            check_trap(trap_at, variant, IsaForm::Modified, 4);
        }
    }
}

#[test]
fn traps_recover_exactly_in_straightened_form() {
    for variant in 0..3u8 {
        for trap_at in [0i16, 1, 7, 40, 100] {
            check_trap(trap_at, variant, IsaForm::Straightened, 4);
        }
    }
}

#[test]
fn traps_recover_under_accumulator_pressure() {
    // Two accumulators force premature strand terminations; recovery must
    // still be exact.
    for variant in 0..3u8 {
        for trap_at in [7i16, 40] {
            check_trap(trap_at, variant, IsaForm::Basic, 2);
            check_trap(trap_at, variant, IsaForm::Modified, 2);
        }
    }
}

/// A hot loop whose `ldq` turns unaligned (+1 byte) on iteration
/// `trap_at` of 200. `r4`'s first value is live across the load only in
/// an accumulator in the basic form, so the trap's precise registers
/// differ from the register file the engine stopped with.
fn unaligned_load_loop(trap_at: u8) -> Program {
    let mut asm = Assembler::new(0x1_0000);
    let arena = asm.zero_block(8192);
    asm.li32(Reg::new(11), arena as u32);
    asm.clr(Reg::A1);
    asm.clr(Reg::V0);
    let top = asm.here("top");
    asm.s8addq(Reg::A1, Reg::new(11), Reg::new(1));
    asm.cmpeq_imm(Reg::A1, trap_at, Reg::new(2));
    asm.addq(Reg::new(1), Reg::new(2), Reg::new(1));
    asm.addq_imm(Reg::A1, 3, Reg::new(4));
    asm.ldq(Reg::new(3), 0, Reg::new(1));
    asm.addq(Reg::new(4), Reg::new(3), Reg::new(4));
    asm.addq(Reg::V0, Reg::new(4), Reg::V0);
    asm.addq_imm(Reg::A1, 1, Reg::A1);
    asm.cmplt_imm(Reg::A1, 200, Reg::new(2));
    asm.bne(Reg::new(2), top);
    asm.halt();
    asm.finish().unwrap()
}

const FORMS: [IsaForm; 3] = [IsaForm::Basic, IsaForm::Modified, IsaForm::Straightened];

fn unaligned_config(form: IsaForm, threshold: u32, async_translate: bool) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold,
            ..ProfileConfig::default()
        },
        async_translate,
        ..VmConfig::default()
    }
}

#[test]
fn unaligned_traps_recover_in_all_workload_like_shapes() {
    // Misaligned loads at a data-dependent iteration, both forms, with
    // the fragment installed inline or by the background pool: the
    // faulting load must not count as retired either way.
    let program = unaligned_load_loop(77);
    for form in FORMS {
        for async_translate in [false, true] {
            let config = unaligned_config(form, 3, async_translate);
            let what = format!("{form:?}, async {async_translate}");
            let (vm, _) = assert_traps_like_interpreter(&program, config, &what);
            assert!(
                vm.stats().engine.v_insts > 100,
                "{what}: trap ran translated"
            );
        }
    }
}

#[test]
fn a_trap_during_superblock_collection_keeps_what_ran() {
    // Threshold 10: iteration 10 is the one the profiler collects, so the
    // trap interrupts collection after part of the body has executed.
    let program = unaligned_load_loop(10);
    for form in FORMS {
        let config = unaligned_config(form, 10, false);
        assert_traps_like_interpreter(&program, config, &format!("{form:?}"));
    }
}

#[test]
fn unimplemented_fp_word_traps_precisely() {
    // A floating-point word decodes to `Inst::Unimplemented` (rather than
    // failing to decode) and raises a precise illegal-instruction trap:
    // faulting V-PC named, all prior architected state intact.
    use alpha_isa::{encode, Inst, Operand, OperateOp, Trap};
    let base = 0x1_0000u64;
    let addq = |ra: Reg, lit: u8, rc: Reg| {
        encode(Inst::Operate {
            op: OperateOp::Addq,
            ra,
            rb: Operand::Lit(lit),
            rc,
        })
        .unwrap()
    };
    let fp_word = (0x16u32 << 26) | 0x0842; // an ADDT-family (FLTI) encoding
    let program = Program::new(
        base,
        vec![
            addq(Reg::ZERO, 5, Reg::V0),
            addq(Reg::V0, 2, Reg::A1),
            fp_word,
        ],
    );
    let (_, end) = assert_traps_like_interpreter(&program, VmConfig::default(), "fp word");
    let End::Trapped { vaddr, trap, state } = end else {
        panic!("expected an illegal-instruction trap")
    };
    assert_eq!(vaddr, base + 8, "faulting V-PC");
    assert_eq!(trap, Trap::IllegalInstruction { word: fp_word });
    assert_eq!(state[Reg::V0.number() as usize], 5);
    assert_eq!(state[Reg::A1.number() as usize], 7);
}
