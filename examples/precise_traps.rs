//! Precise-trap recovery demonstration (paper §2.2): run a program whose
//! hot loop eventually performs a misaligned load, under both I-ISA
//! forms, and show that the VM delivers the trap with the exact faulting
//! V-address and the exact architected register state — even though the
//! basic ISA keeps some architected values only in accumulators. The
//! oracle (`ildp_core::oracle`) judges each run against the reference
//! interpreter.
//!
//! ```sh
//! cargo run --release --example precise_traps
//! ```

use alpha_isa::{Assembler, Reg, Trap};
use ildp_core::oracle::{reference, End, EndState};
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;

fn build_program() -> alpha_isa::Program {
    // The loop walks an array of quadwords; on iteration 50 the address
    // becomes misaligned (base + i*8 + 4), so the trap fires well after
    // the loop has been translated and is running as a fragment.
    let mut asm = Assembler::new(0x1_0000);
    let base = asm.zero_block(64 * 1024);
    asm.li32(Reg::A0, base as u32);
    asm.clr(Reg::A1); // i
    asm.clr(Reg::V0); // checksum
    let top = asm.here("top");
    asm.s8addq(Reg::A1, Reg::A0, Reg::new(1)); // base + i*8
    asm.cmpeq_imm(Reg::A1, 50, Reg::new(3)); // the poisoned iteration
    asm.s4addq(Reg::new(3), Reg::new(1), Reg::new(1)); // +4 when i == 50
    asm.ldq(Reg::new(2), 0, Reg::new(1)); // traps at i == 50
    asm.addq(Reg::V0, Reg::new(2), Reg::V0);
    asm.addq_imm(Reg::A1, 1, Reg::A1);
    asm.cmplt_imm(Reg::A1, 100, Reg::new(3));
    asm.bne(Reg::new(3), top);
    asm.halt();
    asm.finish().expect("program assembles")
}

fn main() {
    let program = build_program();

    // Reference: the interpreter's precise trap.
    let expected = reference(&program, 100_000).expect("the reference run ends");
    let End::Trapped { vaddr, trap, state } = &expected.end else {
        panic!("expected a trap, got {}", expected.end)
    };
    assert!(matches!(trap, Trap::UnalignedAccess { .. }));
    println!("interpreter trap     : {trap} at V-PC {vaddr:#x}");
    println!(
        "interpreter registers: a1={} v0={}\n",
        state[Reg::A1.number() as usize],
        state[Reg::V0.number() as usize]
    );

    for form in [IsaForm::Basic, IsaForm::Modified] {
        let config = VmConfig {
            translator: Translator {
                form,
                chain: ChainPolicy::SwPredDualRas,
                acc_count: 4,
                fuse_memory: false,
            },
            // Translate early so the trap happens in translated code.
            profile: ProfileConfig {
                threshold: 5,
                ..ProfileConfig::default()
            },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(100_000, &mut NullSink);
        if let Err(e) = expected.check(&EndState::of(&vm, &exit)) {
            panic!("{form:?}: {e}");
        }
        assert!(
            vm.stats().engine.v_insts > 100,
            "{form:?}: the trap must fire inside translated code"
        );
        println!(
            "{form:?} I-ISA       : same trap, same V-PC, all 32 recovered registers, memory \
             and retired count identical ({} V-insts ran translated before the trap)",
            vm.stats().engine.v_insts
        );
    }
    println!("\nprecise trap recovery verified for both I-ISA forms.");
}
