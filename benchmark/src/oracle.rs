//! The correctness oracle behind `failed_frac`.
//!
//! A benchmark-owned reference interpreter built directly on alpha's
//! [`DecodeCache`] and [`step`] — nothing of the translator or the VM —
//! computes each program's architected end state once, at set-up. Every
//! measured run must then reproduce it exactly.

use alpha_isa::{step, AlignPolicy, Control, DecodeCache, Program};
use ildp_core::{Vm, VmExit};

/// The architected end state of a program run to its halt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Final integer register file.
    pub regs: [u64; 32],
    /// [`alpha_isa::Memory::content_digest`] of final memory.
    pub mem_digest: u64,
    /// Console bytes, in emission order.
    pub output: Vec<u8>,
    /// Retired instructions, architectural NOPs excluded — the count
    /// [`Vm::v_instructions`] reports in every execution mode.
    pub retired: u64,
}

/// Interprets `program` until it halts; traps and running past `budget`
/// steps are errors (every benchmark program must halt cleanly).
pub fn reference(program: &Program, budget: u64) -> Result<Expected, String> {
    let decoded = DecodeCache::new(program);
    let (mut cpu, mut mem) = program.load();
    let mut output = Vec::new();
    let mut retired = 0u64;
    for _ in 0..budget {
        let pc = cpu.pc;
        let inst = decoded
            .fetch(pc)
            .map_err(|t| format!("reference fetch trap at {pc:#x}: {t}"))?;
        let outcome = step(&mut cpu, &mut mem, inst, AlignPolicy::Enforce)
            .map_err(|t| format!("reference trap at {pc:#x}: {t}"))?;
        if !inst.is_nop() {
            retired += 1;
        }
        if let Some(b) = outcome.output {
            output.push(b);
        }
        if outcome.control == Control::Halt {
            return Ok(Expected {
                regs: cpu.registers(),
                mem_digest: mem.content_digest(),
                output,
                retired,
            });
        }
    }
    Err(format!("reference did not halt within {budget} steps"))
}

/// Checks a finished VM run against the reference end state. `Err`
/// names the first mismatch.
pub fn check(exit: &VmExit, vm: &Vm<'_>, expected: &Expected) -> Result<(), String> {
    if *exit != VmExit::Halted {
        return Err(format!("run ended with {exit:?}, not a clean halt"));
    }
    let regs = vm.cpu().registers();
    if let Some(r) = (0..32).find(|&r| regs[r] != expected.regs[r]) {
        return Err(format!(
            "r{r} = {:#x}, reference {:#x}",
            regs[r], expected.regs[r]
        ));
    }
    let digest = vm.memory().content_digest();
    if digest != expected.mem_digest {
        return Err(format!(
            "memory digest {digest:#x}, reference {:#x}",
            expected.mem_digest
        ));
    }
    if vm.output() != expected.output.as_slice() {
        return Err(format!(
            "{} console bytes differ from the reference's {}",
            vm.output().len(),
            expected.output.len()
        ));
    }
    if vm.v_instructions() != expected.retired {
        return Err(format!(
            "retired {} instructions, reference {}",
            vm.v_instructions(),
            expected.retired
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_isa::{Assembler, Reg};
    use ildp_core::{NullSink, VmConfig};

    fn looping_program() -> Program {
        let mut asm = Assembler::new(0x1_0000);
        let buf = asm.zero_block(64);
        asm.li32(Reg::A1, buf as u32);
        asm.lda_imm(Reg::A0, 200);
        let top = asm.here("top");
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.stq(Reg::V0, 8, Reg::A1);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.lda_imm(Reg::V0, b'!' as i16);
        asm.putchar();
        asm.halt();
        asm.finish().expect("test program assembles")
    }

    #[test]
    fn matching_run_passes_and_every_corruption_fails() {
        let program = looping_program();
        let expected = reference(&program, 10_000).expect("reference halts");
        let config = VmConfig {
            async_translate: false,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(10_000, &mut NullSink);
        assert!(vm.stats().fragments > 0, "the loop must run translated");
        check(&exit, &vm, &expected).expect("a correct run matches");

        let corruptions: [fn(&mut Expected); 4] = [
            |e| e.regs[0] ^= 1,
            |e| e.mem_digest ^= 1,
            |e| e.output.push(b'x'),
            |e| e.retired += 1,
        ];
        for corrupt in corruptions {
            let mut bad = expected.clone();
            corrupt(&mut bad);
            assert!(check(&exit, &vm, &bad).is_err(), "corruption went unseen");
        }
        assert!(check(&VmExit::Budget, &vm, &expected).is_err());
    }
}
