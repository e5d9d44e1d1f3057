//! # ildp-vm — the co-designed virtual machine, whole
//!
//! Facade crate re-exporting the workspace: a Rust reproduction of
//! Kim & Smith, *Dynamic Binary Translation for Accumulator-Oriented
//! Architectures* (CGO 2003). See the README for a tour and DESIGN.md for
//! the system inventory.
//!
//! * [`alpha`] — the Alpha V-ISA: machine-word encode/decode, assembler,
//!   memory, functional semantics with precise traps.
//! * [`isa`] — the accumulator-oriented I-ISA (basic and modified forms)
//!   with the co-designed VM's special instructions, and the straightened
//!   form carrying Alpha instructions 1:1.
//! * [`core_vm`] — the dynamic binary translator and VM: profiling,
//!   superblock collection, strand translation, fragment chaining, the
//!   translated-code engine and precise-trap recovery, for the accumulator
//!   forms and the code-straightening-only form alike.
//! * [`uarch`] — trace-driven timing models: the reference out-of-order
//!   superscalar and the distributed ILDP machine.
//! * [`workloads`] — the synthetic SPEC CPU2000 INT stand-in suite.
//!
//! # Examples
//!
//! ```
//! use ildp_vm::alpha::{Assembler, Reg};
//! use ildp_vm::core_vm::{Vm, VmConfig, VmExit, NullSink};
//!
//! let mut asm = Assembler::new(0x1_0000);
//! asm.lda_imm(Reg::A0, 100);
//! let top = asm.here("top");
//! asm.subq_imm(Reg::A0, 1, Reg::A0);
//! asm.bne(Reg::A0, top);
//! asm.halt();
//! let program = asm.finish()?;
//!
//! let mut vm = Vm::new(VmConfig::default(), &program);
//! assert_eq!(vm.run(10_000, &mut NullSink), VmExit::Halted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use alpha_isa as alpha;
pub use ildp_core as core_vm;
pub use ildp_isa as isa;
pub use ildp_uarch as uarch;
pub use spec_workloads as workloads;
