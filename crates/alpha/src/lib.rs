//! # alpha-isa — the Alpha V-ISA frontend
//!
//! A from-scratch implementation of the (integer) Alpha instruction set as
//! used by the co-designed virtual machine of Kim & Smith, *Dynamic Binary
//! Translation for Accumulator-Oriented Architectures* (CGO 2003). Alpha is
//! the **virtual ISA**: the outwardly visible instruction set that the
//! binary translator consumes and whose semantics the whole system must
//! preserve — including precise traps.
//!
//! The crate provides:
//!
//! * decoded instruction types ([`Inst`] and the per-format operation enums),
//! * real Alpha machine-word [`encode`]/[`decode`],
//! * a label-based [`Assembler`] for building test programs and workloads,
//! * sparse [`Memory`] and architected [`CpuState`],
//! * single-instruction functional semantics ([`step`]) with precise
//!   [`Trap`]s, and a reference interpreter ([`run_to_halt`]).
//!
//! # Examples
//!
//! Assemble and run the paper's Figure 2 inner loop:
//!
//! ```
//! use alpha_isa::{run_to_halt, AlignPolicy, Assembler, Reg};
//!
//! let mut asm = Assembler::new(0x1_0000);
//! let table = asm.zero_block(256 * 8);
//! let buf = asm.data_block(b"hello world".to_vec());
//! asm.li32(Reg::new(0), table as u32);  // r0 = CRC table
//! asm.li32(Reg::A0, buf as u32);        // r16 = input pointer
//! asm.lda_imm(Reg::A1, 11);             // r17 = length
//! let l1 = asm.here("L1");
//! asm.ldbu(Reg::new(3), 0, Reg::A0);
//! asm.subl_imm(Reg::A1, 1, Reg::A1);
//! asm.lda(Reg::A0, 1, Reg::A0);
//! asm.xor(Reg::new(1), Reg::new(3), Reg::new(3));
//! asm.srl_imm(Reg::new(1), 8, Reg::new(1));
//! asm.and_imm(Reg::new(3), 0xff, Reg::new(3));
//! asm.s8addq(Reg::new(3), Reg::new(0), Reg::new(3));
//! asm.ldq(Reg::new(3), 0, Reg::new(3));
//! asm.xor(Reg::new(3), Reg::new(1), Reg::new(1));
//! asm.bne(Reg::A1, l1);
//! asm.halt();
//!
//! let program = asm.finish()?;
//! let (mut cpu, mut mem) = program.load();
//! let stats = run_to_halt(&mut cpu, &mut mem, &program, AlignPolicy::Enforce, 10_000)?;
//! assert_eq!(stats.loads, 22); // 11 bytes × (ldbu + ldq)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod asm;
mod decode;
mod disasm;
mod encode;
mod exec;
mod inst;
mod interp;
mod mem;
mod parse;
mod program;
mod reg;
mod state;
mod trap;

pub use asm::{AsmError, Assembler, Label};
pub use decode::decode;
pub use disasm::disassemble;
pub use encode::{encode, EncodeError};
pub use exec::{step, AlignPolicy, Control, MemAccess, Outcome};
pub use inst::{BranchOp, Inst, JumpKind, MemOp, Operand, OperateOp, PalFunc, SourceRegs};
pub use interp::{run_to_halt, DecodeCache, RunError, RunStats};
pub use mem::{Memory, PageHasher};
pub use parse::{parse_program, ParseError};
pub use program::{DataSegment, Program};
pub use reg::Reg;
pub use state::CpuState;
pub use trap::Trap;
