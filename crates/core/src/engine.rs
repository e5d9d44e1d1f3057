//! The translated-code execution engine.
//!
//! Stands in for the ILDP hardware's functional execution of I-ISA
//! fragments: it executes installed fragments against the architected
//! state, streams one [`DynInst`] record per retired instruction into a
//! [`TraceSink`] (the timing models), performs the runtime halves of
//! fragment chaining — the architectural dual-address RAS, the shared
//! dispatch code (modelled at its paper cost of 20 instructions), and
//! `call-translator` exits back to the VM — and delivers **precise traps**
//! by merging accumulator-resident architected values from the fragment's
//! recovery tables (paper §2.2).
//!
//! The engine never decodes [`IInst`]s while running. The translation
//! cache lowers each installed instruction once ([`lower`]) into an
//! [`Op`] whose operands are slots of one unified register file
//! ([`RegFile`]: the GPRs, a read-zero slot for `r31`, the accumulators
//! and a write sink), and re-lowers it whenever the instruction is
//! patched. Retirement statistics come from a per-fragment prefix table
//! ([`Retired`]), settled at fragment exits and self-loops rather than
//! counted per instruction.
//!
//! The same register file and op semantics also run interpreted code:
//! [`Engine::run_lowered`] executes the straight-line runs of the
//! interpreter's lowered tier ([`LoweredCode`](crate::profile::LoweredCode)),
//! whose ops come from [`lower_alpha`], one per Alpha instruction.

use crate::classify::{CategoryCounts, UsageCat};
use crate::error::VmError;
use crate::fragment::{
    FragmentId, IMeta, RecoveryEntry, TranslationCache, DISPATCH_COST_INSTS, DISPATCH_IADDR,
};
use crate::profile::Lowered;
use crate::translate::mem_width;
use alpha_isa::{
    AlignPolicy, CpuState, Inst, JumpKind, MemOp, Memory, Operand, OperateOp, PalFunc, Reg, Trap,
};
use ildp_isa::{ASrc, Acc, CondKind, IInst, ITarget, MemWidth};
use ildp_uarch::{DynInst, InstClass};

/// Consumes the retired-instruction stream.
///
/// The engine's run loop is monomorphized over the sink, so a sink that
/// declares [`TRACING`](TraceSink::TRACING) `false` compiles the whole
/// record-construction path out of the loop — functional runs pay nothing
/// for the tracing machinery.
pub trait TraceSink {
    /// Whether this sink consumes records. When `false` the engine skips
    /// building [`DynInst`]s entirely and never calls
    /// [`retire`](TraceSink::retire); trace output is unaffected for any
    /// sink that leaves this `true`.
    const TRACING: bool = true;

    /// Receives one retired instruction.
    fn retire(&mut self, inst: &DynInst);
}

/// A sink that discards the trace (functional-only runs).
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    const TRACING: bool = false;

    fn retire(&mut self, _inst: &DynInst) {}
}

impl<T: ildp_uarch::TimingModel> TraceSink for T {
    fn retire(&mut self, inst: &DynInst) {
        ildp_uarch::TimingModel::retire(self, inst);
    }
}

/// Why the engine returned to the VM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FragExit {
    /// Control reached a V-address with no translated fragment (a
    /// `call-translator` exit or a dispatch miss).
    NotTranslated {
        /// The continuation V-address.
        vtarget: u64,
    },
    /// The program halted.
    Halt,
    /// The engine's V-ISA instruction budget was exhausted mid-run.
    Budget,
    /// A precise trap: the faulting V-address, the condition, and the
    /// fully recovered architected register state.
    Trap {
        /// Faulting V-ISA instruction address.
        vaddr: u64,
        /// The trap condition.
        trap: Trap,
        /// Recovered architected registers (r0..r31).
        state: Box<[u64; 32]>,
    },
    /// A guest store was about to write a page holding translated source
    /// code (self-modifying code). The store has **not** executed; the VM
    /// invalidates the affected fragments and re-runs the store
    /// interpretively from `vaddr` with the recovered precise state —
    /// exactly the precise-trap discipline, reused for invalidation.
    SmcStore {
        /// Guest address the store targets.
        addr: u64,
        /// Width of the store in bytes.
        len: u64,
        /// V-address of the store instruction (the resume point).
        vaddr: u64,
        /// Recovered architected registers (r0..r31) before the store.
        state: Box<[u64; 32]>,
    },
    /// The per-dispatch fuel budget ([`EngineConfig::fuel`]) ran out. The
    /// engine preempts only at fragment boundaries, where the GPR file is
    /// architecturally complete, so the VM resumes interpretively at
    /// `vtarget` with no recovery merge.
    Preempted {
        /// Entry V-address of the fragment that was about to run.
        vtarget: u64,
    },
    /// A structural invariant failed at runtime — a corrupted or stale
    /// fragment reached execution. The VM surfaces this as
    /// [`VmExit::Fault`](crate::VmExit::Fault).
    Fault {
        /// What failed.
        error: VmError,
    },
    /// A fragment's entry count just reached the region-promotion
    /// trigger ([`EngineConfig::region_trigger`]). Surfaced *before* the
    /// hot entry executes, at a fragment boundary where the GPR file is
    /// architecturally complete, so the VM can re-form a region around
    /// the fragment and resume at `vtarget` with no recovery merge.
    RegionHot {
        /// Entry V-address of the hot fragment.
        vtarget: u64,
    },
}

/// Execution statistics accumulated by the engine (the dynamic side of
/// Table 2 and Figure 7).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Total I-ISA instructions executed (including dispatch expansion).
    ///
    /// The one counter that depends on budget pauses: a self-transfer
    /// inside one [`Engine::run`] resumes past the fragment's entry
    /// `set-vpc-base`, while a pause ends the run and the resumed entry
    /// executes it again. A paced run therefore counts at least as many
    /// as an unbroken one, never fewer; every other field is
    /// pause-invariant. Table 2 reads unbroken runs.
    pub executed: u64,
    /// Chaining-overhead instructions executed (including dispatch).
    pub chain_executed: u64,
    /// Copy instructions executed.
    pub copies_executed: u64,
    /// V-ISA instructions retired by translated code.
    pub v_insts: u64,
    /// Dynamic usage-category counts (Figure 7), array-backed and shared
    /// with the static side via [`CategoryCounts`].
    pub categories: CategoryCounts,
    /// Shared-dispatch executions.
    pub dispatches: u64,
    /// Architectural dual-RAS predictions that matched.
    pub ras_hits: u64,
    /// Architectural dual-RAS mismatches (fell through to dispatch).
    pub ras_misses: u64,
    /// Fragment entries.
    pub fragment_entries: u64,
    /// Entries into re-formed region fragments (a subset of
    /// `fragment_entries`).
    pub region_entries: u64,
}

impl EngineStats {
    /// Dynamic count for one usage category.
    pub fn category(&self, cat: UsageCat) -> u64 {
        self.categories.category(cat)
    }

    /// Total classified values retired (the Figure 7 denominator).
    pub fn categories_total(&self) -> u64 {
        self.categories.total()
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Instructions charged per shared-dispatch execution (paper: 20).
    pub dispatch_cost: u32,
    /// Architectural dual-RAS depth.
    pub ras_depth: usize,
    /// Alignment policy for translated memory accesses.
    pub align: AlignPolicy,
    /// Watchdog fuel: the maximum V-ISA instructions one [`Engine::run`]
    /// dispatch may retire before being preempted at the next fragment
    /// boundary ([`FragExit::Preempted`]). `None` disables the watchdog.
    pub fuel: Option<u64>,
    /// Fragment-entry count at which the engine surfaces
    /// [`FragExit::RegionHot`] so the VM can re-form a region around the
    /// hot fragment. The trigger compares with `==`, so it fires at most
    /// once per fragment: a promotion that fails (rejected, banned, or
    /// unmergeable) pushes the count past the trigger on re-entry and
    /// never re-fires. Region fragments themselves never re-trigger.
    /// `None` disables region promotion.
    pub region_trigger: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            dispatch_cost: DISPATCH_COST_INSTS,
            ras_depth: 8,
            align: AlignPolicy::Enforce,
            fuel: None,
            region_trigger: Some(4096),
        }
    }
}

/// Base address of the dispatch code's hash-table probes (for D-cache
/// behavior of the dispatch loads).
const DISPATCH_TABLE_BASE: u64 = 0xE000_0000;

/// Emits the trace records of one `n`-instruction shared-dispatch
/// execution for `vtarget`: a short dependence chain that hashes the
/// V-PC, probes the translation table (two loads), compares, then jumps
/// indirect to `target_iaddr` (back into the dispatcher on a miss).
fn trace_dispatch<S: TraceSink>(vtarget: u64, target_iaddr: Option<u64>, n: u32, sink: &mut S) {
    let hash = vtarget.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48;
    let probe = DISPATCH_TABLE_BASE + (hash & 0xfff) * 16;
    for k in 0..n {
        let pc = DISPATCH_IADDR + (k as u64) * 4;
        let mut d = DynInst::alu(pc, 4);
        d.vcount = 0;
        // Thread a dependence chain through scratch register names 200..
        // so the dispatch has realistic ILP (~4-deep chain).
        let scratch = 200 + (k % 4) as u8;
        d.dst = Some(scratch);
        if k > 0 {
            d.srcs[0] = Some(200 + ((k - 1) % 4) as u8);
        }
        if k == 2 || k == 3 {
            d.class = InstClass::Load;
            d.mem_addr = Some(probe + (k as u64 - 2) * 8);
        }
        if k == n - 1 {
            d.class = InstClass::IndirectJump;
            d.dst = None;
            d.next_pc = target_iaddr.unwrap_or(DISPATCH_IADDR);
            d.taken = true;
        }
        sink.retire(&d);
    }
}

/// One architectural dual-RAS entry: the architected (V, I) return-address
/// pair, plus a fast-path annotation — the fragment the I-address enters,
/// stamped with the cache epoch it was captured in. The link is followed
/// directly on a RAS hit when the epoch still matches; a stale or absent
/// link falls back to dispatch, exactly as the architected pair alone
/// would.
#[derive(Clone, Copy, Default, Debug)]
struct RasEntry {
    v: u64,
    i: u64,
    link: Option<FragmentId>,
    epoch: u64,
}

/// A slot in the engine's unified register file ([`RegFile`]).
type Slot = u8;

/// Slot every `r31` read resolves to; nothing ever writes it, so it
/// reads zero. (GPRs r0–r30 occupy the slots of their own numbers.)
const ZERO: Slot = 31;
/// Slot of accumulator 0; accumulator `n` lives at `ACC0 + n`.
const ACC0: Slot = 32;
/// Write-only slot taking every write to `r31` and every absent `dst`.
const SINK: Slot = ACC0 + Acc::MAX_ACCUMULATORS as Slot;

/// The slot a read of GPR `r` resolves to.
fn read_slot(r: Reg) -> Slot {
    r.number()
}

/// The slot a write of GPR `r` resolves to.
fn write_slot(r: Reg) -> Slot {
    if r.is_zero() {
        SINK
    } else {
        r.number()
    }
}

/// The slot an optional modified-form destination resolves to.
fn dst_slot(dst: Option<Reg>) -> Slot {
    dst.map_or(SINK, write_slot)
}

fn acc_slot(acc: Acc) -> Slot {
    ACC0 + acc.index() as Slot
}

/// An operand that is a register in the common case and an immediate
/// only rarely: `file[slot] + k`. A register or accumulator operand has
/// `k == 0`; an immediate reads the zero slot with `k` its value.
fn operand(src: ASrc, acc: Acc) -> (Slot, i16) {
    match src {
        ASrc::Acc => (acc_slot(acc), 0),
        ASrc::Gpr(r) => (read_slot(r), 0),
        ASrc::Imm(v) => (ZERO, v),
    }
}

/// The one list of the ops whose tag carries their operation: every
/// non-cmov ALU operation, named as its [`OperateOp`] variant, then the
/// conditional moves, which share [`Op::Cmov`], then every memory width
/// as `(MemWidth variant, load op, store op)`. Expands to
/// `$then! { { $args } [alu] [cmov] [widths] }`, so the [`Op`] variants,
/// the lowering maps ([`Op::operate`], [`Op::load`], [`Op::store`]) and
/// [`register_ops!`]'s arms all come from this list.
macro_rules! with_op_list {
    ($then:ident! { $($args:tt)* }) => {
        $then! {
            { $($args)* }
            [
                Addl Addq Subl Subq S4addl S4addq S8addq S4subq S8subq
                Cmpeq Cmplt Cmple Cmpult Cmpule
                And Bic Bis Ornot Xor Eqv
                Sll Srl Sra Extbl Extwl Extll Extql Insbl Mskbl Zapnot Zap
                Mull Mulq Umulh
            ]
            [Cmoveq Cmovne Cmovlt Cmovge Cmovle Cmovgt Cmovlbs Cmovlbc]
            [
                (U8, LoadU8, StoreU8)
                (U16, LoadU16, StoreU16)
                (I32, LoadI32, StoreI32)
                (U64, LoadU64, StoreU64)
            ]
        }
    };
}

/// Defines the enum in `$args` with one more variant per listed ALU
/// operation, load and store (see [`with_op_list!`]), and its lowering
/// maps from an operation or width to the variant.
macro_rules! define_op {
    (
        { $(#[$meta:meta])* $vis:vis enum Op { $($body:tt)* } }
        [$($alu:ident)*] [$($cmov:ident)*] [$(($w:ident, $load:ident, $store:ident))*]
    ) => {
        $(#[$meta])*
        $vis enum Op {
            $(
                #[doc = concat!("`acc, dst <- ", stringify!($alu), "(a + ka, b + kb)`.")]
                $alu(Operands),
            )*
            $(
                #[doc = concat!("`acc, dst <- mem[addr + disp]`, ", stringify!($w), ".")]
                $load(LoadOperands),
                #[doc = concat!("`mem[addr + disp] <- value + kv`, ", stringify!($w), ".")]
                $store(StoreOperands),
            )*
            $($body)*
        }

        impl Op {
            /// The op computing `op` on `x`: its own variant, or
            /// [`Op::Cmov`] for a conditional move.
            fn operate(op: OperateOp, x: Operands) -> Op {
                match op {
                    $(OperateOp::$alu => Op::$alu(x),)*
                    $(OperateOp::$cmov)|* => Op::Cmov { op, x },
                }
            }

            /// The load of `width`.
            fn load(width: MemWidth, x: LoadOperands) -> Op {
                match width {
                    $(MemWidth::$w => Op::$load(x),)*
                }
            }

            /// The store of `width`.
            fn store(width: MemWidth, x: StoreOperands) -> Op {
                match width {
                    $(MemWidth::$w => Op::$store(x),)*
                }
            }
        }
    };
}

/// Expands to a `match` on the [`Op`] behind the reference `$op`. Its
/// arms for the register ops — every op but the memory accesses and the
/// control transfers — execute the op on the [`RegFile`] `$f` and
/// evaluate to `$done`. Each load arm binds its width to `$lw` and its
/// operands to `$l` and runs the caller's `$load`; each store arm does
/// the same with `$store`. The caller's `$arms` handle every other op.
/// The one definition of the register ops, shared by fragments
/// ([`Engine::run`]) and interpreted runs ([`Engine::run_lowered`]). A
/// macro rather than a function so each caller dispatches once: a
/// shared function behind a catch-all arm costs the engine a second
/// dispatch per op. For the same reason every ALU operation and memory
/// width has its own arm, in which the operation ([`OperateOp::eval`] on
/// a constant) and the width fold away, and the match reads the op in
/// place, so each arm loads only its own fields: matching a copy made
/// the compiler split all 24 bytes into every variant's fields in front
/// of the jump.
macro_rules! register_ops {
    (
        $f:ident, $op:expr, $done:expr,
        load($lw:ident, $l:ident) => $load:block,
        store($sw:ident, $s:ident) => $store:block,
        { $($arms:tt)* }
    ) => {
        with_op_list! {
            register_ops_match! {
                $f, $op, $done, ($lw, $l) $load, ($sw, $s) $store, { $($arms)* }
            }
        }
    };
}

/// [`register_ops!`]'s body, over the list from [`with_op_list!`]; the
/// conditional moves share the [`Op::Cmov`] arm.
macro_rules! register_ops_match {
    (
        {
            $f:ident, $op:expr, $done:expr,
            ($lw:ident, $l:ident) $load:block,
            ($sw:ident, $s:ident) $store:block,
            { $($arms:tt)* }
        }
        [$($alu:ident)*] $_cmovs:tt [$(($w:ident, $ld:ident, $st:ident))*]
    ) => {
        match *$op {
            Op::Nop => $done,
            $(
                Op::$alu(x) => {
                    let r = OperateOp::$alu.eval($f.val(x.a, x.ka), $f.val(x.b, x.kb));
                    $f[x.acc] = r;
                    $f[x.dst] = r;
                    $done
                }
            )*
            $(
                Op::$ld($l) => {
                    let $lw = MemWidth::$w;
                    $load
                }
                Op::$st($s) => {
                    let $sw = MemWidth::$w;
                    $store
                }
            )*
            Op::AddImm { acc, dst, a, imm } => {
                let r = $f[a].wrapping_add(imm as i64 as u64);
                $f[acc] = r;
                $f[dst] = r;
                $done
            }
            Op::Const { acc, dst, value } => {
                $f[acc] = value;
                $f[dst] = value;
                $done
            }
            Op::Cmov { op, x } => {
                let r = if op.cmov_taken($f.val(x.a, x.ka)) {
                    $f.val(x.b, x.kb)
                } else {
                    $f[x.acc]
                };
                $f[x.acc] = r;
                $f[x.dst] = r;
                $done
            }
            Op::CmovSelect {
                lbs,
                acc,
                dst,
                value,
                kv,
                old,
            } => {
                let r = if ($f[acc] & 1 == 1) == lbs {
                    $f.val(value, kv)
                } else {
                    $f[old]
                };
                $f[acc] = r;
                $f[dst] = r;
                $done
            }
            Op::Mov { dst, src } => {
                $f[dst] = $f[src];
                $done
            }
            $($arms)*
        }
    };
}

/// The engine's unified register file: GPRs r0–r30, the read-zero slot
/// for r31, the accumulators and the write sink, addressed by [`Slot`].
/// It holds 256 entries so that every `u8` slot is in bounds without a
/// check; only the first `SINK + 1` are used.
#[derive(Clone, Debug)]
struct RegFile([u64; 256]);

impl std::ops::Index<Slot> for RegFile {
    type Output = u64;

    #[inline(always)]
    fn index(&self, s: Slot) -> &u64 {
        &self.0[s as usize]
    }
}

impl std::ops::IndexMut<Slot> for RegFile {
    #[inline(always)]
    fn index_mut(&mut self, s: Slot) -> &mut u64 {
        &mut self.0[s as usize]
    }
}

impl RegFile {
    /// Reads `file[slot] + k` (see [`operand`]).
    #[inline(always)]
    fn val(&self, s: Slot, k: i16) -> u64 {
        self[s].wrapping_add(k as i64 as u64)
    }

    /// The effective address of a memory op, checked against `align`.
    #[inline(always)]
    fn address(
        &self,
        addr: Slot,
        disp: i32,
        width: MemWidth,
        align: AlignPolicy,
    ) -> Result<u64, Trap> {
        let a = self[addr].wrapping_add(disp as i64 as u64);
        let bytes = width.bytes();
        if align == AlignPolicy::Enforce && bytes > 1 && !a.is_multiple_of(bytes as u64) {
            return Err(Trap::UnalignedAccess {
                addr: a,
                required: bytes,
            });
        }
        Ok(a)
    }

    /// `acc, dst <- mem[a]`, `a` checked by [`address`](RegFile::address).
    #[inline(always)]
    fn read_mem(&mut self, mem: &Memory, width: MemWidth, acc: Slot, dst: Slot, a: u64) {
        let v = match width {
            MemWidth::U8 => mem.read_u8(a) as u64,
            MemWidth::U16 => mem.read_u16(a) as u64,
            MemWidth::I32 => mem.read_u32(a) as i32 as i64 as u64,
            MemWidth::U64 => mem.read_u64(a),
        };
        self[acc] = v;
        self[dst] = v;
    }

    /// `mem[a] <- value + kv`, `a` checked by [`address`](RegFile::address).
    #[inline(always)]
    fn write_mem(&self, mem: &mut Memory, width: MemWidth, a: u64, value: Slot, kv: i16) {
        let v = self.val(value, kv);
        match width {
            MemWidth::U8 => mem.write_u8(a, v as u8),
            MemWidth::U16 => mem.write_u16(a, v as u16),
            MemWidth::I32 => mem.write_u32(a, v as u32),
            MemWidth::U64 => mem.write_u64(a, v),
        }
    }

    /// Loads the architected GPRs at engine entry.
    fn load(&mut self, cpu: &CpuState) {
        self.0[..32].copy_from_slice(&cpu.registers());
    }

    /// Writes the GPRs back to the architected state at engine exit.
    fn store(&self, cpu: &mut CpuState) {
        cpu.set_registers(self.0.first_chunk().expect("the file starts with the GPRs"));
    }

    /// The precise architected register state at a PEI (paper §2.2): the
    /// GPRs merged with the accumulator-resident values named by the
    /// instruction's recovery entries.
    fn precise(&self, recovery: Option<&Vec<RecoveryEntry>>) -> Box<[u64; 32]> {
        let mut state = Box::new([0; 32]);
        state.copy_from_slice(&self.0[..32]);
        for e in recovery.into_iter().flatten() {
            state[e.reg.number() as usize] = self[acc_slot(e.acc)];
        }
        state
    }
}

/// The operands of an ALU op, `acc, dst <- op(a + ka, b + kb)`, each
/// operand read as in [`operand`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Operands {
    acc: Slot,
    dst: Slot,
    a: Slot,
    ka: i16,
    b: Slot,
    kb: i16,
}

/// The operands of a load, `acc, dst <- mem[addr + disp]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LoadOperands {
    acc: Slot,
    dst: Slot,
    addr: Slot,
    disp: i32,
}

/// The operands of a store, `mem[addr + disp] <- value + kv`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct StoreOperands {
    addr: Slot,
    disp: i32,
    value: Slot,
    kv: i16,
}

with_op_list! { define_op! {
    /// One installed I-ISA instruction lowered for execution: operands
    /// resolved to [`RegFile`] slots, immediates split out, direct links
    /// folded in. The translation cache lowers every instruction at
    /// install and re-lowers it at every patch, un-patch and edit
    /// ([`lower`]), so [`Engine::run`] dispatches on this type alone, once
    /// per op: the tag names the ALU operation and the memory width
    /// (variants generated from [`with_op_list!`]: `Addq`, …, `Umulh`
    /// over [`Operands`]; `LoadU8`, …, `StoreU64`). Only the rare
    /// conditional moves and the branch conditions still carry the
    /// operation they test.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Op {
        /// `set-vpc-base`: nothing to execute.
        Nop,
        /// `acc, dst <- a + imm`: `addq`/`subq` with a literal, `lda` and
        /// add-high, whose immediate does not fit [`Operands`].
        AddImm {
            acc: Slot,
            dst: Slot,
            a: Slot,
            imm: i32,
        },
        /// `acc, dst <- value`: an operation on immediates alone, folded
        /// (and `load-embedded-target-address` / `save-V-ISA-return-address`,
        /// which write one of the two).
        Const { acc: Slot, dst: Slot, value: u64 },
        /// An Alpha conditional move in operate form:
        /// `acc, dst <- cmov_taken(a) ? b : acc`.
        Cmov { op: OperateOp, x: Operands },
        /// `acc, dst <- (low bit of acc == lbs) ? value : old`.
        CmovSelect {
            lbs: bool,
            acc: Slot,
            dst: Slot,
            value: Slot,
            kv: i16,
            old: Slot,
        },
        /// `copy-to-GPR` / `copy-from-GPR`: `dst <- src`.
        Mov { dst: Slot, src: Slot },
        /// A resolved conditional branch; `taken_pc` is the traced target.
        CondBr {
            cond: CondKind,
            src: Slot,
            k: i16,
            link: Option<FragmentId>,
            taken_pc: u64,
        },
        /// A resolved unconditional branch.
        Br { link: Option<FragmentId> },
        /// A return through the dual-address RAS.
        Ret { addr: Slot, k: i16 },
        /// `push-dual-address-RAS` with a resolved I-side address; `link` is
        /// the raw id of the fragment `iret` enters, [`NO_LINK`] if none.
        PushRas { vret: u64, iret: u64, link: u32 },
        /// A dual-RAS push whose I-side address was never resolved.
        PushRasUnresolved,
        /// `call-translator-if-condition-is-met`.
        ExitIf {
            cond: CondKind,
            src: Slot,
            k: i16,
            vtarget: u64,
        },
        /// `call-translator`.
        Exit { vtarget: u64 },
        /// Transfer to the shared dispatch code.
        Dispatch { src: Slot, k: i16 },
        /// Raise `gentrap`.
        GenTrap,
        /// Console byte output.
        PutChar { src: Slot, k: i16 },
        /// Halt the machine.
        Halt,
    }
} }

/// [`Op::PushRas`]'s `link` for a push with no direct link.
const NO_LINK: u32 = u32::MAX;

// Every op fits three words, so the lowered stream stays compact.
const _: () = assert!(std::mem::size_of::<Op>() <= 24);

/// Lowers one installed instruction. `link` is its direct link and
/// `fallthrough` the I-address after it (the traced target of a branch
/// whose target is not an address).
pub(crate) fn lower(inst: &IInst, link: Option<FragmentId>, fallthrough: u64) -> Op {
    let taken_pc = |target: ITarget| match target {
        ITarget::Addr(a) => a,
        ITarget::Local(_) => fallthrough,
    };
    let imm = |v: i16| v as i64 as u64;
    match *inst {
        IInst::Op {
            op,
            acc,
            lhs,
            rhs,
            dst,
        } => lower_operate(op, (acc_slot(acc), dst_slot(dst)), lhs, rhs, acc),
        IInst::AddHigh {
            acc,
            src,
            imm: hi,
            dst,
        } => {
            let high = i32::from(hi) << 16;
            let (acc_s, dst) = (acc_slot(acc), dst_slot(dst));
            match src {
                ASrc::Imm(v) => Op::Const {
                    acc: acc_s,
                    dst,
                    value: imm(v).wrapping_add(high as i64 as u64),
                },
                _ => Op::AddImm {
                    acc: acc_s,
                    dst,
                    a: operand(src, acc).0,
                    imm: high,
                },
            }
        }
        IInst::CmovSelect {
            lbs,
            acc,
            value,
            old,
            dst,
        } => {
            let (value, kv) = operand(value, acc);
            Op::CmovSelect {
                lbs,
                acc: acc_slot(acc),
                dst: dst_slot(dst),
                value,
                kv,
                old: read_slot(old),
            }
        }
        IInst::Load {
            acc,
            width,
            addr,
            disp,
            dst,
        } => {
            let (addr, k) = operand(addr, acc);
            Op::load(
                width,
                LoadOperands {
                    acc: acc_slot(acc),
                    dst: dst_slot(dst),
                    addr,
                    disp: i32::from(k) + i32::from(disp),
                },
            )
        }
        IInst::Store {
            acc,
            width,
            addr,
            disp,
            value,
        } => {
            let (addr, k) = operand(addr, acc);
            let (value, kv) = operand(value, acc);
            Op::store(
                width,
                StoreOperands {
                    addr,
                    disp: i32::from(k) + i32::from(disp),
                    value,
                    kv,
                },
            )
        }
        IInst::CopyToGpr { acc, dst } => Op::Mov {
            dst: write_slot(dst),
            src: acc_slot(acc),
        },
        IInst::CopyFromGpr { acc, src } => Op::Mov {
            dst: acc_slot(acc),
            src: read_slot(src),
        },
        IInst::CondBranch {
            cond,
            acc,
            src,
            target,
        } => {
            let (src, k) = operand(src, acc);
            Op::CondBr {
                cond,
                src,
                k,
                link,
                taken_pc: taken_pc(target),
            }
        }
        IInst::Branch { .. } => Op::Br { link },
        IInst::IndirectJump { acc, kind, addr } => {
            debug_assert_eq!(kind, JumpKind::Ret, "only returns reach the engine");
            let (addr, k) = operand(addr, acc);
            Op::Ret { addr, k }
        }
        IInst::SetVpcBase { .. } => Op::Nop,
        IInst::LoadEmbeddedTarget { acc, vaddr } => Op::Const {
            acc: acc_slot(acc),
            dst: SINK,
            value: vaddr,
        },
        IInst::SaveVReturn { dst, vaddr } => Op::Const {
            acc: SINK,
            dst: write_slot(dst),
            value: vaddr,
        },
        IInst::PushDualRas { vret, iret } => match iret {
            ITarget::Addr(iret) => Op::PushRas {
                vret,
                iret,
                link: link.map_or(NO_LINK, |f| f.0),
            },
            ITarget::Local(_) => Op::PushRasUnresolved,
        },
        IInst::CallTranslatorIfCond {
            cond,
            acc,
            src,
            vtarget,
        } => {
            let (src, k) = operand(src, acc);
            Op::ExitIf {
                cond,
                src,
                k,
                vtarget,
            }
        }
        IInst::CallTranslator { vtarget } => Op::Exit { vtarget },
        IInst::Dispatch { acc, src } => {
            let (src, k) = operand(src, acc);
            Op::Dispatch { src, k }
        }
        IInst::GenTrap => Op::GenTrap,
        IInst::PutChar { acc, src } => {
            let (src, k) = operand(src, acc);
            Op::PutChar { src, k }
        }
        IInst::Halt => Op::Halt,
        IInst::Alpha(inst) => lower_alpha(inst),
    }
}

/// Lowers `acc, dst <- op(lhs, rhs)` onto the result slots `(acc, dst)`;
/// `acc` resolves [`ASrc::Acc`] operands.
fn lower_operate(op: OperateOp, (acc_s, dst): (Slot, Slot), lhs: ASrc, rhs: ASrc, acc: Acc) -> Op {
    let imm = |v: i16| v as i64 as u64;
    let (a, ka) = operand(lhs, acc);
    let (b, kb) = operand(rhs, acc);
    let acc = acc_s;
    match (lhs, rhs) {
        (ASrc::Imm(x), ASrc::Imm(y)) if !op.is_cmov() => Op::Const {
            acc,
            dst,
            value: op.eval(imm(x), imm(y)),
        },
        (_, ASrc::Imm(y)) if op == OperateOp::Addq => Op::AddImm {
            acc,
            dst,
            a,
            imm: y.into(),
        },
        (_, ASrc::Imm(y)) if op == OperateOp::Subq => Op::AddImm {
            acc,
            dst,
            a,
            imm: -i32::from(y),
        },
        _ => Op::operate(
            op,
            Operands {
                acc,
                dst,
                a,
                ka,
                b,
                kb,
            },
        ),
    }
}

/// Lowers a non-control Alpha instruction carried by the straightened
/// form. Results go to GPR slots only (accumulator slot [`SINK`]), except
/// a cmov's: its accumulator slot is its destination register, which
/// keeps its old value when the move is not taken.
pub(crate) fn lower_alpha(inst: Inst) -> Op {
    match inst {
        Inst::Operate { op, ra, rb, rc } => {
            let rhs = match rb {
                Operand::Reg(r) => ASrc::Gpr(r),
                Operand::Lit(v) => ASrc::Imm(v.into()),
            };
            let slots = if op.is_cmov() {
                (write_slot(rc), SINK)
            } else {
                (SINK, write_slot(rc))
            };
            lower_operate(op, slots, ASrc::Gpr(ra), rhs, Acc::new(0))
        }
        Inst::Mem { op, ra, rb, disp } => {
            let (dst, addr, disp) = (write_slot(ra), read_slot(rb), i32::from(disp));
            match op {
                MemOp::Lda => Op::AddImm {
                    acc: SINK,
                    dst,
                    a: addr,
                    imm: disp,
                },
                MemOp::Ldah => Op::AddImm {
                    acc: SINK,
                    dst,
                    a: addr,
                    imm: disp << 16,
                },
                _ if op.is_load() => Op::load(
                    mem_width(op),
                    LoadOperands {
                        acc: SINK,
                        dst,
                        addr,
                        disp,
                    },
                ),
                _ => Op::store(
                    mem_width(op),
                    StoreOperands {
                        addr,
                        disp,
                        value: read_slot(ra),
                        kv: 0,
                    },
                ),
            }
        }
        Inst::CallPal { func } => match func {
            PalFunc::Halt => Op::Halt,
            PalFunc::GenTrap => Op::GenTrap,
            PalFunc::PutChar => Op::PutChar {
                src: read_slot(Reg::A0),
                k: 0,
            },
            // Architecturally a NOP.
            PalFunc::Other(_) => Op::Const {
                acc: SINK,
                dst: SINK,
                value: 0,
            },
        },
        Inst::Branch { .. } | Inst::Jump { .. } | Inst::Unimplemented { .. } => {
            unreachable!("the straightened form carries no {inst:?}")
        }
    }
}

/// Why [`Engine::run_lowered`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LoweredEnd {
    /// In front of an entry that is not a lowered op, of a cut, or with
    /// the budget retired: the caller tells which.
    Stop,
    /// The op at the stop index trapped; it did not execute or retire.
    Trap(Trap),
    /// The op in front of the stop index stored into a page holding
    /// translated source code; the store has completed and retired.
    SmcStore {
        /// Guest address written.
        addr: u64,
        /// Width of the store in bytes.
        len: u64,
    },
}

/// One row of a fragment's retirement prefix table: what instructions
/// `[0, k)` retire. The engine settles a stretch `[from, to)` of
/// executed instructions as the difference of two rows, at fragment
/// exits and self-loops, instead of counting per instruction.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct Retired {
    pub(crate) v_insts: u32,
    pub(crate) chain: u32,
    pub(crate) copies: u32,
    pub(crate) categories: [u32; UsageCat::COUNT],
}

impl Retired {
    /// The prefix table of a fragment: `insts.len() + 1` rows.
    pub(crate) fn table(insts: &[IInst], meta: &[IMeta]) -> Vec<Retired> {
        let mut row = Retired::default();
        let mut table = Vec::with_capacity(insts.len() + 1);
        table.push(row);
        for (inst, m) in insts.iter().zip(meta) {
            row.add(inst, m);
            table.push(row);
        }
        table
    }

    /// Advances a prefix row past one instruction.
    #[inline]
    pub(crate) fn add(&mut self, inst: &IInst, m: &IMeta) {
        self.v_insts += u32::from(m.vcount);
        self.chain += u32::from(m.is_chain);
        self.copies += u32::from(inst.is_copy());
        if let Some(cat) = m.category {
            self.categories[cat.index()] += 1;
        }
    }
}

impl EngineStats {
    /// Books the retirement of instructions `[from, to)` of a fragment
    /// whose prefix table is `table`.
    #[inline]
    fn settle(&mut self, table: &[Retired], from: usize, to: usize) {
        let (a, b) = (&table[from], &table[to]);
        self.executed += (to - from) as u64;
        self.v_insts += u64::from(b.v_insts - a.v_insts);
        self.chain_executed += u64::from(b.chain - a.chain);
        self.copies_executed += u64::from(b.copies - a.copies);
        for (n, (x, y)) in self
            .categories
            .0
            .iter_mut()
            .zip(a.categories.iter().zip(&b.categories))
        {
            *n += u64::from(y - x);
        }
    }
}

/// The fragment execution engine. See the module documentation.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    file: RegFile,
    ras: Vec<RasEntry>,
    ras_top: usize,
    ras_live: usize,
    /// Bytes written by `putchar`.
    pub output: Vec<u8>,
    /// Accumulated statistics.
    pub stats: EngineStats,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            config,
            file: RegFile([0; 256]),
            ras: vec![RasEntry::default(); config.ras_depth],
            ras_top: 0,
            ras_live: 0,
            output: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    fn ras_push(&mut self, entry: RasEntry) {
        self.ras_top = (self.ras_top + 1) % self.ras.len();
        self.ras[self.ras_top] = entry;
        self.ras_live = (self.ras_live + 1).min(self.ras.len());
    }

    fn ras_pop(&mut self) -> Option<RasEntry> {
        if self.ras_live == 0 {
            return None;
        }
        let entry = self.ras[self.ras_top];
        self.ras_top = (self.ras_top + self.ras.len() - 1) % self.ras.len();
        self.ras_live -= 1;
        Some(entry)
    }

    /// Models one pass through the shared dispatch code (paper: 20
    /// instructions, ending in the indirect jump that `no_pred` chaining
    /// stresses) to V-address `vtarget`: charges its instruction cost to
    /// the statistics and, for tracing sinks, streams the dispatch
    /// sequence's retire records. Returns the fragment translated from
    /// `vtarget`, where control continues (`None`: a miss, which the
    /// final indirect jump models as re-entering the dispatch address).
    fn run_dispatch<S: TraceSink>(
        &mut self,
        cache: &TranslationCache,
        vtarget: u64,
        sink: &mut S,
    ) -> Option<FragmentId> {
        let target = cache.lookup(vtarget);
        self.stats.dispatches += 1;
        let n = self.config.dispatch_cost.max(2);
        self.stats.executed += n as u64;
        self.stats.chain_executed += n as u64;
        if S::TRACING {
            trace_dispatch(vtarget, target.map(|t| cache.fragment(t).istart), n, sink);
        }
        target
    }

    /// Executes translated code starting at `entry` until the program
    /// halts, traps, or reaches an untranslated continuation.
    ///
    /// `cpu` is the architected GPR file (`cpu.pc` is not used while in
    /// translated code — the implementation PC sequences fragments, as in
    /// the paper's §2.2). The engine executes against its own unified
    /// register file, loaded from `cpu` here and written back on return.
    ///
    /// Monomorphized over the sink: with a non-tracing sink
    /// ([`NullSink`]), record construction compiles out entirely.
    pub fn run<S: TraceSink>(
        &mut self,
        cache: &mut TranslationCache,
        entry: FragmentId,
        cpu: &mut CpuState,
        mem: &mut Memory,
        budget_v: u64,
        sink: &mut S,
    ) -> FragExit {
        self.file.load(cpu);
        let exit = self.execute(cache, entry, &mut cpu.pc, mem, budget_v, sink);
        self.file.store(cpu);
        exit
    }

    fn execute<S: TraceSink>(
        &mut self,
        cache: &mut TranslationCache,
        entry: FragmentId,
        pc: &mut u64,
        mem: &mut Memory,
        budget_v: u64,
        sink: &mut S,
    ) -> FragExit {
        let mut fid = entry;
        // Watchdog: preempt at the next fragment boundary once this many
        // V-instructions have retired in this dispatch.
        let fuel_limit = self.config.fuel.map(|f| self.stats.v_insts + f.max(1));
        // Every transfer of control *between* fragments converges on the
        // top of this loop: it books fragment entries and re-borrows the
        // new fragment's op / retirement / template slices once, so the
        // per-instruction loop below indexes flat slices instead of
        // re-resolving the fragment through the cache on every iteration.
        // Self-transfers (the hot shape after region re-formation) take a
        // fast path at the bottom of the inner loop that restarts at the
        // loop entry with the slices already in hand.
        'fragment: loop {
            // A stale direct path into an invalidated slot is a contained
            // fault, not a panic: the unlink paths should make this
            // unreachable, but a resilient engine verifies.
            let Some(vstart) = cache.try_fragment(fid).map(|f| f.vstart) else {
                return FragExit::Fault {
                    error: VmError::DeadFragment { fragment: fid.0 },
                };
            };
            // Budget and fuel are checked only at fragment boundaries,
            // where the GPR file is architecturally complete and the
            // V-PC is the fragment entry — both exits leave the VM
            // resumable. Every inter-fragment transfer converges on this
            // loop top and `idx` below only moves forward, so the
            // overshoot is bounded by one fragment.
            if self.stats.v_insts >= budget_v {
                *pc = vstart;
                return FragExit::Budget;
            }
            if let Some(limit) = fuel_limit {
                if self.stats.v_insts >= limit {
                    return FragExit::Preempted { vtarget: vstart };
                }
            }
            let (base_entries, is_region) = {
                let f = cache.fragment_mut(fid);
                f.entries += 1;
                f.referenced = true;
                (f.entries, f.is_region)
            };
            if is_region {
                self.stats.region_entries += 1;
            } else if self.config.region_trigger == Some(base_entries) {
                // The hot entry is counted but has not executed: the VM
                // re-forms the region and resumes at the boundary. A
                // failed promotion re-enters past the trigger, so this
                // fires at most once per fragment.
                return FragExit::RegionHot { vtarget: vstart };
            }
            self.stats.fragment_entries += 1;
            if S::TRACING {
                cache.build_templates(fid);
            }
            let frag = cache.fragment(fid);
            let ops = frag.ops.as_slice();
            let retired = frag.retired.as_slice();
            let templates = frag.templates.as_slice();
            // Self-transfers (a fragment branching back to its own head,
            // the shape every re-formed loop region resolves to) restart
            // the instruction loop below without re-entering `'fragment`;
            // their entry bookkeeping is batched here and flushed into the
            // fragment's counter at every exit from the loop.
            let mut pending_entries: u64 = 0;
            // Resume index for self-transfers: past the leading
            // `set-vpc-base` (always emitted first), which only re-asserts
            // the base address a self-loop already has.
            let loop_entry = usize::from(matches!(ops.first(), Some(Op::Nop)));
            // Instructions `[start, idx)` have executed on this pass but
            // their retirement is not yet booked: it is settled from the
            // prefix table at every self-loop and every exit.
            let mut start: usize = 0;
            let mut idx: usize = 0;
            loop {
                // Leaves the fragment: settles retirement through
                // instruction `$end` (exclusive) and the batched
                // self-loop entries.
                macro_rules! settle {
                    ($end:expr) => {{
                        self.stats.settle(retired, start, $end);
                        if pending_entries != 0 {
                            cache.fragment_mut(fid).entries += pending_entries;
                        }
                    }};
                }
                let Some(op) = ops.get(idx) else {
                    // Ran off the fragment's end without a block terminal —
                    // only reachable through corruption.
                    settle!(ops.len());
                    return FragExit::Fault {
                        error: VmError::FragmentOverrun { fragment: fid.0 },
                    };
                };

                // The template carries every static record field; only
                // dynamic outcomes (taken, mem_addr, v_target, the taken
                // next_pc) are patched below.
                let mut d = if S::TRACING {
                    templates[idx]
                } else {
                    DynInst::alu(0, 0)
                };
                // Retires this instruction's record, settles through it and
                // returns `$exit`.
                macro_rules! leave {
                    ($exit:expr) => {{
                        let exit = $exit;
                        if S::TRACING {
                            sink.retire(&d);
                        }
                        settle!(idx + 1);
                        return exit;
                    }};
                }
                // Stops at a faulting instruction — a trap, or an SMC
                // store the VM re-runs interpretively — and returns `$exit`
                // (evaluated first: precise state reads the register file
                // as it is before the exit). The instruction does not
                // retire, but the straightened-away branches credited with
                // it did, so settlement stops short of it and books their
                // share of its credit.
                macro_rules! fault {
                    ($exit:expr) => {{
                        let exit = $exit;
                        let credit = frag.meta[idx].vcount;
                        settle!(idx);
                        self.stats.v_insts += u64::from(credit.saturating_sub(1));
                        return exit;
                    }};
                }
                let precise = move |file: &RegFile| file.precise(frag.recovery.get(&(idx as u32)));
                let unlinked = move || FragExit::Fault {
                    error: VmError::UnlinkedTransfer {
                        fragment: fid.0,
                        index: idx as u32,
                    },
                };
                let f = &mut self.file;

                // The fragment control transfers to, if any; `None` falls
                // through to idx + 1.
                let goto = register_ops!(f, op, None,
                load(width, m) => {
                    let a = match f.address(m.addr, m.disp, width, self.config.align) {
                        Ok(a) => a,
                        Err(trap) => fault!(FragExit::Trap {
                            vaddr: frag.meta[idx].vaddr,
                            trap,
                            state: precise(f),
                        }),
                    };
                    if S::TRACING {
                        d.mem_addr = Some(a);
                    }
                    f.read_mem(mem, width, m.acc, m.dst, a);
                    None
                },
                store(width, m) => {
                    let a = match f.address(m.addr, m.disp, width, self.config.align) {
                        Ok(a) => a,
                        Err(trap) => fault!(FragExit::Trap {
                            vaddr: frag.meta[idx].vaddr,
                            trap,
                            state: precise(f),
                        }),
                    };
                    let len = width.bytes() as u64;
                    if cache.smc_hit(a, len) {
                        // Self-modifying code: surface the store *before*
                        // it executes, with precise state (the store's
                        // recovery table). The VM re-runs it
                        // interpretively after invalidating the affected
                        // fragments.
                        fault!(FragExit::SmcStore {
                            addr: a,
                            len,
                            vaddr: frag.meta[idx].vaddr,
                            state: precise(f),
                        });
                    }
                    if S::TRACING {
                        d.mem_addr = Some(a);
                    }
                    f.write_mem(mem, width, a, m.value, m.kv);
                    None
                },
                {
                    Op::CondBr {
                        cond,
                        src,
                        k,
                        link,
                        taken_pc,
                    } => {
                        if cond.eval(f.val(src, k)) {
                            // Every resolved branch keeps its direct link in
                            // lockstep with the instruction word; a missing
                            // link means the target fragment vanished without
                            // this site being un-patched.
                            let Some(t) = link else {
                                leave!(unlinked());
                            };
                            if S::TRACING {
                                d.taken = true;
                                d.next_pc = taken_pc;
                            }
                            Some(t)
                        } else {
                            None
                        }
                    }
                    // class, taken and next_pc are static — already in the
                    // template.
                    Op::Br { link } => match link {
                        Some(t) => Some(t),
                        None => leave!(unlinked()),
                    },
                    Op::Ret { addr, k } => {
                        let actual_v = f.val(addr, k) & !3u64;
                        if S::TRACING {
                            d.v_target = actual_v;
                        }
                        match self.ras_pop() {
                            Some(e) if e.v == actual_v => {
                                self.stats.ras_hits += 1;
                                if S::TRACING {
                                    d.taken = true;
                                    d.next_pc = e.i;
                                }
                                // The direct link is valid only within the
                                // epoch it was captured in: a stale link (the
                                // cache was flushed since the push) and an
                                // unresolved push (no link) both go through
                                // dispatch, architecturally correct either
                                // way.
                                match e.link.filter(|_| e.epoch == cache.epoch()) {
                                    Some(t) => Some(t),
                                    None => {
                                        if S::TRACING {
                                            sink.retire(&d);
                                        }
                                        settle!(idx + 1);
                                        match self.run_dispatch(cache, actual_v, sink) {
                                            Some(t) => {
                                                fid = t;
                                                continue 'fragment;
                                            }
                                            None => {
                                                return FragExit::NotTranslated {
                                                    vtarget: actual_v,
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            _ => {
                                // Mismatch: fall through to the dispatch
                                // instruction that follows the return (the
                                // template's taken stays false).
                                self.stats.ras_misses += 1;
                                None
                            }
                        }
                    }
                    // class and ras_pair are static — in the template.
                    Op::PushRas { vret, iret, link } => {
                        let epoch = cache.epoch();
                        self.ras_push(RasEntry {
                            v: vret,
                            i: iret,
                            link: (link != NO_LINK).then_some(FragmentId(link)),
                            epoch,
                        });
                        None
                    }
                    Op::PushRasUnresolved => leave!(FragExit::Fault {
                        error: VmError::UnresolvedDualRas {
                            fragment: fid.0,
                            index: idx as u32,
                        },
                    }),
                    Op::ExitIf {
                        cond,
                        src,
                        k,
                        vtarget,
                    } => {
                        let taken = cond.eval(f.val(src, k));
                        if S::TRACING {
                            d.taken = taken;
                            if taken {
                                d.next_pc = DISPATCH_IADDR;
                            }
                        }
                        if taken {
                            leave!(FragExit::NotTranslated { vtarget });
                        }
                        None
                    }
                    // class, taken and next_pc are static — in the template.
                    Op::Exit { vtarget } => leave!(FragExit::NotTranslated { vtarget }),
                    Op::Dispatch { src, k } => {
                        let v = f.val(src, k) & !3u64;
                        if S::TRACING {
                            sink.retire(&d);
                        }
                        settle!(idx + 1);
                        match self.run_dispatch(cache, v, sink) {
                            Some(t) => {
                                fid = t;
                                continue 'fragment;
                            }
                            None => return FragExit::NotTranslated { vtarget: v },
                        }
                    }
                    Op::GenTrap => {
                        let state = precise(f);
                        fault!(FragExit::Trap {
                            vaddr: frag.meta[idx].vaddr,
                            trap: Trap::GenTrap {
                                code: state[Reg::A0.number() as usize],
                            },
                            state,
                        });
                    }
                    Op::PutChar { src, k } => {
                        let b = f.val(src, k) as u8;
                        self.output.push(b);
                        None
                    }
                    Op::Halt => leave!(FragExit::Halt),
                });

                if S::TRACING {
                    sink.retire(&d);
                }
                let Some(t) = goto else {
                    idx += 1;
                    continue;
                };
                if t != fid {
                    settle!(idx + 1);
                    fid = t;
                    continue 'fragment;
                }
                // Self-transfer fast path: the target is the fragment
                // already resident in the loop's slices, so restart
                // without re-borrowing it — keeping the boundary checks
                // and the entry accounting the loop top would have
                // performed. The GPR file is architecturally complete here
                // (every fragment entry assumes it), so budget, fuel, and
                // region-hot exits stay resumable.
                self.stats.settle(retired, start, idx + 1);
                start = loop_entry;
                if self.stats.v_insts >= budget_v {
                    cache.fragment_mut(fid).entries += pending_entries;
                    *pc = vstart;
                    return FragExit::Budget;
                }
                if let Some(limit) = fuel_limit {
                    if self.stats.v_insts >= limit {
                        cache.fragment_mut(fid).entries += pending_entries;
                        return FragExit::Preempted { vtarget: vstart };
                    }
                }
                pending_entries += 1;
                if is_region {
                    self.stats.region_entries += 1;
                } else if self.config.region_trigger == Some(base_entries + pending_entries) {
                    cache.fragment_mut(fid).entries += pending_entries;
                    return FragExit::RegionHot { vtarget: vstart };
                }
                self.stats.fragment_entries += 1;
                // The leading `set-vpc-base` is a no-op on a self-transfer
                // — the base it would set is already in force — so resume
                // past it.
                idx = loop_entry;
            }
        }
    }

    /// Runs interpreted code from the interpreter's lowered tier
    /// ([`LoweredCode`](crate::profile::LoweredCode)) on this engine's
    /// register file, with the ops' semantics shared with fragments:
    /// `ops[start]`, `ops[start + 1]`, … retire in order until an entry
    /// that is not a lowered op, a `cuts` entry past `start` (an address
    /// a fragment was installed at), `budget` retired instructions, a
    /// trap, or a store into a page holding translated source code.
    /// Architectural NOPs run but do not retire.
    ///
    /// Returns the index it stopped at (the first op not executed), the
    /// instructions retired and why it stopped. The registers are loaded
    /// from `cpu` and written back; `cpu.pc` is the caller's to set. A
    /// trapping op leaves the registers as they were in front of it; a
    /// store into translated source code has completed when it is
    /// reported, as in [`step`](alpha_isa::step)-driven interpretation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_lowered(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut Memory,
        ops: &[Lowered],
        cuts: &[bool],
        start: usize,
        budget: u64,
        align: AlignPolicy,
        cache: &TranslationCache,
    ) -> (usize, u64, LoweredEnd) {
        let f = &mut self.file;
        f.load(cpu);
        let mut idx = start;
        let mut retired = 0;
        let end = loop {
            let (Some(Lowered::Op(op)), Some(&cut)) = (ops.get(idx), cuts.get(idx)) else {
                break LoweredEnd::Stop;
            };
            if (cut && idx != start) || retired == budget {
                break LoweredEnd::Stop;
            }
            // NOPs retire in no mode (collection drops them, translated
            // code never emits them), which keeps the retired count a
            // pure function of the architected position.
            if *op == Op::Nop {
                idx += 1;
                continue;
            }
            register_ops!(f, op, (),
            load(width, m) => {
                match f.address(m.addr, m.disp, width, align) {
                    Ok(a) => f.read_mem(mem, width, m.acc, m.dst, a),
                    Err(trap) => break LoweredEnd::Trap(trap),
                }
            },
            store(width, m) => {
                let a = match f.address(m.addr, m.disp, width, align) {
                    Ok(a) => a,
                    Err(trap) => break LoweredEnd::Trap(trap),
                };
                f.write_mem(mem, width, a, m.value, m.kv);
                let len = width.bytes() as u64;
                if cache.smc_hit(a, len) {
                    idx += 1;
                    retired += 1;
                    break LoweredEnd::SmcStore { addr: a, len };
                }
            },
            {
                _ => unreachable!("{op:?} is never lowered for the interpreter"),
            });
            retired += 1;
            idx += 1;
        };
        f.store(cpu);
        (idx, retired, end)
    }

    /// Severs every engine-side fast path into an invalidated fragment:
    /// dual-RAS entries whose direct link names it lose the link and fall
    /// back to dispatch on a hit. The architected (V, I) pair is kept —
    /// the stale I-address simply misses the lookup map, exactly as after
    /// a flush.
    pub fn unlink_fragment(&mut self, id: FragmentId) {
        for e in &mut self.ras {
            if e.link == Some(id) {
                e.link = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::IMeta;
    use alpha_isa::OperateOp;
    use ildp_isa::IsaForm;
    use std::collections::HashMap;

    /// A sink that records every retired instruction.
    #[derive(Default)]
    struct Recorder(Vec<DynInst>);

    impl TraceSink for Recorder {
        fn retire(&mut self, inst: &DynInst) {
            self.0.push(*inst);
        }
    }

    fn meta(vaddr: u64, vcount: u16) -> IMeta {
        IMeta {
            vaddr,
            vcount,
            category: None,
            is_chain: false,
        }
    }

    fn install_simple(cache: &mut TranslationCache, vstart: u64, insts: Vec<IInst>) -> FragmentId {
        let m: Vec<IMeta> = insts.iter().map(|_| meta(vstart, 1)).collect();
        let n = insts.len() as u32;
        cache.install(vstart, IsaForm::Modified, insts, m, n, HashMap::new())
    }

    #[test]
    fn dispatch_expands_to_configured_cost() {
        let mut cache = TranslationCache::new();
        // Fragment A dispatches to V-address 0x2000; fragment B is there.
        install_simple(
            &mut cache,
            0x2000,
            vec![IInst::SetVpcBase { vaddr: 0x2000 }, IInst::Halt],
        );
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(0x2000),
                    rhs: ASrc::Imm(0),
                    dst: Some(Reg::new(5)),
                },
                IInst::Dispatch {
                    acc: Acc::new(0),
                    src: ASrc::Gpr(Reg::new(5)),
                },
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let mut rec = Recorder::default();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut rec);
        assert_eq!(exit, FragExit::Halt);
        assert_eq!(engine.stats.dispatches, 1);
        // The dispatch expansion contributes exactly DISPATCH_COST_INSTS
        // records at the shared dispatch PC range.
        let dispatch_records = rec
            .0
            .iter()
            .filter(|d| d.pc >= DISPATCH_IADDR && d.pc < DISPATCH_IADDR + 0x1000)
            .count();
        assert_eq!(dispatch_records, DISPATCH_COST_INSTS as usize);
        // Its final record is the shared indirect jump, landing on B.
        let last = rec
            .0
            .iter()
            .rev()
            .find(|d| d.pc >= DISPATCH_IADDR && d.pc < DISPATCH_IADDR + 0x1000)
            .unwrap();
        assert_eq!(last.class, InstClass::IndirectJump);
    }

    #[test]
    fn dispatch_to_untranslated_returns_vtarget() {
        let mut cache = TranslationCache::new();
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(0x44),
                    rhs: ASrc::Imm(0),
                    dst: Some(Reg::new(5)),
                },
                IInst::Dispatch {
                    acc: Acc::new(0),
                    src: ASrc::Gpr(Reg::new(5)),
                },
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        assert_eq!(exit, FragExit::NotTranslated { vtarget: 0x44 });
    }

    #[test]
    fn architectural_ras_round_trip() {
        let entry = |v, i| RasEntry {
            v,
            i,
            link: None,
            epoch: 0,
        };
        let mut engine = Engine::new(EngineConfig::default());
        engine.ras_push(entry(0x10, 0x100));
        engine.ras_push(entry(0x20, 0x200));
        let top = engine.ras_pop().unwrap();
        assert_eq!((top.v, top.i), (0x20, 0x200));
        let next = engine.ras_pop().unwrap();
        assert_eq!((next.v, next.i), (0x10, 0x100));
        assert!(engine.ras_pop().is_none());
    }

    #[test]
    fn putchar_collects_output() {
        let mut cache = TranslationCache::new();
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(1),
                    lhs: ASrc::Imm(b'h' as i16),
                    rhs: ASrc::Imm(0),
                    dst: None,
                },
                IInst::PutChar {
                    acc: Acc::new(1),
                    src: ASrc::Acc,
                },
                IInst::Halt,
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        assert_eq!(engine.output, b"h");
    }

    #[test]
    fn budget_stops_infinite_fragment_loops() {
        let mut cache = TranslationCache::new();
        // A fragment that branches back to itself forever.
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslator { vtarget: 0x1000 }, // self-patch on install
        ];
        let m: Vec<IMeta> = vec![meta(0x1000, 1), meta(0x1000, 1)];
        let a = cache.install(0x1000, IsaForm::Modified, insts, m, 2, HashMap::new());
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, 500, &mut NullSink);
        assert_eq!(exit, FragExit::Budget);
        assert!(engine.stats.v_insts >= 500);
    }

    #[test]
    fn r31_reads_zero_and_absorbs_writes() {
        let mut cache = TranslationCache::new();
        let zero = Reg::new(31);
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(7),
                    rhs: ASrc::Imm(0),
                    dst: Some(zero),
                },
                IInst::CopyToGpr {
                    acc: Acc::new(0),
                    dst: zero,
                },
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(1),
                    lhs: ASrc::Gpr(zero),
                    rhs: ASrc::Imm(1),
                    dst: Some(Reg::new(2)),
                },
                IInst::Halt,
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        assert_eq!(exit, FragExit::Halt);
        assert_eq!(cpu.read(Reg::new(2)), 1);
        assert_eq!(cpu.registers()[31], 0);
        assert_eq!(engine.stats.copies_executed, 1);
        assert_eq!(engine.stats.executed, 4);
    }

    #[test]
    fn smc_store_is_not_retired() {
        let mut cache = TranslationCache::new();
        // The store writes the fragment's own source page.
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::SetVpcBase { vaddr: 0x1000 },
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(0x1000),
                    rhs: ASrc::Imm(8),
                    dst: Some(Reg::new(3)),
                },
                IInst::Store {
                    width: MemWidth::U64,
                    acc: Acc::new(0),
                    addr: ASrc::Acc,
                    disp: 0,
                    value: ASrc::Gpr(Reg::new(3)),
                },
                IInst::Halt,
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        let FragExit::SmcStore {
            addr, len, state, ..
        } = exit
        else {
            panic!("expected an SMC exit, got {exit:?}");
        };
        assert_eq!((addr, len), (0x1008, 8));
        assert_eq!(state[3], 0x1008);
        assert_eq!(mem.read_u64(0x1008), 0, "the store must not execute");
        // Entry and address computation retire; the store does not.
        assert_eq!((engine.stats.executed, engine.stats.v_insts), (2, 2));
    }
}
