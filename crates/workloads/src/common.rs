//! Shared workload-construction helpers.

use alpha_isa::{Program, Reg};

/// A runnable benchmark: a loadable Alpha program plus run metadata.
///
/// The twelve members of [`crate::suite`] stand in for the SPEC CPU2000
/// integer benchmarks of the paper's evaluation (see DESIGN.md §3 for the
/// substitution argument): each reproduces the control-flow and
/// data-access character of its namesake — loop shape, indirect-jump and
/// call/return frequency, working-set behavior — at a size that runs in a
/// simulator.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The SPEC-style short name (`gzip`, `mcf`, ...).
    pub name: &'static str,
    /// The assembled program.
    pub program: Program,
    /// A V-ISA instruction budget that comfortably covers the run.
    pub budget: u64,
}

/// Deterministic xorshift64* generator used to synthesize input data.
#[derive(Clone, Copy, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    /// Creates a generator from a nonzero seed.
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A pseudo-random byte buffer of `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Little-endian quadword buffer of `n` values below `bound`.
    pub fn quads(&mut self, n: usize, bound: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 8);
        for _ in 0..n {
            out.extend_from_slice(&(self.next_u64() % bound).to_le_bytes());
        }
        out
    }
}

/// Frequently used registers, named for readability in workload code.
pub mod regs {
    use super::Reg;
    /// Return value / checksum accumulator.
    pub const V0: Reg = Reg::V0;
    /// Temporaries.
    pub const T0: Reg = Reg::new(1);
    /// Temporary 1.
    pub const T1: Reg = Reg::new(2);
    /// Temporary 2.
    pub const T2: Reg = Reg::new(3);
    /// Temporary 3.
    pub const T3: Reg = Reg::new(4);
    /// Temporary 4.
    pub const T4: Reg = Reg::new(5);
    /// Temporary 5.
    pub const T5: Reg = Reg::new(6);
    /// Temporary 6.
    pub const T6: Reg = Reg::new(7);
    /// Temporary 7.
    pub const T7: Reg = Reg::new(8);
    /// Callee-saved 0.
    pub const S0: Reg = Reg::new(9);
    /// Callee-saved 1.
    pub const S1: Reg = Reg::new(10);
    /// Callee-saved 2.
    pub const S2: Reg = Reg::new(11);
    /// Callee-saved 3.
    pub const S3: Reg = Reg::new(12);
    /// Argument 0.
    pub const A0: Reg = Reg::A0;
    /// Argument 1.
    pub const A1: Reg = Reg::A1;
    /// Procedure value (indirect-call target).
    pub const PV: Reg = Reg::PV;
    /// Return address.
    pub const RA: Reg = Reg::RA;
}
