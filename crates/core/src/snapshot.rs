//! Versioned, checksummed whole-VM snapshots.
//!
//! A [`Snapshot`] captures everything a fresh [`Vm`](crate::Vm) needs to
//! continue a run bit-identically: architected CPU state, resident guest
//! memory pages, console output, the profile/hotness counters, the
//! degradation-ladder and SMC-offender maps, and the cumulative
//! [`VmStats`]. It deliberately does **not** capture the translation
//! cache or any engine-internal state: snapshots are taken only at
//! fragment boundaries, where the paper's precise-state argument (§2.2)
//! guarantees the GPR file is architecturally complete and every
//! accumulator is dead, so a restored VM starts with a cold cache and
//! retranslates on demand. The entry V-addresses of fragments live at
//! snapshot time ride along as *hints*: restore primes their profile
//! counters one bump below the threshold so the hot regions re-translate
//! promptly instead of re-heating from zero.
//!
//! The wire format is the common [`wire`] envelope (magic, version,
//! checksum trailer); a program digest guards against restoring
//! onto the wrong guest.

use crate::classify::CategoryCounts;
use crate::engine::EngineStats;
use crate::error::SnapshotError;
use crate::vm::VmStats;
use crate::wire::{self, Cursor};
use alpha_isa::{Memory, Program};

/// Magic number of the snapshot wire format (`"ILPS"`).
pub const SNAPSHOT_MAGIC: u32 = 0x5350_4C49;

/// Current snapshot format version. Snapshots are produced and consumed
/// by the same build, so any other version is refused. Version 6 seals
/// with the word-wise [`wire::checksum`].
pub const SNAPSHOT_VERSION: u32 = 6;

/// Identity digest of a guest program: FNV-1a over the code base, entry
/// PC, initial SP and every code word. Data segments are excluded on
/// purpose — a snapshot carries the whole memory image, so a `.repro`
/// bundle can slice a program down to its code without changing its
/// identity.
pub fn program_digest(program: &Program) -> u64 {
    let mut buf = Vec::with_capacity(program.code().len() * 4 + 24);
    wire::put_u64(&mut buf, program.code_base());
    wire::put_u64(&mut buf, program.entry());
    wire::put_u64(&mut buf, program.initial_sp());
    for &w in program.code() {
        wire::put_u32(&mut buf, w);
    }
    wire::fnv1a(&buf)
}

/// Complete resumable VM state at a fragment boundary. Create one with
/// [`Vm::snapshot`](crate::Vm::snapshot), persist it with
/// [`to_bytes`](Snapshot::to_bytes), and resume with
/// [`Vm::restore`](crate::Vm::restore).
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// Digest of the guest program this snapshot belongs to
    /// ([`program_digest`]); restore refuses a mismatch.
    pub program_digest: u64,
    /// Total V-ISA instructions retired when the snapshot was taken.
    pub v_insts: u64,
    /// Architected program counter.
    pub pc: u64,
    /// Architected GPR file (`R31` zero).
    pub regs: [u64; 32],
    /// Resident guest-memory pages as `(page_number, contents)`, sorted
    /// by page number; all-zero pages are omitted (they read identically
    /// whether resident or not).
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Console output emitted so far, in emission order.
    pub output: Vec<u8>,
    /// Profile counters as `(candidate V-address, count)`, sorted.
    pub candidates: Vec<(u64, u32)>,
    /// Entry V-addresses of fragments live at snapshot time, sorted —
    /// restore hints that prime these regions for prompt retranslation.
    pub translated: Vec<u64>,
    /// Degradation-ladder levels as `(region V-address, level)`, sorted.
    pub demotion: Vec<(u64, u8)>,
    /// SMC invalidations per region as `(region V-address, count)`,
    /// sorted.
    pub smc_counts: Vec<(u64, u32)>,
    /// Cumulative run statistics at the boundary; restore continues them
    /// instead of resetting to zero, so ratios like
    /// [`interp_fallback_ratio`](VmStats::interp_fallback_ratio) stay
    /// correct across a resume.
    pub stats: VmStats,
}

impl Snapshot {
    /// Rebuilds a [`Memory`] from the captured pages.
    pub fn to_memory(&self) -> Memory {
        let mut mem = Memory::new();
        for (page_no, bytes) in &self.pages {
            mem.set_page(*page_no, bytes);
        }
        mem
    }

    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, self.program_digest);
        wire::put_u64(&mut p, self.v_insts);
        wire::put_u64(&mut p, self.pc);
        for &r in &self.regs {
            wire::put_u64(&mut p, r);
        }
        wire::put_u32(&mut p, self.pages.len() as u32);
        for (page_no, bytes) in &self.pages {
            wire::put_u64(&mut p, *page_no);
            wire::put_bytes(&mut p, bytes);
        }
        wire::put_bytes(&mut p, &self.output);
        wire::put_u32(&mut p, self.candidates.len() as u32);
        for &(vaddr, count) in &self.candidates {
            wire::put_u64(&mut p, vaddr);
            wire::put_u32(&mut p, count);
        }
        wire::put_u32(&mut p, self.translated.len() as u32);
        for &vstart in &self.translated {
            wire::put_u64(&mut p, vstart);
        }
        wire::put_u32(&mut p, self.demotion.len() as u32);
        for &(vstart, level) in &self.demotion {
            wire::put_u64(&mut p, vstart);
            wire::put_u8(&mut p, level);
        }
        wire::put_u32(&mut p, self.smc_counts.len() as u32);
        for &(vstart, count) in &self.smc_counts {
            wire::put_u64(&mut p, vstart);
            wire::put_u32(&mut p, count);
        }
        put_stats(&mut p, &self.stats);
        wire::seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](Snapshot::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let (version, payload) = wire::open(SNAPSHOT_MAGIC, bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { version });
        }
        let mut c = Cursor::new(payload);
        let program_digest = c.take_u64()?;
        let v_insts = c.take_u64()?;
        let pc = c.take_u64()?;
        let mut regs = [0u64; 32];
        for r in &mut regs {
            *r = c.take_u64()?;
        }
        let n_pages = c.take_u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages.min(1 << 16));
        for _ in 0..n_pages {
            let page_no = c.take_u64()?;
            let bytes = c.take_bytes()?.to_vec();
            pages.push((page_no, bytes));
        }
        let output = c.take_bytes()?.to_vec();
        let n = c.take_u32()? as usize;
        let mut candidates = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vaddr = c.take_u64()?;
            let count = c.take_u32()?;
            candidates.push((vaddr, count));
        }
        let n = c.take_u32()? as usize;
        let mut translated = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            translated.push(c.take_u64()?);
        }
        let n = c.take_u32()? as usize;
        let mut demotion = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let level = c.take_u8()?;
            demotion.push((vstart, level));
        }
        let n = c.take_u32()? as usize;
        let mut smc_counts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let count = c.take_u32()?;
            smc_counts.push((vstart, count));
        }
        let stats = take_stats(&mut c)?;
        Ok(Snapshot {
            program_digest,
            v_insts,
            pc,
            regs,
            pages,
            output,
            candidates,
            translated,
            demotion,
            smc_counts,
            stats,
        })
    }
}

fn put_categories(p: &mut Vec<u8>, c: &CategoryCounts) {
    for &v in &c.0 {
        wire::put_u64(p, v);
    }
}

fn take_categories(c: &mut Cursor<'_>) -> Result<CategoryCounts, SnapshotError> {
    let mut out = CategoryCounts::default();
    for v in &mut out.0 {
        *v = c.take_u64()?;
    }
    Ok(out)
}

/// Serializes a [`VmStats`] (fixed field order).
pub(crate) fn put_stats(p: &mut Vec<u8>, s: &VmStats) {
    for v in [
        s.interpreted,
        s.fragments,
        s.translated_src_insts,
        s.emitted_insts,
        s.static_copies,
        s.strands,
        s.terminations,
        s.translated_code_bytes,
        s.translation_overhead,
        s.interpretation_overhead,
        s.cache_flushes,
        s.fragments_verified,
        s.verify_nanos,
        s.verify_rejected,
        s.evictions,
        s.smc_invalidations,
        s.demotions,
        s.blacklisted,
        s.fuel_preemptions,
        s.unlinked_sites,
        // Background pipeline + warm start.
        s.warmup_interpreted,
        s.translate_stall_nanos,
        s.translate_wall_nanos,
        s.warm_hits,
        s.warm_misses,
        s.warm_stores,
        s.async_installs,
        s.async_dropped,
        // Pool supervision.
        s.pool_timeouts,
        s.pool_panics,
        s.pool_respawns,
        s.pool_shed,
        s.sync_fallbacks,
        s.pool_await_max_nanos,
        // Region re-formation. The engine's region-entry counter
        // serializes here, ahead of the engine block below.
        s.regions_formed,
        s.seam_pairs_eliminated,
        s.engine.region_entries,
    ] {
        wire::put_u64(p, v);
    }
    let e = &s.engine;
    for v in [
        e.executed,
        e.chain_executed,
        e.copies_executed,
        e.v_insts,
        e.dispatches,
        e.ras_hits,
        e.ras_misses,
        e.fragment_entries,
    ] {
        wire::put_u64(p, v);
    }
    put_categories(p, &e.categories);
    put_categories(p, &s.static_categories);
}

/// Deserializes a [`VmStats`] written by [`put_stats`].
pub(crate) fn take_stats(c: &mut Cursor<'_>) -> Result<VmStats, SnapshotError> {
    let mut s = VmStats::default();
    let mut region_entries = 0u64;
    for v in [
        &mut s.interpreted,
        &mut s.fragments,
        &mut s.translated_src_insts,
        &mut s.emitted_insts,
        &mut s.static_copies,
        &mut s.strands,
        &mut s.terminations,
        &mut s.translated_code_bytes,
        &mut s.translation_overhead,
        &mut s.interpretation_overhead,
        &mut s.cache_flushes,
        &mut s.fragments_verified,
        &mut s.verify_nanos,
        &mut s.verify_rejected,
        &mut s.evictions,
        &mut s.smc_invalidations,
        &mut s.demotions,
        &mut s.blacklisted,
        &mut s.fuel_preemptions,
        &mut s.unlinked_sites,
        &mut s.warmup_interpreted,
        &mut s.translate_stall_nanos,
        &mut s.translate_wall_nanos,
        &mut s.warm_hits,
        &mut s.warm_misses,
        &mut s.warm_stores,
        &mut s.async_installs,
        &mut s.async_dropped,
        &mut s.pool_timeouts,
        &mut s.pool_panics,
        &mut s.pool_respawns,
        &mut s.pool_shed,
        &mut s.sync_fallbacks,
        &mut s.pool_await_max_nanos,
        &mut s.regions_formed,
        &mut s.seam_pairs_eliminated,
        &mut region_entries,
    ] {
        *v = c.take_u64()?;
    }
    let mut e = EngineStats::default();
    for v in [
        &mut e.executed,
        &mut e.chain_executed,
        &mut e.copies_executed,
        &mut e.v_insts,
        &mut e.dispatches,
        &mut e.ras_hits,
        &mut e.ras_misses,
        &mut e.fragment_entries,
    ] {
        *v = c.take_u64()?;
    }
    e.region_entries = region_entries;
    e.categories = take_categories(c)?;
    s.engine = e;
    s.static_categories = take_categories(c)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut stats = VmStats {
            interpreted: 123,
            fragments: 4,
            evictions: 2,
            smc_invalidations: 1,
            demotions: 3,
            verify_rejected: 1,
            warmup_interpreted: 60,
            translate_stall_nanos: 1_000,
            translate_wall_nanos: 5_000,
            warm_hits: 2,
            warm_misses: 1,
            warm_stores: 3,
            async_installs: 4,
            async_dropped: 1,
            pool_timeouts: 2,
            pool_panics: 1,
            pool_respawns: 5,
            pool_shed: 1,
            sync_fallbacks: 3,
            pool_await_max_nanos: 7_000,
            regions_formed: 2,
            seam_pairs_eliminated: 5,
            ..VmStats::default()
        };
        stats.engine.v_insts = 456;
        stats.engine.region_entries = 77;
        stats.engine.categories.0[0] = 9;
        Snapshot {
            program_digest: 0xDEAD_BEEF,
            v_insts: 579,
            pc: 0x1_0040,
            regs: std::array::from_fn(|i| i as u64 * 3),
            pages: vec![(0x10, vec![1, 2, 3]), (0x20, vec![0xff; 4096])],
            output: b"hi".to_vec(),
            candidates: vec![(0x1_0000, 9), (0x1_0040, 2)],
            translated: vec![0x1_0040],
            demotion: vec![(0x1_0080, 1)],
            smc_counts: vec![(0x1_0080, 2)],
            stats,
        }
    }

    #[test]
    fn wire_roundtrip_is_identity() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let bytes = sample().to_bytes();
        // Rewrite the version field and re-seal so only the version check
        // can fail: newer and older versions alike are refused.
        for version in [0x7f, 5] {
            let mut bytes = bytes.clone();
            bytes[4] = version;
            let body_len = bytes.len() - 8;
            let checksum = wire::checksum(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&bytes),
                Err(SnapshotError::BadVersion {
                    version: u32::from(version)
                })
            );
        }
    }

    #[test]
    fn rebuilt_memory_holds_the_captured_pages() {
        let snap = sample();
        let mem = snap.to_memory();
        assert_eq!(mem.read_u8(0x10 << 12), 1);
    }

    #[test]
    fn program_digest_ignores_data_segments() {
        use alpha_isa::Assembler;
        let mut asm = Assembler::new(0x1_0000);
        asm.halt();
        let program = asm.finish().unwrap();
        let sliced = Program::new(program.code_base(), program.code().to_vec())
            .with_entry(program.entry())
            .with_initial_sp(program.initial_sp());
        assert_eq!(program_digest(&program), program_digest(&sliced));
        let other = Program::new(program.code_base() + 8, program.code().to_vec());
        assert_ne!(program_digest(&program), program_digest(&other));
    }
}
