//! Sparse 64-bit byte-addressable memory.
//!
//! Backed by 4 KiB pages allocated on first touch, so programs can scatter
//! code, stack and heap across the address space without cost. Loads from
//! untouched memory read zero, matching a zero-filled process image.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Multiplicative hasher for integer keys the program generates itself:
/// page numbers here, guest instruction addresses in the translator's
/// per-PC maps, the verifier's interned expressions. Such keys are small
/// and dense, so a single Fibonacci multiply per integer field spreads
/// them well; the default SipHash costs more than the lookup it guards.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse little-endian memory for the simulated machine.
///
/// # Examples
///
/// ```
/// use alpha_isa::Memory;
/// let mut mem = Memory::new();
/// mem.write_u64(0x1_0000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1_0000), 0xdead_beef);
/// assert_eq!(mem.read_u8(0x1_0000), 0xef); // little-endian
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    /// Page number → index into `arena`. Pages are never removed, so the
    /// indices stay stable for the life of the memory.
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// The page frames themselves, in allocation order.
    arena: Vec<Box<[u8; PAGE_SIZE]>>,
    /// One-entry translation cache: the last `(page number, arena index)`
    /// pair resolved. Loops touch the same page for long runs, so the hot
    /// load/store path skips the hash probe entirely. The sentinel page
    /// number `u64::MAX` never arises from `addr >> PAGE_SHIFT` (that
    /// shift tops out 12 bits lower), so it safely means "empty".
    last: Cell<(u64, u32)>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            index: HashMap::default(),
            arena: Vec::new(),
            last: Cell::new((u64::MAX, 0)),
        }
    }
}

impl Memory {
    /// Bytes per backing page — the granularity of [`pages`](Memory::pages)
    /// and [`set_page`](Memory::set_page).
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.arena.len()
    }

    /// Order-independent digest of memory contents for differential
    /// comparison. All-zero pages contribute nothing, so a memory that was
    /// merely *touched* differently (pages faulted in but never written a
    /// non-zero byte) digests identically.
    pub fn content_digest(&self) -> u64 {
        let mut digest = 0u64;
        for (&page_no, &k) in &self.index {
            let page = &self.arena[k as usize];
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            // FNV-1a over the page bytes, folded with the page number;
            // XOR-combined across pages for order independence.
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ page_no.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in page.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            digest ^= h;
        }
        digest
    }

    /// Iterates the resident pages as `(page_number, contents)` in
    /// unspecified order. Page `n` covers guest addresses
    /// `[n * PAGE_BYTES, (n + 1) * PAGE_BYTES)`; absent pages read zero.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.index
            .iter()
            .map(|(&n, &k)| (n, &self.arena[k as usize][..]))
    }

    /// Replaces the contents of page `page_no` (snapshot restore). Short
    /// input leaves the tail of the page zero; bytes past
    /// [`PAGE_BYTES`](Memory::PAGE_BYTES) are ignored.
    pub fn set_page(&mut self, page_no: u64, bytes: &[u8]) {
        let k = Memory::frame_index(&mut self.index, &mut self.arena, page_no);
        let page = &mut self.arena[k as usize];
        **page = [0u8; PAGE_SIZE];
        let n = bytes.len().min(PAGE_SIZE);
        page[..n].copy_from_slice(&bytes[..n]);
    }

    /// The arena slot for `page_no`, allocating a zero frame on first
    /// touch. An associated function (not a method) so callers holding a
    /// frame borrow stay disjoint.
    fn frame_index(
        index: &mut HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
        arena: &mut Vec<Box<[u8; PAGE_SIZE]>>,
        page_no: u64,
    ) -> u32 {
        *index.entry(page_no).or_insert_with(|| {
            arena.push(Box::new([0u8; PAGE_SIZE]));
            (arena.len() - 1) as u32
        })
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let pn = addr >> PAGE_SHIFT;
        let (lp, lk) = self.last.get();
        if lp == pn {
            return Some(&self.arena[lk as usize]);
        }
        let &k = self.index.get(&pn)?;
        self.last.set((pn, k));
        Some(&self.arena[k as usize])
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let pn = addr >> PAGE_SHIFT;
        let (lp, lk) = self.last.get();
        let k = if lp == pn {
            lk
        } else {
            let k = Memory::frame_index(&mut self.index, &mut self.arena, pn);
            self.last.set((pn, k));
            k
        };
        &mut self.arena[k as usize]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    #[inline]
    fn read_le(&self, addr: u64, bytes: usize) -> u64 {
        // Fast path: access within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => {
                    let mut raw = [0u8; 8];
                    raw[..bytes].copy_from_slice(&p[off..off + bytes]);
                    u64::from_le_bytes(raw)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in (0..bytes).rev() {
                v = (v << 8) | self.read_u8(addr.wrapping_add(i as u64)) as u64;
            }
            v
        }
    }

    #[inline]
    fn write_le(&mut self, addr: u64, bytes: usize, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + bytes].copy_from_slice(&value.to_le_bytes()[..bytes]);
        } else {
            let mut v = value;
            for i in 0..bytes {
                self.write_u8(addr.wrapping_add(i as u64), v as u8);
                v >>= 8;
            }
        }
    }

    /// Reads a little-endian 16-bit value.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read_le(addr, 2) as u16
    }

    /// Writes a little-endian 16-bit value.
    #[inline]
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_le(addr, 2, value as u64);
    }

    /// Reads a little-endian 32-bit value.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a little-endian 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_le(addr, 4, value as u64);
    }

    /// Reads a little-endian 64-bit value.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian 64-bit value.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Copies `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x1234_5678);
        assert_eq!(mem.read_u8(0x100), 0x78);
        assert_eq!(mem.read_u8(0x103), 0x12);
        assert_eq!(mem.read_u16(0x102), 0x1234);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        mem.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut mem = Memory::new();
        let data = b"hello, alpha";
        mem.write_bytes(0x2000, data);
        assert_eq!(mem.read_bytes(0x2000, data.len()), data);
    }

    #[test]
    fn page_snapshot_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u64(0x1_0008, 0xdead_beef);
        mem.write_u8(0x7_3000, 7);
        let mut copy = Memory::new();
        for (n, bytes) in mem.pages() {
            copy.set_page(n, bytes);
        }
        assert_eq!(copy.content_digest(), mem.content_digest());
        assert_eq!(copy.read_u64(0x1_0008), 0xdead_beef);
        // set_page replaces the whole page, clearing stale contents.
        copy.write_u8(0x1_0100, 0xaa);
        copy.set_page(0x1_0000 >> PAGE_SHIFT, &mem.read_bytes(0x1_0000, PAGE_SIZE));
        assert_eq!(copy.read_u8(0x1_0100), 0);
        assert_eq!(copy.content_digest(), mem.content_digest());
    }

    #[test]
    fn wrapping_addresses_do_not_panic() {
        let mut mem = Memory::new();
        mem.write_u64(u64::MAX - 3, 0xffff_ffff_ffff_ffff);
        assert_eq!(mem.read_u8(u64::MAX), 0xff);
        assert_eq!(mem.read_u8(3), 0xff); // wrapped around
    }
}
