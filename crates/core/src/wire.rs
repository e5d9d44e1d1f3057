//! Hand-rolled binary wire helpers shared by the snapshot, store and
//! `.repro`-bundle formats.
//!
//! The build environment is offline (no serde), so every persisted
//! artifact uses the same tiny scheme: little-endian fixed-width
//! integers, `u32`-length-prefixed byte strings, and a common envelope —
//! `magic`, `version`, payload, trailing [`checksum`] over everything
//! before the trailer. Readers are bounds-checked and fail with
//! [`SnapshotError`] instead of panicking, so a corrupted artifact
//! reports *how* it is corrupt.

use crate::error::SnapshotError;

/// Appends a byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends an optional `u64` as a presence byte plus the value.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

/// FNV-1a over `bytes`, one byte per step. The envelopes seal with the
/// faster [`checksum`]; this stays for digests that are pinned to it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A word-at-a-time hash state: each step XORs in one 64-bit word,
/// multiplies by the FNV prime and folds the high bits down. Every step
/// is a bijection of the state, so two inputs that differ in exactly one
/// word always hash differently.
#[derive(Clone, Copy, Debug)]
pub struct Mixer(u64);

impl Default for Mixer {
    fn default() -> Mixer {
        Mixer(FNV_OFFSET)
    }
}

impl Mixer {
    /// Mixes in one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(FNV_PRIME);
        self.0 = h ^ (h >> 29);
    }

    /// The hash of everything mixed in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The envelope checksum: `bytes` as little-endian 8-byte words, the
/// tail bytes one per step, then the length.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut m = Mixer::default();
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        m.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
    }
    for &b in tail {
        m.word(b as u64);
    }
    m.word(bytes.len() as u64);
    m.finish()
}

/// Wraps a payload in the common envelope: `magic`, `version`, payload,
/// [`checksum`] trailer over all preceding bytes.
pub fn seal(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = begin(magic, version, payload.len());
    out.extend_from_slice(payload);
    end(out)
}

/// Starts an envelope in place, with room for `payload_len` payload
/// bytes: the writer appends its payload straight after the header and
/// completes the envelope with [`end`], with no copy of the payload.
pub fn begin(magic: u32, version: u32, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload_len + 16);
    put_u32(&mut out, magic);
    put_u32(&mut out, version);
    out
}

/// Completes an envelope started by [`begin`]: appends the [`checksum`]
/// trailer over everything written so far.
pub fn end(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = checksum(&out);
    put_u64(&mut out, checksum);
    out
}

/// Opens an envelope written by [`seal`]: checks the magic, verifies the
/// checksum trailer, and returns `(version, payload)`. Version
/// acceptance is the caller's decision — formats may read older
/// versions.
pub fn open(magic: u32, bytes: &[u8]) -> Result<(u32, &[u8]), SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    let actual_magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if actual_magic != magic {
        return Err(SnapshotError::BadMagic {
            expected: magic,
            actual: actual_magic,
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let checksum = checksum(body);
    if checksum != trailer {
        return Err(SnapshotError::ChecksumMismatch {
            expected: trailer,
            actual: checksum,
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    Ok((version, &body[8..]))
}

/// Opens an envelope without failing on a damaged checksum trailer:
/// checks the magic and minimum length only, and returns the version and
/// payload together with whether the trailer seal verified. Resilient
/// container readers (the persistent fragment store) use this to salvage
/// individually-sealed entries out of a file whose whole-container seal
/// no longer matches — a single flipped bit must cost one entry, not the
/// whole store.
pub fn open_lenient(magic: u32, bytes: &[u8]) -> Result<(u32, &[u8], bool), SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    let actual_magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if actual_magic != magic {
        return Err(SnapshotError::BadMagic {
            expected: magic,
            actual: actual_magic,
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let seal_ok = checksum(body) == trailer;
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    Ok((version, &body[8..], seal_ok))
}

/// A bounds-checked read cursor over an opened payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads an optional `u64` written by [`put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.take_u64()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 42);
        put_bytes(&mut payload, b"hello");
        put_opt_u64(&mut payload, None);
        put_opt_u64(&mut payload, Some(7));
        let sealed = seal(0x1234_5678, 3, &payload);
        let (version, body) = open(0x1234_5678, &sealed).unwrap();
        assert_eq!(version, 3);
        let mut c = Cursor::new(body);
        assert_eq!(c.take_u64().unwrap(), 42);
        assert_eq!(c.take_bytes().unwrap(), b"hello");
        assert_eq!(c.take_opt_u64().unwrap(), None);
        assert_eq!(c.take_opt_u64().unwrap(), Some(7));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn envelope_detects_corruption() {
        let sealed = seal(0xABCD, 1, b"payload");
        assert!(matches!(
            open(0xDCBA, &sealed),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut flipped = sealed.clone();
        flipped[9] ^= 0x40;
        assert!(matches!(
            open(0xABCD, &flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(open(0xABCD, &sealed[..10]), Err(SnapshotError::Truncated));
    }

    #[test]
    fn lenient_open_reports_seal_state() {
        let sealed = seal(0xABCD, 2, b"payload");
        let (version, body, seal_ok) = open_lenient(0xABCD, &sealed).unwrap();
        assert_eq!((version, body, seal_ok), (2, b"payload".as_slice(), true));
        let mut flipped = sealed.clone();
        flipped[10] ^= 0x20;
        let (version, _, seal_ok) = open_lenient(0xABCD, &flipped).unwrap();
        assert_eq!((version, seal_ok), (2, false));
        assert!(matches!(
            open_lenient(0xDCBA, &sealed),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert_eq!(
            open_lenient(0xABCD, &sealed[..12]),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn checksum_separates_word_changes_order_and_length() {
        let base: Vec<u8> = (0..61u8).collect();
        let h = checksum(&base);
        // Any change confined to one aligned word, the tail included.
        for at in 0..base.len() {
            for delta in [1u8, 0x80, 0xff] {
                let mut m = base.clone();
                m[at] ^= delta;
                assert_ne!(checksum(&m), h, "byte {at} ^ {delta:#x}");
            }
        }
        let mut swapped = base.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(checksum(&swapped), h);
        assert_ne!(checksum(&base[..60]), h);
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(checksum(&padded), h);
    }

    #[test]
    fn cursor_rejects_overread() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.take_u32(), Err(SnapshotError::Truncated));
    }
}
