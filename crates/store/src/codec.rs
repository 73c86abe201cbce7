//! Little-endian byte codec shared by the snapshot and WAL formats.
//!
//! [`Enc`] appends fixed-width little-endian scalars and length-prefixed strings to a byte
//! buffer; [`Dec`] reads them back, returning [`StoreError::Corrupt`] instead of panicking
//! when the payload ends mid-value. [`fnv1a64`] is the checksum both formats use: FNV-1a is
//! not cryptographic, but it catches the failure modes a local store actually sees (torn
//! writes, bit rot, truncated copies) with no dependency and a few instructions per byte.

use crate::StoreError;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a folded over 64-bit little-endian lanes: the length is mixed in as the first lane,
/// then each 8-byte chunk (tail zero-padded) feeds one xor-multiply round.
///
/// Byte-serial FNV runs one multiply per *byte*, which is the single largest cost of opening
/// a multi-hundred-kilobyte snapshot section; folding whole words cuts that by 8x while
/// keeping the same torn-write/bit-rot detection a local store needs. Mixing the length in
/// up front keeps zero-padded tails from colliding with explicit trailing zeros.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    hash ^= bytes.len() as u64;
    hash = hash.wrapping_mul(FNV_PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(last);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round trip, no text formatting).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write a string as a `u32` byte length followed by UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes verbatim (caller owns the framing).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Position-tracked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "payload ends mid-value: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u32` element count, checked against the bytes left: a count whose elements,
    /// at `min_encoded_bytes` each, cannot fit in the rest of the payload is corrupt. Use it
    /// for every count that sizes an allocation, so a crafted count fails here instead.
    pub fn count(&mut self, min_encoded_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_encoded_bytes) > self.remaining() {
            return Err(StoreError::Corrupt(format!(
                "count {n} at offset {} needs at least {min_encoded_bytes} bytes per element, \
                 {} remain",
                self.pos - 4,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool; any byte other than 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!(
                "invalid bool byte {other} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in string of {len} bytes")))
    }

    /// Assert the whole payload was consumed — trailing garbage is corruption, not padding.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the last value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(3.5);
        e.bool(true);
        e.bool(false);
        e.str("héllo");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_values_decode_to_corrupt_not_panic() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert!(matches!(d.u64(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut e = Enc::new();
        e.u32(9);
        e.u8(0xff);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32().unwrap(), 9);
        assert!(matches!(d.finish(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn counts_the_payload_cannot_hold_are_corrupt() {
        let mut e = Enc::new();
        e.u32(3);
        e.raw(&[0; 12]);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).count(4).unwrap(), 3);
        assert!(matches!(
            Dec::new(&bytes).count(5),
            Err(StoreError::Corrupt(_))
        ));
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(
            Dec::new(&huge).count(1),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_bool_byte_is_rejected() {
        let mut d = Dec::new(&[2]);
        assert!(matches!(d.bool(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Reference values for the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_fnv_detects_flips_padding_and_length() {
        let base = vec![0xabu8; 100];
        let sum = fnv1a64_words(&base);
        assert_eq!(fnv1a64_words(&base), sum, "deterministic");
        for ix in [0usize, 7, 8, 63, 96, 99] {
            let mut flipped = base.clone();
            flipped[ix] ^= 0x01;
            assert_ne!(fnv1a64_words(&flipped), sum, "flip at {ix} undetected");
        }
        // A zero-padded tail must not collide with explicit trailing zeros.
        assert_ne!(fnv1a64_words(b"abc"), fnv1a64_words(b"abc\0"));
        assert_ne!(fnv1a64_words(b""), fnv1a64_words(b"\0"));
    }
}
