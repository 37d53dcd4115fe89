//! Bounds-checked binary encoding primitives shared by every snapshot codec
//! in the workspace.
//!
//! The persistence layer (`dmt-core::snapshot`, the ensemble save/load paths)
//! serialises model state that lives behind private fields spread over several
//! crates, so the byte-level plumbing sits here at the bottom of the
//! dependency stack where every crate can reach it. The format is deliberately
//! plain: little-endian fixed-width integers, `f64` values as raw IEEE-754
//! bit patterns (round-trips are bit-identical by construction), and
//! length-prefixed sequences.
//!
//! Decoding is written against *hostile* input: every read is bounds-checked,
//! every sequence length is validated against the bytes actually remaining
//! before any allocation happens (a forged `u64::MAX` length prefix must not
//! reserve memory), and malformed tags or shapes surface as a typed
//! [`WireError`] instead of a panic. No decoder in this module can loop
//! without consuming input.

use std::fmt;

/// Version of the on-disk / on-wire encoding produced by these primitives'
/// callers. This crate is the bottom of the dependency stack, so it cannot
/// see `dmt_core::snapshot::SNAPSHOT_VERSION`; instead the snapshot module
/// compile-time-asserts equality with this constant, and the `dmt-verify`
/// `version-skew` lint cross-checks the literals. Bump both together.
pub const WIRE_FORMAT_VERSION: u32 = 3;

/// Typed decoding failure: either the buffer ended early or the bytes decode
/// to a structurally invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced value was complete.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were actually left.
        available: usize,
    },
    /// The bytes were present but decode to an invalid value (bad tag, shape
    /// mismatch, malformed UTF-8, ...). The message names the first violation.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {available} left"
                )
            }
            WireError::Invalid(msg) => write!(f, "invalid encoding: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Helper for building [`WireError::Invalid`] from format arguments.
pub fn invalid(msg: impl Into<String>) -> WireError {
    WireError::Invalid(msg.into())
}

/// Append-only byte sink the encoders write through.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64` (lossless on every supported
    /// platform).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its raw IEEE-754 bit pattern (bit-exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed `f64` sequence.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f64(v);
        }
    }

    /// Append a length-prefixed `u64` sequence.
    pub fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed `u32` sequence.
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Append length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded byte buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf`, positioned at the first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume and return the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Read a `u64` and convert it to `usize`, rejecting values that do not
    /// fit the platform.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| invalid(format!("length {v} exceeds the platform usize")))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool`, rejecting any byte other than `0` or `1`.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!("bool byte must be 0 or 1, got {other}"))),
        }
    }

    /// Read a sequence length prefix for elements of `elem_size` bytes,
    /// validating it against the bytes actually remaining **before** any
    /// allocation. A forged huge length therefore fails as truncation instead
    /// of reserving memory.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let len = self.get_usize()?;
        let needed = len
            .checked_mul(elem_size)
            .ok_or_else(|| invalid(format!("sequence length {len} overflows")))?;
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed `f64` sequence.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Read a length-prefixed `u64` sequence.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Read a length-prefixed `u32` sequence.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_len(1)?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| invalid(format!("malformed UTF-8 string: {e}")))
    }

    /// Require that every byte has been consumed (a section decoder calls
    /// this so trailing garbage cannot hide behind a valid prefix).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(invalid(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64_slice(&[1.5, -2.5]);
        w.put_u64_slice(&[9, 10]);
        w.put_u32_slice(&[u32::MAX]);
        w.put_str("snapshot");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![9, 10]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![u32::MAX]);
        assert_eq!(r.get_str().unwrap(), "snapshot");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = Writer::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(
            r.get_u64(),
            Err(WireError::Truncated {
                needed: 8,
                available: 3
            })
        ));
    }

    #[test]
    fn forged_length_prefix_fails_before_allocating() {
        // A length prefix of u64::MAX with no payload behind it must fail as
        // truncation (or overflow), never reserve memory.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.get_f64_vec().unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated { .. } | WireError::Invalid(_)
        ));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_invalid() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.get_bool(), Err(WireError::Invalid(_))));

        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_str(), Err(WireError::Invalid(_))));
    }

    #[test]
    fn expect_end_rejects_trailing_bytes() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(WireError::Invalid(_))));
    }
}
