//! Compact binary codec for cache spill records.
//!
//! The persistent solve-cache tier (the service's on-disk segment
//! files) round-trips whole [`ThermalDfaResult`]s and
//! [`ThermalSummary`]s through this codec. The encoding is **exact**:
//! every `f64` travels as its IEEE-754 bit pattern
//! (`to_bits`/`from_bits`), so a result loaded from disk is
//! byte-identical to the result that was spilled — the same
//! bit-identity contract the in-memory cache keeps, extended across
//! process restarts.
//!
//! The format is deliberately dumb: little-endian fixed-width
//! integers, length-prefixed sequences, no compression, no
//! self-description beyond a per-record version byte. Robustness
//! against torn or corrupted files lives one layer up, in the
//! service's segment store (checksummed records); this layer only
//! needs to refuse, with a typed [`CodecError`], anything that does
//! not decode cleanly — it must never panic on hostile bytes, which
//! the decoder's bounds-checked reads guarantee — or that decodes to a
//! value whose use would panic.
//!
//! [`ThermalDfaResult`]: crate::ThermalDfaResult
//! [`ThermalSummary`]: crate::ThermalSummary

use std::fmt;

/// The codec version stamped into every spill record. Bump on any
/// layout change: old segments then decode as [`CodecError::Version`]
/// and are skipped (re-solved and re-spilled), never misread.
pub const CODEC_VERSION: u8 = 1;

/// A decode failure — always an error value, never a panic, because
/// the bytes may come from a truncated or bit-flipped segment file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The buffer ended before the value being read.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// An enum/option tag byte held an undefined value.
    BadTag(u8),
    /// A length prefix was implausible (would overrun the buffer).
    BadLength(u64),
    /// The record was written by an incompatible codec version.
    Version(u8),
    /// Bytes remained after the value decoded — the record frame and
    /// the payload disagree about its size.
    TrailingBytes(usize),
    /// A field with a single valid encoding held other bits (a
    /// converged result's residual slot is always `0.0`), so the
    /// value would not re-encode to the bytes it came from.
    NonCanonical(u64),
    /// A field decoded cleanly but does not fit the record, so using
    /// the value would panic: a state whose length is not the record's
    /// point count, or a summary deposit at a point past it or with
    /// negative power. Carries the field's value (an `f64` as its bits).
    OutOfRange(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "record truncated: needed {need} bytes, had {have}")
            }
            CodecError::BadTag(t) => write!(f, "undefined tag byte {t:#04x}"),
            CodecError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            CodecError::Version(v) => write!(
                f,
                "codec version {v} is not the supported version {CODEC_VERSION}"
            ),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after a complete record")
            }
            CodecError::NonCanonical(bits) => write!(f, "non-canonical field bits {bits:#018x}"),
            CodecError::OutOfRange(v) => write!(f, "field value {v:#x} does not fit the record"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte sink.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A bounds-checked little-endian byte source over untrusted input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 16 bytes remain.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Validates a sequence length prefix against the bytes that are
    /// actually present: each element needs at least `min_elem_bytes`,
    /// so a flipped high bit in a length cannot trigger a huge
    /// allocation before the truncation is noticed.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] when the claimed length cannot fit.
    pub fn checked_len(&self, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let need = (n as usize).checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n as usize),
            _ => Err(CodecError::BadLength(n)),
        }
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(
            r.get_u128().unwrap(),
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF
        );
        // Exact bits: -0.0 stays -0.0, NaN keeps its payload.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64(), Err(CodecError::Truncated { need: 8, have: 4 }));
        let mut r = ByteReader::new(&bytes[..2]);
        assert!(matches!(r.get_u32(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn length_prefixes_are_sanity_checked() {
        let r = ByteReader::new(&[0u8; 16]);
        assert_eq!(r.checked_len(2, 8), Ok(2));
        assert_eq!(r.checked_len(3, 8), Err(CodecError::BadLength(3)));
        assert_eq!(
            r.checked_len(u64::MAX, 8),
            Err(CodecError::BadLength(u64::MAX))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(3)));
    }
}
