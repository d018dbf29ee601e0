//! Minimal canonical binary encoding, RLP-inspired.
//!
//! Block headers and transactions must hash identically on every platform,
//! so the chain defines its own deterministic encoding rather than relying
//! on a general-purpose wire format. The scheme is deliberately simple:
//!
//! - integers are written big-endian at fixed width,
//! - byte strings are length-prefixed (`u32` BE),
//! - structures write their fields in declaration order.
//!
//! Decoding is implemented for the subset of types the chain stores, with
//! explicit error reporting on truncated input.

use std::fmt;

/// Canonical encoder: append-only byte sink.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends raw bytes without a length prefix (for fixed-width fields
    /// such as hashes).
    pub fn put_fixed(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Canonical decoder: sequential byte source.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps `buf` for decoding from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated input.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        let b = self.take_fixed(1)?;
        Ok(b[0])
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated input.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take_fixed(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated input.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take_fixed(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated input or an over-long prefix.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_u32()? as usize;
        self.take_fixed(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated or non-UTF-8 input.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        let bytes = self.take_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated input.
    pub fn take_fixed(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated {
                wanted: n,
                remaining: self.buf.len() - self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the input has been fully consumed.
    ///
    /// # Errors
    /// Returns [`DecodeError::TrailingBytes`] otherwise.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }
}

/// Error produced when decoding malformed canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the expected field.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes actually left.
        remaining: usize,
    },
    /// A string field held non-UTF-8 bytes.
    InvalidUtf8,
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes(usize),
    /// A tag byte did not match any known variant.
    UnknownTag(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { wanted, remaining } => {
                write!(
                    f,
                    "truncated input: wanted {wanted} bytes, {remaining} remaining"
                )
            }
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after structure"),
            DecodeError::UnknownTag(t) => write!(f, "unknown tag byte {t:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(0xdeadbeef)
            .put_u64(u64::MAX)
            .put_bytes(b"hello")
            .put_str("wörld")
            .put_fixed(&[1, 2, 3]);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xdeadbeef);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_bytes().unwrap(), b"hello");
        assert_eq!(d.take_str().unwrap(), "wörld");
        assert_eq!(d.take_fixed(3).unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_reports_sizes() {
        let mut d = Decoder::new(&[0, 0]);
        let err = d.take_u32().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                wanted: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.take_u8().unwrap();
        assert_eq!(d.finish().unwrap_err(), DecodeError::TrailingBytes(1));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_str().unwrap_err(), DecodeError::InvalidUtf8);
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut e = Encoder::new();
            e.put_str("model-cid").put_u64(12345);
            e.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn empty_encoder_reports_empty() {
        let e = Encoder::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
