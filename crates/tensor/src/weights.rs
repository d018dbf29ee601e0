//! Flat weight vectors and their wire serialization.
//!
//! Model weights travel through the system as `Vec<f32>`: serialized to
//! little-endian bytes for IPFS storage, deserialized on fetch, averaged by
//! the aggregation strategies. A small header carries the element count so
//! truncation is detected at the storage boundary.

use std::fmt;

/// Magic prefix identifying a serialized weight blob.
const MAGIC: &[u8; 4] = b"UFLW";

/// Serializes a weight vector (magic + u64 count + f32 LE payload).
///
/// One whole-slice conversion: the payload is sized once and every word
/// written into its own four-byte slot, which compiles to a copy.
pub fn weights_to_bytes(weights: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_WORDS + weights.len());
    out.extend(header_words(weights.len()));
    out.extend(weights.iter().map(|w| w.to_le_bytes()));
    out.into_flattened()
}

/// Four-byte words before a blob's payload: the magic, then the `u64`
/// count.
pub(crate) const HEADER_WORDS: usize = 3;

/// A blob's header as whole four-byte words, so a writer can build the
/// blob as one buffer of words and flatten it.
pub(crate) fn header_words(count: usize) -> [[u8; 4]; HEADER_WORDS] {
    let [a, b, c, d, e, f, g, h] = (count as u64).to_le_bytes();
    [*MAGIC, [a, b, c, d], [e, f, g, h]]
}

/// Deserializes a weight vector.
///
/// # Errors
///
/// Returns [`WeightsDecodeError`] if the magic, length or payload size is
/// wrong, or any value is non-finite (a corrupt model must never enter
/// aggregation).
pub fn weights_from_bytes(bytes: &[u8]) -> Result<Vec<f32>, WeightsDecodeError> {
    let words = payload_words(bytes)?;
    Ok(words.iter().map(|w| f32::from_le_bytes(*w)).collect())
}

/// A blob's payload as little-endian words, after every check
/// [`weights_from_bytes`] makes — the one validator of a weight blob, for
/// readers that never need the words as `f32`.
pub(crate) fn payload_words(bytes: &[u8]) -> Result<&[[u8; 4]], WeightsDecodeError> {
    if bytes.len() < 12 || &bytes[..4] != MAGIC {
        return Err(WeightsDecodeError::BadHeader);
    }
    let count = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[12..];
    // A header may declare any count: `count * 4` must not wrap into a
    // length the payload happens to have.
    if count.checked_mul(4) != Some(payload.len()) {
        return Err(WeightsDecodeError::LengthMismatch {
            declared: count,
            actual: payload.len() / 4,
        });
    }
    // No early exit: the all-finite case is the one that must be fast, and
    // this form vectorises.
    let (words, _) = payload.as_chunks::<4>();
    if words
        .iter()
        .fold(false, |bad, w| bad | !finite_bits(u32::from_le_bytes(*w)))
    {
        return Err(WeightsDecodeError::NonFinite);
    }
    Ok(words)
}

/// True unless `bits` is the pattern of a NaN or an infinity (an all-ones
/// exponent).
pub(crate) fn finite_bits(bits: u32) -> bool {
    bits & 0x7F80_0000 != 0x7F80_0000
}

/// Rounds a weight vector to a release precision of `mantissa_bits`
/// (1 ..= 23) kept mantissa bits, round-to-nearest-even on the IEEE bit
/// pattern, saturating at the largest representable finite value.
///
/// Publishers apply this before serialization so the *released* model is
/// precision-bounded: the dropped low-order mantissa bits are zero in every
/// stored word, which both bounds what peers can infer about raw local
/// weights and gives the [`crate::delta`] codec whole zero trailing bytes
/// to elide. `mantissa_bits == 23` is the identity. The result is always
/// finite for finite input; **non-finite values pass through unchanged**,
/// so a corrupt model still fails [`weights_from_bytes`]'s non-finite
/// rejection at the consumer instead of being laundered into a huge
/// finite weight.
///
/// # Panics
///
/// Panics if `mantissa_bits` is 0 or greater than 23.
pub fn quantize_release(weights: &[f32], mantissa_bits: u32) -> Vec<f32> {
    assert!(
        (1..=23).contains(&mantissa_bits),
        "mantissa_bits must be in 1..=23"
    );
    if mantissa_bits == 23 {
        return weights.to_vec();
    }
    let drop = 23 - mantissa_bits;
    // Largest finite magnitude whose low `drop` bits are zero.
    let max_mag = (0x7F80_0000u32 - (1 << drop)) & !((1 << drop) - 1);
    weights
        .iter()
        .map(|w| {
            if !w.is_finite() {
                return *w;
            }
            let bits = w.to_bits();
            let sign = bits & 0x8000_0000;
            let mag = bits & 0x7FFF_FFFF;
            // Round half to even on the magnitude's bit pattern (carries
            // into the exponent are exactly IEEE rounding).
            let bias = (1u32 << (drop - 1)) - 1 + ((mag >> drop) & 1);
            let rounded = mag.saturating_add(bias) & !((1 << drop) - 1);
            f32::from_bits(sign | rounded.min(max_mag))
        })
        .collect()
}

/// Error decoding a serialized weight blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightsDecodeError {
    /// Missing or wrong magic/header.
    BadHeader,
    /// Declared element count does not match the payload.
    LengthMismatch {
        /// Count in the header.
        declared: usize,
        /// Count implied by the payload size.
        actual: usize,
    },
    /// Payload contains NaN or infinity.
    NonFinite,
}

impl fmt::Display for WeightsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsDecodeError::BadHeader => write!(f, "bad weight blob header"),
            WeightsDecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "weight count mismatch: header {declared}, payload {actual}"
                )
            }
            WeightsDecodeError::NonFinite => write!(f, "weight blob contains non-finite values"),
        }
    }
}

impl std::error::Error for WeightsDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let w = vec![0.0f32, -1.5, 3.25, f32::MIN_POSITIVE, 1e30];
        let bytes = weights_to_bytes(&w);
        assert_eq!(weights_from_bytes(&bytes).unwrap(), w);
    }

    #[test]
    fn empty_round_trip() {
        let bytes = weights_to_bytes(&[]);
        assert!(weights_from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = weights_to_bytes(&[1.0]);
        bytes[0] = b'X';
        assert_eq!(
            weights_from_bytes(&bytes),
            Err(WeightsDecodeError::BadHeader)
        );
    }

    #[test]
    fn rejects_truncation() {
        let bytes = weights_to_bytes(&[1.0, 2.0]);
        let err = weights_from_bytes(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, WeightsDecodeError::LengthMismatch { .. }));
    }

    #[test]
    fn a_header_declaring_two_to_the_62_weights_is_a_length_mismatch() {
        // Twelve bytes any peer can publish: `count * 4` wraps to 0, which
        // is the payload's length, and the allocation for 2⁶² weights
        // aborts the fetching cluster.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert_eq!(
            weights_from_bytes(&bytes),
            Err(WeightsDecodeError::LengthMismatch {
                declared: 1 << 62,
                actual: 0
            })
        );
    }

    #[test]
    fn rejects_nan() {
        let bytes = weights_to_bytes(&[1.0, f32::NAN]);
        assert_eq!(
            weights_from_bytes(&bytes),
            Err(WeightsDecodeError::NonFinite)
        );
    }

    #[test]
    fn quantize_release_bounds_precision_and_stays_finite() {
        let w: Vec<f32> = vec![0.1, -0.1, 1.5e-38, 3.0e38, -3.0e38, 0.0, 123.456];
        let q = quantize_release(&w, 7);
        for (orig, quant) in w.iter().zip(&q) {
            assert!(quant.is_finite(), "{orig} -> {quant}");
            // Low 16 mantissa bits cleared (bf16-style payload).
            assert_eq!(quant.to_bits() & 0xFFFF, 0, "{orig} -> {quant:?}");
            // Relative error bounded by the kept precision (2^-7ish),
            // except right at the saturation clamp.
            if orig.abs() < 3.0e38 && *orig != 0.0 {
                assert!(((quant - orig) / orig).abs() < 0.01, "{orig} -> {quant}");
            }
        }
        // Sign and zero preserved exactly.
        assert_eq!(q[5], 0.0);
        assert!(q[1] < 0.0);
    }

    #[test]
    fn quantize_release_passes_non_finite_through_for_downstream_rejection() {
        // A corrupt (overflowed/poisoned) model must stay rejectable: the
        // quantizer must not launder inf/NaN into a huge finite weight.
        let q = quantize_release(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0], 7);
        assert_eq!(q[0], f32::INFINITY);
        assert_eq!(q[1], f32::NEG_INFINITY);
        assert!(q[2].is_nan());
        assert!(q[3].is_finite());
        // And the serialized blob still fails decoding, as before.
        assert_eq!(
            weights_from_bytes(&weights_to_bytes(&q)),
            Err(WeightsDecodeError::NonFinite)
        );
    }

    #[test]
    fn quantize_release_is_idempotent_and_full_precision_is_identity() {
        let w: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let q = quantize_release(&w, 10);
        assert_eq!(quantize_release(&q, 10), q, "idempotent");
        assert_eq!(quantize_release(&w, 23), w, "23 bits is the identity");
    }

    #[test]
    #[should_panic(expected = "mantissa_bits")]
    fn quantize_release_rejects_zero_bits() {
        let _ = quantize_release(&[1.0], 0);
    }

    #[test]
    fn wire_size_is_predictable() {
        let bytes = weights_to_bytes(&vec![0.0; 1000]);
        assert_eq!(bytes.len(), 12 + 4000);
    }
}
