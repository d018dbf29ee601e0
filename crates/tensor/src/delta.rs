//! Delta encoding of weight vectors against a base model.
//!
//! A federation round changes a model incrementally: most of a cluster's
//! round-*r* weights are numerically close to its round-*r−1* weights, and
//! many words share their high-order bytes bit for bit. Publishing the new
//! round as a *delta against a base CID* lets a peer that already holds the
//! base reconstruct the new model from a fraction of the bytes — the
//! bandwidth lever the storage layer's `(base_cid, delta_cid)` references
//! pull on.
//!
//! The codec is **bit-exact**: `delta_from_bytes(base, delta_to_bytes(base,
//! new)) == new` down to every `f32` bit pattern (including `-0.0`), so a
//! delta-reconstructed blob re-serializes to the identical bytes and its
//! content hash matches the published CID. Four encodings compete and the
//! smallest wins, deterministically:
//!
//! - **Dense** — raw `f32` bit patterns; the fallback that can never lose
//!   more than the header, and the only mode valid when the base length
//!   differs.
//! - **Sparse** — `(index, bits)` pairs for the words that changed; wins
//!   when most words are bit-identical to the base.
//! - **Tail** — per word, a 2-bit count of high-order bytes shared with the
//!   base plus only the unshared low-order bytes; wins when values drift by
//!   small relative amounts (the common case for SGD steps near
//!   convergence).
//! - **Tail2** — per word, a 4-bit `(shared-prefix, zero-suffix)` byte-count
//!   pair plus only the middle bytes; wins when releases are
//!   precision-bounded (see [`crate::weights::quantize_release`]), whose
//!   zeroed trailing bytes it elides on top of the shared prefix.
//!
//! Like [`crate::weights::weights_from_bytes`], decoding rejects non-finite
//! results: a delta can never smuggle NaN or infinity into aggregation.

use std::fmt;

use crate::weights::{finite_bits, header_words, payload_words, WeightsDecodeError, HEADER_WORDS};

/// Magic prefix identifying a serialized weight delta.
const MAGIC: &[u8; 4] = b"UFLD";

/// Mode byte: raw bit patterns for every word.
const MODE_DENSE: u8 = 0;
/// Mode byte: `(u32 index, u32 bits)` pairs for changed words only.
const MODE_SPARSE: u8 = 1;
/// Mode byte: packed 2-bit shared-prefix tags + unshared low bytes.
const MODE_TAIL: u8 = 2;
/// Mode byte: packed 4-bit (shared-prefix, zero-suffix) tags + middle
/// bytes. Wins when releases are precision-bounded (trailing zero bytes).
const MODE_TAIL2: u8 = 3;

/// Bytes before the mode-specific payload: magic, mode, `u64` word count.
const HEADER: usize = 13;

/// Number of high-order bytes of `new` that can be copied from `base`
/// (capped at 3 so at least one byte is always emitted, which keeps the
/// tag field at 2 bits). Three compares rather than a leading-zero count:
/// branch-free on every target, and it vectorises.
fn shared_high_bytes(base: u32, new: u32) -> u32 {
    let diff = base ^ new;
    u32::from(diff < 1 << 24) + u32::from(diff < 1 << 16) + u32::from(diff < 1 << 8)
}

/// `(shared_prefix, zero_suffix)` byte counts for the TAIL2 mode: how many
/// high-order bytes of `new` match `base`, and how many of its remaining
/// low-order bytes are zero (precision-bounded releases zero whole trailing
/// bytes). `prefix + suffix <= 4` always holds.
fn tail2_tags(base: u32, new: u32) -> (u32, u32) {
    let prefix = shared_high_bytes(base, new);
    let zero_low =
        u32::from(new & 0xFF == 0) + u32::from(new & 0xFFFF == 0) + u32::from(new & 0xFF_FFFF == 0);
    (prefix, zero_low.min(4 - prefix))
}

/// A blob with its header written and room for `payload` more bytes.
fn header(mode: u8, count: usize, payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload);
    out.extend_from_slice(MAGIC);
    out.push(mode);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out
}

/// Serializes `new` as a delta against `base` (magic + mode + u64 count +
/// mode-specific payload), picking the smallest of the four encodings.
/// When the lengths differ — a model architecture change between rounds —
/// the dense encoding is used and `base` is ignored.
pub fn delta_to_bytes(base: &[f32], new: &[f32]) -> Vec<u8> {
    if base.len() != new.len() {
        return encode_dense(new);
    }
    // One pass sizes all three base-relative encodings.
    let (mut changed, mut tail_bytes, mut tail2_bytes) = (0usize, 0usize, 0usize);
    for (b, n) in base.iter().zip(new) {
        let (b, n) = (b.to_bits(), n.to_bits());
        let (prefix, suffix) = tail2_tags(b, n);
        changed += usize::from(b != n);
        tail_bytes += (4 - prefix) as usize;
        tail2_bytes += (4 - prefix - suffix) as usize;
    }
    let tail_payload = new.len().div_ceil(4) + tail_bytes;
    let tail2_payload = new.len().div_ceil(2) + tail2_bytes;
    let sparse_payload = 4 + changed * 8;
    let dense_payload = new.len() * 4;

    // Deterministic choice: strictly smallest payload; ties prefer
    // tail2 > tail > sparse > dense (fixed order, so identical inputs
    // always yield identical bytes).
    let min = tail2_payload
        .min(tail_payload)
        .min(sparse_payload)
        .min(dense_payload);
    if tail2_payload == min {
        // Tag plane: 4 bits per word (prefix << 2 | suffix), 2 words per
        // byte; then the middle bytes in word order.
        encode_tagged(MODE_TAIL2, base, new, 2, tail2_payload, |b, n| {
            let (prefix, suffix) = tail2_tags(b, n);
            (
                (prefix << 2) | suffix,
                n >> (8 * suffix),
                4 - prefix - suffix,
            )
        })
    } else if tail_payload == min {
        // Tag plane: 2 bits per word (the shared prefix), 4 words per
        // byte; then the unshared low bytes in word order.
        encode_tagged(MODE_TAIL, base, new, 4, tail_payload, |b, n| {
            let prefix = shared_high_bytes(b, n);
            (prefix, n, 4 - prefix)
        })
    } else if sparse_payload == min {
        encode_sparse(base, new, changed)
    } else {
        encode_dense(new)
    }
}

fn encode_dense(new: &[f32]) -> Vec<u8> {
    let mut out = header(MODE_DENSE, new.len(), new.len() * 4);
    for w in new {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out
}

fn encode_sparse(base: &[f32], new: &[f32], changed: usize) -> Vec<u8> {
    let mut out = header(MODE_SPARSE, new.len(), 4 + changed * 8);
    out.extend_from_slice(&(changed as u32).to_le_bytes());
    for (i, (b, n)) in base.iter().zip(new).enumerate() {
        if b.to_bits() != n.to_bits() {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
    }
    out
}

/// The two tagged encodings: a plane of `per_byte` tags to the byte, then
/// for every word the `keep` low bytes of `emit`, where `(tag, emit, keep)`
/// is what `word(base_bits, new_bits)` answers. Each word is written with
/// one whole four-byte store that the next word's store overlaps, into a
/// buffer sized up front from `payload` (tag plane included).
fn encode_tagged(
    mode: u8,
    base: &[f32],
    new: &[f32],
    per_byte: usize,
    payload: usize,
    word: impl Fn(u32, u32) -> (u32, u32, u32),
) -> Vec<u8> {
    // Four bytes of slack take the last word's overhang (a TAIL2 word may
    // keep nothing and still stores four bytes).
    let mut out = header(mode, new.len(), payload + 4);
    out.resize(HEADER + payload + 4, 0);
    let (tags, body) = out[HEADER..].split_at_mut(new.len().div_ceil(per_byte));
    let tag_bits = 8 / per_byte;
    let mut at = 0;
    let groups = base.chunks(per_byte).zip(new.chunks(per_byte));
    for (tag_byte, (b, n)) in tags.iter_mut().zip(groups) {
        for (slot, (b, n)) in b.iter().zip(n).enumerate() {
            let (tag, emit, keep) = word(b.to_bits(), n.to_bits());
            *tag_byte |= (tag as u8) << (slot * tag_bits);
            body[at..at + 4].copy_from_slice(&emit.to_le_bytes());
            at += keep as usize;
        }
    }
    debug_assert_eq!(at + 4, body.len(), "sizing pass and encoder disagree");
    out.truncate(HEADER + payload);
    out
}

/// Deserializes a delta blob against `base`, reconstructing the exact new
/// weight vector.
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] if the header or payload is malformed, the
/// base length does not match a base-relative encoding, or any
/// reconstructed value is non-finite (a corrupt delta must never enter
/// aggregation).
pub fn delta_from_bytes(base: &[f32], bytes: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    let mut out = Vec::new();
    decode_into(base, bytes, &mut out)?;
    Ok(out)
}

/// Applies a delta blob to a serialized base model, in byte space: the
/// base words are read straight out of `base_blob`'s payload and the
/// reconstruction — header and little-endian words — is written into one
/// buffer, with no `f32` vector on either side.
///
/// The result is byte for byte
/// `weights_to_bytes(&delta_from_bytes(&weights_from_bytes(base_blob)?, delta)?)`,
/// and it refuses exactly what that chain refuses, with the same error.
///
/// # Errors
///
/// [`ApplyError::Base`] if `base_blob` is not a well-formed, finite weight
/// blob (checked first, whatever the delta's mode), then
/// [`ApplyError::Delta`] for anything [`delta_from_bytes`] refuses.
pub fn apply_to_blob(base_blob: &[u8], delta: &[u8]) -> Result<Vec<u8>, ApplyError> {
    let base = payload_words(base_blob).map_err(ApplyError::Base)?;
    let mut out = Vec::with_capacity(HEADER_WORDS + base.len());
    out.extend(header_words(0));
    decode_into(base, delta, &mut out).map_err(ApplyError::Delta)?;
    let count = out.len() - HEADER_WORDS;
    out[..HEADER_WORDS].copy_from_slice(&header_words(count));
    Ok(out.into_flattened())
}

/// A weight word as the decoders read and write it: an `f32`, or its four
/// little-endian bytes in a weight blob's payload. The codec only ever
/// looks at its bit pattern, so one decoder serves both.
trait Word: Copy + Default {
    fn bits(self) -> u32;
    fn from_bits(bits: u32) -> Self;
}

impl Word for f32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Word for [u8; 4] {
    fn bits(self) -> u32 {
        u32::from_le_bytes(self)
    }
    fn from_bits(bits: u32) -> Self {
        bits.to_le_bytes()
    }
}

/// Decodes `bytes` against `base`, appending the reconstructed words to
/// `out` (which may already hold a prefix the decoder leaves alone). On
/// an error `out` holds garbage past the prefix.
fn decode_into<W: Word>(
    base: &[W],
    bytes: &[u8],
    out: &mut Vec<W>,
) -> Result<(), DeltaDecodeError> {
    if bytes.len() < HEADER || &bytes[..4] != MAGIC {
        return Err(DeltaDecodeError::BadHeader);
    }
    let mode = bytes[4];
    let count = u64::from_le_bytes(bytes[5..HEADER].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[HEADER..];
    let start = out.len();
    match mode {
        MODE_DENSE => decode_dense(count, payload, out)?,
        MODE_SPARSE => decode_sparse(check_base(base, count)?, payload, out)?,
        MODE_TAIL => decode_tagged::<4, W>(check_base(base, count)?, payload, &TAIL_RULES, out)?,
        MODE_TAIL2 => decode_tagged::<2, W>(check_base(base, count)?, payload, &TAIL2_RULES, out)?,
        other => return Err(DeltaDecodeError::UnknownMode(other)),
    }
    // No early exit: the all-finite case is the one that must be fast, and
    // this form vectorises.
    if out[start..]
        .iter()
        .fold(false, |bad, w| bad | !finite_bits(w.bits()))
    {
        return Err(DeltaDecodeError::NonFinite);
    }
    Ok(())
}

/// A base-relative encoding only applies to a base of the declared length.
fn check_base<W>(base: &[W], count: usize) -> Result<&[W], DeltaDecodeError> {
    if base.len() != count {
        return Err(DeltaDecodeError::BaseMismatch {
            expected: count,
            actual: base.len(),
        });
    }
    Ok(base)
}

fn decode_dense<W: Word>(
    count: usize,
    payload: &[u8],
    out: &mut Vec<W>,
) -> Result<(), DeltaDecodeError> {
    // A header may declare any count: `count * 4` must not wrap into a
    // length the payload happens to have.
    if count.checked_mul(4) != Some(payload.len()) {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let (words, _) = payload.as_chunks::<4>();
    out.extend(words.iter().map(|w| W::from_bits(u32::from_le_bytes(*w))));
    Ok(())
}

fn decode_sparse<W: Word>(
    base: &[W],
    payload: &[u8],
    out: &mut Vec<W>,
) -> Result<(), DeltaDecodeError> {
    let Some((n_changed, pairs)) = payload.split_first_chunk::<4>() else {
        return Err(DeltaDecodeError::PayloadMismatch);
    };
    if (u32::from_le_bytes(*n_changed) as usize).checked_mul(8) != Some(pairs.len()) {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let start = out.len();
    out.extend_from_slice(base);
    let words = &mut out[start..];
    for pair in pairs.chunks_exact(8) {
        let index = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")) as usize;
        let bits = u32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
        let Some(slot) = words.get_mut(index) else {
            return Err(DeltaDecodeError::PayloadMismatch);
        };
        *slot = W::from_bits(bits);
    }
    Ok(())
}

/// How one tag rebuilds its word: the high bits kept from the base, the
/// bits taken off the stream (masked, then shifted over the zero suffix)
/// and how many stream bytes that consumes. A TAIL2 tag whose prefix and
/// suffix overlap (more than four bytes between them) is not `valid`.
#[derive(Clone, Copy)]
struct TagRule {
    base: u32,
    stream: u32,
    shift: u32,
    keep: u32,
    valid: bool,
}

impl TagRule {
    /// An invalid tag keeps nothing off the stream; the tag-plane check
    /// refuses it before a word is built.
    const fn new(prefix: u32, suffix: u32) -> TagRule {
        let valid = prefix + suffix <= 4;
        let keep = if valid { 4 - prefix - suffix } else { 0 };
        TagRule {
            base: !(u32::MAX >> (8 * prefix)),
            stream: ((1u64 << (8 * keep)) - 1) as u32,
            shift: 8 * suffix,
            keep,
            valid,
        }
    }
}

/// Every tag value's rule in one of the two tagged modes.
const fn rule_table(tail2: bool) -> [TagRule; 16] {
    let mut table = [TagRule::new(0, 0); 16];
    let mut tag = 0;
    while tag < 16 {
        let t = tag as u32;
        table[tag] = if tail2 {
            TagRule::new(t >> 2, t & 0b11)
        } else {
            TagRule::new(t & 0b11, 0)
        };
        tag += 1;
    }
    table
}

/// TAIL: a 2-bit tag is the shared prefix; the rest of the word is stored.
const TAIL_RULES: [TagRule; 16] = rule_table(false);
/// TAIL2: a 4-bit tag is `prefix << 2 | zero suffix`; the middle is stored.
const TAIL2_RULES: [TagRule; 16] = rule_table(true);

/// What one tag byte asks of the stream: the bytes its words store, and
/// whether every one of its tags is valid.
#[derive(Clone, Copy)]
struct ByteRule {
    keep: u16,
    valid: bool,
}

/// Every tag byte's [`ByteRule`] under `rules`, `per_byte` tags to the
/// byte.
const fn byte_table(rules: &[TagRule; 16], per_byte: usize) -> [ByteRule; 256] {
    let mut table = [ByteRule {
        keep: 0,
        valid: true,
    }; 256];
    let tag_bits = 8 / per_byte;
    let mut byte = 0;
    while byte < 256 {
        let mut slot = 0;
        while slot < per_byte {
            let rule = rules[(byte >> (slot * tag_bits)) & ((1 << tag_bits) - 1)];
            table[byte].keep += rule.keep as u16;
            table[byte].valid &= rule.valid;
            slot += 1;
        }
        byte += 1;
    }
    table
}

const TAIL_BYTES: [ByteRule; 256] = byte_table(&TAIL_RULES, 4);
const TAIL2_BYTES: [ByteRule; 256] = byte_table(&TAIL2_RULES, 2);

/// The two tagged encodings, `PER_BYTE` tags to a tag byte: each word is
/// its tag's rule applied to the base word and the stream under the
/// cursor, written over `out`'s next `base.len()` words.
///
/// The tag plane is checked before a word is built: every tag a word reads
/// must be valid, and the bytes they store must add up to the stream's
/// length exactly. That is the accept set of checking word by word, and it
/// leaves the word loop nothing to reject and nowhere to run past the
/// stream. Words go two at a time, which is at most eight stream bytes, so
/// a pair costs one load, from a copy of the stream with eight zero bytes
/// behind it: unconditional, with no short read at the end.
fn decode_tagged<const PER_BYTE: usize, W: Word>(
    base: &[W],
    payload: &[u8],
    rules: &[TagRule; 16],
    out: &mut Vec<W>,
) -> Result<(), DeltaDecodeError> {
    let Some((tags, stream)) = payload.split_at_checked(base.len().div_ceil(PER_BYTE)) else {
        return Err(DeltaDecodeError::PayloadMismatch);
    };
    let tag_bits = 8 / PER_BYTE;
    let rule = |byte: u8, slot: usize| {
        rules[usize::from(byte >> (slot * tag_bits)) & ((1 << tag_bits) - 1)]
    };
    let (groups, rest) = base.as_chunks::<PER_BYTE>();
    let (full, last) = tags.split_at(groups.len());
    // Fewer than `PER_BYTE` words read the last tag byte: only their slots
    // count.
    let last = last.first().map(|&byte| (byte, rest.len()));

    let bytes = if PER_BYTE == 4 {
        &TAIL_BYTES
    } else {
        &TAIL2_BYTES
    };
    let (mut need, mut valid) = (0usize, true);
    for &byte in full {
        let r = bytes[usize::from(byte)];
        need += usize::from(r.keep);
        valid &= r.valid;
    }
    if let Some((byte, slots)) = last {
        for slot in 0..slots {
            need += rule(byte, slot).keep as usize;
            valid &= rule(byte, slot).valid;
        }
    }
    if !valid || need != stream.len() {
        return Err(DeltaDecodeError::PayloadMismatch);
    }

    let mut padded = Vec::with_capacity(stream.len() + 8);
    padded.extend_from_slice(stream);
    padded.extend_from_slice(&[0; 8]);
    let load = |at: usize| u64::from_le_bytes(padded[at..at + 8].try_into().expect("8 bytes"));
    let start = out.len();
    out.resize(start + base.len(), W::default());
    let (dst, dst_rest) = out[start..].as_chunks_mut::<PER_BYTE>();
    let mut at = 0;
    for ((words, group), &byte) in dst.iter_mut().zip(groups).zip(full) {
        for p in 0..PER_BYTE / 2 {
            let mut bits = load(at);
            words[2 * p] = rebuild(rule(byte, 2 * p), group[2 * p], &mut bits, &mut at);
            words[2 * p + 1] = rebuild(rule(byte, 2 * p + 1), group[2 * p + 1], &mut bits, &mut at);
        }
    }
    if let Some((byte, _)) = last {
        for (slot, (word, b)) in dst_rest.iter_mut().zip(rest).enumerate() {
            let mut bits = load(at);
            *word = rebuild(rule(byte, slot), *b, &mut bits, &mut at);
        }
    }
    debug_assert_eq!(at, stream.len(), "tag plane and word loop disagree");
    Ok(())
}

/// One word rebuilt by `rule` from `base` and the stream bits `bits`
/// (loaded at stream offset `at`, this word's first stored byte), both of
/// which it then advances past the bytes the word consumed.
fn rebuild<W: Word>(rule: TagRule, base: W, bits: &mut u64, at: &mut usize) -> W {
    *at += rule.keep as usize;
    let stored = (*bits as u32 & rule.stream) << rule.shift;
    *bits >>= 8 * rule.keep;
    W::from_bits((base.bits() & rule.base) | stored)
}

/// Error decoding a serialized weight delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// Missing or wrong magic/header.
    BadHeader,
    /// The mode byte names no known encoding.
    UnknownMode(u8),
    /// The payload length or structure contradicts the header.
    PayloadMismatch,
    /// A base-relative encoding was decoded against a base of the wrong
    /// length (almost always: against the wrong base model).
    BaseMismatch {
        /// Base length the delta was encoded against.
        expected: usize,
        /// Length of the base actually supplied.
        actual: usize,
    },
    /// Reconstruction produced NaN or infinity.
    NonFinite,
}

impl fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaDecodeError::BadHeader => write!(f, "bad weight delta header"),
            DeltaDecodeError::UnknownMode(m) => write!(f, "unknown delta mode {m}"),
            DeltaDecodeError::PayloadMismatch => write!(f, "delta payload contradicts header"),
            DeltaDecodeError::BaseMismatch { expected, actual } => {
                write!(
                    f,
                    "delta base mismatch: encoded against {expected} weights, applied to {actual}"
                )
            }
            DeltaDecodeError::NonFinite => write!(f, "delta reconstruction is non-finite"),
        }
    }
}

impl std::error::Error for DeltaDecodeError {}

/// Error applying a delta blob to a serialized base model
/// ([`apply_to_blob`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The base blob is not a well-formed, finite weight blob.
    Base(WeightsDecodeError),
    /// The delta does not apply to the base.
    Delta(DeltaDecodeError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Base(e) => write!(f, "delta base: {e}"),
            ApplyError::Delta(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ApplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(base: &[f32], new: &[f32]) {
        let bytes = delta_to_bytes(base, new);
        let decoded = delta_from_bytes(base, &bytes).expect("decodes");
        assert_eq!(decoded.len(), new.len());
        for (d, n) in decoded.iter().zip(new) {
            assert_eq!(d.to_bits(), n.to_bits(), "bit-exact reconstruction");
        }
    }

    #[test]
    fn identical_vectors_encode_tiny_and_round_trip() {
        let w = vec![0.125f32; 1000];
        let bytes = delta_to_bytes(&w, &w);
        // Sparse with zero changes: header + n_changed only.
        assert!(
            bytes.len() <= 17,
            "unchanged delta is tiny: {}",
            bytes.len()
        );
        round_trip(&w, &w);
    }

    #[test]
    fn small_drift_uses_a_tail_mode_and_round_trips() {
        let base: Vec<f32> = (0..4096).map(|i| 0.5 + (i as f32) * 1e-6).collect();
        let mut new: Vec<f32> = base.iter().map(|w| w + w * 1e-4).collect();
        // `base ^ new` of exactly 1 << 8, 1 << 16 and 1 << 24: the lowest
        // bit of a byte the shared prefix must not claim.
        for (i, bit) in [8, 16, 24].into_iter().enumerate() {
            new[i] = f32::from_bits(base[i].to_bits() ^ (1 << bit));
        }
        let bytes = delta_to_bytes(&base, &new);
        assert!(bytes[4] == MODE_TAIL || bytes[4] == MODE_TAIL2);
        assert!(
            bytes.len() < new.len() * 4,
            "small drift must compress: {} vs {}",
            bytes.len(),
            new.len() * 4
        );
        round_trip(&base, &new);
    }

    #[test]
    fn quantized_release_drift_compresses_at_least_2x() {
        // The protocol's publish path: releases are precision-bounded
        // (see `weights::quantize_release`), so both the shared prefix and
        // the zero suffix of every word are exploitable — the regime the
        // TAIL2 mode exists for.
        let quantize = |w: &[f32]| crate::weights::quantize_release(w, 7);
        let base = quantize(
            &(0..4096)
                .map(|i| 0.3 + (i as f32).sin() * 0.1)
                .collect::<Vec<_>>(),
        );
        let new = quantize(&base.iter().map(|w| w + w * 3e-3).collect::<Vec<_>>());
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_TAIL2);
        assert!(
            bytes.len() * 2 < new.len() * 4,
            "quantized drift must compress ≥2x: {} vs {}",
            bytes.len(),
            new.len() * 4
        );
        round_trip(&base, &new);
    }

    #[test]
    fn unrelated_vectors_fall_back_to_dense_with_bounded_overhead() {
        // Sign flips change the top byte of every word: tail and sparse
        // both lose to dense.
        let base: Vec<f32> = (0..256).map(|i| (i as f32) - 128.0).collect();
        let new: Vec<f32> = base.iter().map(|w| -w * 3.7 + 0.1).collect();
        let bytes = delta_to_bytes(&base, &new);
        assert!(bytes.len() <= 13 + new.len() * 4 + 4);
        round_trip(&base, &new);
    }

    #[test]
    fn sparse_wins_for_isolated_changes() {
        let base = vec![1.0f32; 10_000];
        let mut new = base.clone();
        new[17] = 2.0;
        new[9_999] = -3.5;
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_SPARSE);
        assert!(bytes.len() < 64);
        round_trip(&base, &new);
    }

    #[test]
    fn length_change_round_trips_densely() {
        let base = vec![1.0f32; 8];
        let new = vec![2.0f32; 12];
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_DENSE);
        assert_eq!(delta_from_bytes(&base, &bytes).unwrap(), new);
    }

    #[test]
    fn negative_zero_is_preserved() {
        let base = vec![0.0f32, 1.0];
        let new = vec![-0.0f32, 1.0];
        round_trip(&base, &new);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = vec![1.0f32; 64];
        let new: Vec<f32> = (0..64).map(|i| 1.0 + i as f32 * 1e-5).collect();
        let bytes = delta_to_bytes(&base, &new);
        let err = delta_from_bytes(&base[..32], &bytes).unwrap_err();
        assert!(matches!(err, DeltaDecodeError::BaseMismatch { .. }));
    }

    #[test]
    fn rejects_bad_magic_and_mode() {
        let base = vec![1.0f32];
        let mut bytes = delta_to_bytes(&base, &base);
        bytes[0] = b'X';
        assert_eq!(
            delta_from_bytes(&base, &bytes),
            Err(DeltaDecodeError::BadHeader)
        );
        let mut bytes = delta_to_bytes(&base, &base);
        bytes[4] = 9;
        assert_eq!(
            delta_from_bytes(&base, &bytes),
            Err(DeltaDecodeError::UnknownMode(9))
        );
        assert_eq!(
            delta_from_bytes(&base, b"UFL"),
            Err(DeltaDecodeError::BadHeader)
        );
    }

    #[test]
    fn rejects_truncation() {
        let base: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let new: Vec<f32> = base.iter().map(|w| w + 0.5).collect();
        let bytes = delta_to_bytes(&base, &new);
        let err = delta_from_bytes(&base, &bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, DeltaDecodeError::PayloadMismatch);
    }

    #[test]
    fn rejects_non_finite_reconstruction() {
        // A dense delta carrying NaN bits must be refused at decode.
        let mut bytes = header(MODE_DENSE, 1, 4);
        bytes.extend_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert_eq!(
            delta_from_bytes(&[], &bytes),
            Err(DeltaDecodeError::NonFinite)
        );
    }

    #[test]
    fn a_dense_header_declaring_two_to_the_62_weights_is_a_payload_mismatch() {
        // `count * 4` wraps to 0 — the length of the empty payload — so the
        // lying header used to decode as `Ok(vec![])`.
        let bytes = header(MODE_DENSE, 1 << 62, 0);
        assert_eq!(
            delta_from_bytes(&[], &bytes),
            Err(DeltaDecodeError::PayloadMismatch)
        );
    }

    #[test]
    fn empty_vectors_round_trip() {
        round_trip(&[], &[]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let base: Vec<f32> = (0..500).map(|i| (i as f32).sin()).collect();
        let new: Vec<f32> = base.iter().map(|w| w * 1.001).collect();
        assert_eq!(delta_to_bytes(&base, &new), delta_to_bytes(&base, &new));
    }
}
