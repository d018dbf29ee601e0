//! SHA-256 (FIPS 180-4), plus the [`H256`] digest newtype used throughout
//! the chain and storage substrates.
//!
//! The reproduction rules forbid pulling in a crypto crate, and the paper's
//! substrate (Geth + IPFS) is built on SHA-256/Keccak content addressing, so
//! the primitive is written here: padding and buffering once, in
//! [`Sha256`], over a compression function with **two paths**. The scalar
//! path, `compress`, is plain Rust, runs everywhere, and is the
//! reference. The hardware path, `compress_ni`, uses the x86 SHA
//! extensions and runs only on an `x86_64` CPU on which `std` detects
//! `sha`, `ssse3` and `sse4.1` at run time; `compress_blocks` makes that
//! choice per call, from the CPU alone — no feature, flag or variable can
//! force either path, and the build is the same on every host
//! ([`compress_path`] reports which one runs).
//!
//! What each is checked against: both paths, by name, against the NIST
//! vectors, the one-million-`a` vector and pinned known answers from a
//! random initial state, under any cut of the message into runs of
//! blocks; and the hardware path against the scalar one on arbitrary
//! `(state, blocks)`. The file's single `unsafe` block is the call from
//! the detection to the function compiled for what was detected; nothing
//! in it touches a raw pointer.

use std::fmt;

/// A 256-bit hash digest.
///
/// ```
/// use unifyfl_chain::hash::{sha256, H256};
/// let d: H256 = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero digest.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Lowercase hex encoding (64 chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHashError`] if the input is not exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Result<Self, ParseHashError> {
        if s.len() != 64 {
            return Err(ParseHashError);
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = hex_val(chunk[0]).ok_or(ParseHashError)?;
            let lo = hex_val(chunk[1]).ok_or(ParseHashError)?;
            out[i] = (hi << 4) | lo;
        }
        Ok(H256(out))
    }

    /// Folds the digest into a `u64`, e.g. to seed deterministic sampling
    /// from block entropy.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H256(0x{}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl AsRef<[u8]> for H256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for H256 {
    fn from(b: [u8; 32]) -> Self {
        H256(b)
    }
}

/// Error returned when parsing an invalid hex digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseHashError;

impl fmt::Display for ParseHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid 256-bit hex digest")
    }
}

impl std::error::Error for ParseHashError {}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use unifyfl_chain::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), unifyfl_chain::hash::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Finishes the computation, producing the digest.
    pub fn finalize(self) -> H256 {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie, all in one call.
        let (blocks, tail) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> H256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit length.
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        H256(out)
    }
}

/// Whether this CPU executes everything [`compress_ni`] is compiled with
/// (`sse2` is part of the `x86_64` baseline). Each probe is one load of a
/// word `std` fills once per process.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The compression path [`sha256`] and [`Sha256`] run on this host:
/// `"sha_ni"` or `"scalar"`. Observed from the CPU, not configurable.
pub fn compress_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        return "sha_ni";
    }
    "scalar"
}

/// Folds every whole 64-byte block of `data` into `state`, in order: on
/// the CPU's SHA extensions where it has them, through [`compress`]
/// everywhere else. The two agree bit for bit (the in-file tests hold each
/// to the same known answers and to each other), so which one ran is not
/// observable in any digest.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `compress_ni` is an ordinary safe function over a
        // `&mut [u32; 8]` and a `&[u8]` — no raw pointer, no precondition
        // on its arguments. Calling it is `unsafe` for one reason only: it
        // is compiled with the `sha`, `sse2`, `ssse3` and `sse4.1` target
        // features and must not execute on a CPU without them. `sse2` is
        // baseline on `x86_64`; the other three were just detected on this
        // CPU by the condition of this very `if`.
        unsafe { compress_ni(state, data) };
        return;
    }
    compress_scalar(state, data);
}

/// [`compress_blocks`] over the portable path whatever the CPU: the only
/// path off `x86_64` or without the SHA extensions, and the reference the
/// hardware path is tested against.
fn compress_scalar(state: &mut [u32; 8], data: &[u8]) {
    for block in data.as_chunks::<64>().0 {
        compress(state, block);
    }
}

/// [`compress_blocks`] on the x86 SHA extensions. The state stays in two
/// registers, packed the way `sha256rnds2` wants it — `ABEF` and `CDGH`,
/// `A` and `C` in the top lanes — across every block of the call; each
/// `sha256rnds2` does two rounds, `sha256msg1` / `sha256msg2` advance the
/// message schedule four words at a time over a ring of four registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], data: &[u8]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    // Four words in one register, the first in the lowest lane.
    let quad = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);

    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = quad([f, e, b, a]);
    let mut cdgh = quad([h, g, d, c]);

    // Rounds `4 * $i ..= 4 * $i + 3` on schedule words `$w`: the first
    // `sha256rnds2` leaves the new `ABEF` where `CDGH` was (the old `ABEF`
    // *is* the new `CDGH`), the second swaps them back.
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {
            let k = quad([K[4 * $i], K[4 * $i + 1], K[4 * $i + 2], K[4 * $i + 3]]);
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        };
    }
    // The same after first replacing the oldest four schedule words `$w0`
    // by the next four: `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
    macro_rules! schedule_rounds4 {
        ($w0:ident $w1:ident $w2:ident $w3:ident, $i:expr) => {
            let w16_s0 = _mm_sha256msg1_epu32($w0, $w1);
            let w7 = _mm_alignr_epi8::<4>($w3, $w2);
            $w0 = _mm_sha256msg2_epu32(_mm_add_epi32(w16_s0, w7), $w3);
            rounds4!($w0, $i);
        };
    }

    for block in data.as_chunks::<64>().0 {
        let (abef_save, cdgh_save) = (abef, cdgh);
        // Message words are big-endian; the compiler folds the sixteen
        // byte swaps into one shuffle per register.
        let be =
            |i: usize| u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let mut w0 = quad([be(0), be(4), be(8), be(12)]);
        let mut w1 = quad([be(16), be(20), be(24), be(28)]);
        let mut w2 = quad([be(32), be(36), be(40), be(44)]);
        let mut w3 = quad([be(48), be(52), be(56), be(60)]);
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0 w1 w2 w3, 4);
        schedule_rounds4!(w1 w2 w3 w0, 5);
        schedule_rounds4!(w2 w3 w0 w1, 6);
        schedule_rounds4!(w3 w0 w1 w2, 7);
        schedule_rounds4!(w0 w1 w2 w3, 8);
        schedule_rounds4!(w1 w2 w3 w0, 9);
        schedule_rounds4!(w2 w3 w0 w1, 10);
        schedule_rounds4!(w3 w0 w1 w2, 11);
        schedule_rounds4!(w0 w1 w2 w3, 12);
        schedule_rounds4!(w1 w2 w3 w0, 13);
        schedule_rounds4!(w2 w3 w0 w1, 14);
        schedule_rounds4!(w3 w0 w1 w2, 15);
        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);
    }
    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

/// One application of the SHA-256 compression function to `state`.
///
/// The 64 rounds are written out with the eight working variables renamed
/// from round to round instead of shuffled through each other, over a
/// 16-word ring of the message schedule (word `i` overwrites word `i - 16`
/// just before round `i` reads it), so the state lives in registers and
/// the schedule in one cache line.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // Round `$i` with the working variables in the given roles; from round
    // 16 on it first advances the ring (`$i` is a literal, so the test
    // folds away).
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {
            if $i >= 16 {
                let w15 = w[($i + 1) % 16];
                let w2 = w[($i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$i % 16] = w[$i % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) % 16])
                    .wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i % 16]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    macro_rules! eight_rounds {
        ($i:expr) => {
            round!(a b c d e f g h, $i);
            round!(h a b c d e f g, $i + 1);
            round!(g h a b c d e f, $i + 2);
            round!(f g h a b c d e, $i + 3);
            round!(e f g h a b c d, $i + 4);
            round!(d e f g h a b c, $i + 5);
            round!(c d e f g h a b, $i + 6);
            round!(b c d e f g h a, $i + 7);
        };
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> H256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// [`sha256`] over the scalar compression path whatever the CPU — for the
/// `scalar/…` rows of `benches/micro.rs`, which on a host with the SHA
/// extensions have no other way to reach it.
#[doc(hidden)]
pub fn sha256_scalar(data: &[u8]) -> H256 {
    let mut h = Sha256::new();
    h.update_with(compress_scalar, data);
    h.finalize_with(compress_scalar)
}

/// SHA-256 over the concatenation of two byte strings (used by the Merkle
/// tree without intermediate allocation).
pub fn sha256_pair(a: &[u8], b: &[u8]) -> H256 {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // NIST FIPS 180-4 / classic test vectors.
    const NIST: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    #[test]
    fn nist_vectors() {
        for (input, expect) in NIST {
            assert_eq!(sha256(input).to_hex(), expect);
        }
    }

    #[test]
    fn million_a() {
        let input = vec![b'a'; 1_000_000];
        assert_eq!(sha256(&input).to_hex(), MILLION_A);
    }

    // ---- The compression function itself, one path at a time. ----
    //
    // `sha256` / `Sha256` reach a compression path only through whatever
    // chooses it, so the tests above cover one path per host. These name
    // each path and hold it to the same answers.

    /// A compression path: folds every whole 64-byte block of the slice
    /// into the state, in order.
    type CompressFn = fn(&mut [u32; 8], &[u8]);

    /// Every compression path this host can run. Where the SHA extensions
    /// are detected the dispatching [`compress_blocks`] *is* the hardware
    /// path, so it is tested through the one call site production uses.
    fn paths() -> Vec<(&'static str, CompressFn)> {
        let mut paths: Vec<(&'static str, CompressFn)> = vec![("scalar", compress_scalar)];
        if compress_path() == "sha_ni" {
            paths.push(("sha_ni", compress_blocks));
        }
        paths
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fnv1a(state: &[u32; 8]) -> u64 {
        state
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// SHA-256 of `data` written directly over `compress`: the padded
    /// message is handed over in runs of `runs[i]` blocks (zero allowed)
    /// and then the rest at once, so the state crosses calls at every
    /// boundary the list names.
    fn digest_via(compress: CompressFn, data: &[u8], runs: &[usize]) -> H256 {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((padded.len() + 8).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        let mut rest = padded.as_slice();
        for run in runs {
            let (head, tail) = rest.split_at((run * 64).min(rest.len()));
            compress(&mut state, head);
            rest = tail;
        }
        compress(&mut state, rest);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        H256(out)
    }

    /// FNV-1a of the state words after `n` seeded random blocks folded
    /// into a seeded random *initial state* — not `H0`: a path that keeps
    /// the state in another layout must pack and unpack all eight words,
    /// which a fixed start could hide. `n = 0` is the untouched start.
    #[test]
    fn compress_known_answers_from_a_random_state() {
        const KNOWN: [(usize, u64); 6] = [
            (0, 0xf771_7028_bf46_5e92),
            (1, 0x0ee3_c482_dff2_5b50),
            (2, 0x537e_cc32_d785_9583),
            (3, 0x5494_702a_dab7_c5f0),
            (17, 0xd66c_a5a1_a4dd_69d0),
            (1000, 0x9f02_cd97_a5a6_1a07),
        ];
        let mut seed = 0x5eed_0022;
        let start: [u32; 8] = std::array::from_fn(|_| splitmix64(&mut seed) as u32);
        let data: Vec<u8> = (0..1000 * 64)
            .map(|_| splitmix64(&mut seed) as u8)
            .collect();
        for (name, compress) in paths() {
            for (n, expect) in KNOWN {
                let mut state = start;
                compress(&mut state, &data[..n * 64]);
                assert_eq!(fnv1a(&state), expect, "{name}: {n} blocks");
            }
        }
    }

    #[test]
    fn compress_paths_reproduce_the_fips_vectors() {
        let million = vec![b'a'; 1_000_000];
        for (name, compress) in paths() {
            for (input, expect) in NIST {
                assert_eq!(digest_via(compress, input, &[]).to_hex(), expect, "{name}");
            }
            for runs in [&[][..], &[1], &[0, 3, 1, 250]] {
                assert_eq!(
                    digest_via(compress, &million, runs).to_hex(),
                    MILLION_A,
                    "{name}: runs {runs:?}"
                );
            }
        }
    }

    proptest! {
        /// However the padded message is cut into runs of whole blocks —
        /// empty runs, single blocks, several at once — every path ends on
        /// the digest `sha256` gives.
        #[test]
        fn compress_any_block_split_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            runs in proptest::collection::vec(0usize..5, 0..24),
        ) {
            for (name, compress) in paths() {
                prop_assert_eq!(digest_via(compress, &data, &runs), sha256(&data), "{}", name);
            }
        }

        /// The path dispatch picks and the scalar reference agree on any
        /// state and any run of blocks (the same function twice on a host
        /// without the SHA extensions).
        #[test]
        fn compress_blocks_equals_scalar_on_arbitrary_state(
            start in proptest::array::uniform8(any::<u32>()),
            data in proptest::collection::vec(any::<u8>(), 0..=9 * 64),
        ) {
            let data = &data[..data.len() - data.len() % 64];
            let (mut dispatched, mut scalar) = (start, start);
            compress_blocks(&mut dispatched, data);
            compress_scalar(&mut scalar, data);
            prop_assert_eq!(dispatched, scalar, "{} blocks", data.len() / 64);
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(H256::from_hex(&d.to_hex()).unwrap(), d);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(H256::from_hex("zz"), Err(ParseHashError));
        assert_eq!(H256::from_hex(&"g".repeat(64)), Err(ParseHashError));
        assert_eq!(H256::from_hex(&"a".repeat(63)), Err(ParseHashError));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let d = H256::ZERO;
        assert!(d.to_string().starts_with("0x"));
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn pair_hash_equals_concat_hash() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"),);
    }

    #[test]
    fn to_u64_uses_leading_bytes() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(H256(b).to_u64(), 1);
    }
}
