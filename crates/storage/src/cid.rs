//! Content identifiers: SHA-256 multihash, base58btc, CIDv0 (`Qm…`).
//!
//! IPFS v0 CIDs are the base58btc encoding of a multihash:
//! `0x12` (sha2-256) `0x20` (32-byte length) followed by the digest. This
//! module implements both the multihash framing and the base58 alphabet
//! from scratch, so CIDs produced here are structurally identical to real
//! IPFS CIDs (and start with `Qm` exactly like the paper's).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use unifyfl_chain::hash::{sha256, H256};

/// Multihash code for sha2-256.
const MH_SHA2_256: u8 = 0x12;
/// Digest length for sha2-256.
const MH_LEN: u8 = 32;

const BASE58_ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// A CIDv0 content identifier.
///
/// ```
/// use unifyfl_storage::cid::Cid;
/// let cid = Cid::for_data(b"hello ipfs");
/// assert!(cid.to_string().starts_with("Qm"));
/// let parsed: Cid = cid.to_string().parse().unwrap();
/// assert_eq!(parsed, cid);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cid {
    digest: H256,
}

/// Hashes the digest's first eight bytes as one `u64`: a SHA-256 output is
/// already uniform, so the rest adds no spread, only work (equal CIDs have
/// equal digests, so `Hash` agrees with `Eq`).
impl Hash for Cid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let head = self.digest.0.first_chunk::<8>().expect("32 bytes");
        state.write_u64(u64::from_le_bytes(*head));
    }
}

/// A map keyed by CIDs the process hashed itself (see [`DigestHasher`]).
pub(crate) type CidMap<V> = HashMap<Cid, V, BuildHasherDefault<DigestHasher>>;
/// A set of CIDs the process hashed itself (see [`DigestHasher`]).
pub(crate) type CidSet = HashSet<Cid, BuildHasherDefault<DigestHasher>>;

/// The storage maps' hasher: passes the `u64` a [`Cid`] writes through as
/// its hash, in place of SipHash.
///
/// SipHash exists to keep an adversary who picks keys from piling them
/// into one bucket. Every key of a [`CidMap`] or [`CidSet`] is a SHA-256
/// this process computed (publishing, re-chunking a reconstruction) or
/// verified (receiving a block off the wire) before inserting it, over
/// content the simulated federation produced itself, so its bits are
/// uniform. A store fed by untrusted peers would want keyed hashing back:
/// a peer can grind content until a digest's low bits pick a bucket, at
/// 2ᵏ hashes per key for a table of 2ᵏ buckets. Any other bytes written
/// are folded in so the hasher stays total; nothing in the crate writes
/// them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*byte);
        }
    }
}

impl Cid {
    /// Computes the CID of a data block (sha2-256 multihash).
    pub fn for_data(data: &[u8]) -> Self {
        Cid {
            digest: sha256(data),
        }
    }

    /// Wraps an existing digest as a CID.
    pub fn from_digest(digest: H256) -> Self {
        Cid { digest }
    }

    /// The raw sha2-256 digest.
    pub fn digest(&self) -> H256 {
        self.digest
    }

    /// The multihash bytes (`0x12 0x20` + digest).
    pub fn multihash(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34);
        out.push(MH_SHA2_256);
        out.push(MH_LEN);
        out.extend_from_slice(self.digest.as_bytes());
        out
    }

    /// True if `data` hashes to this CID (integrity check after fetch).
    pub fn verifies(&self, data: &[u8]) -> bool {
        sha256(data) == self.digest
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", base58_encode(&self.multihash()))
    }
}

impl std::str::FromStr for Cid {
    type Err = ParseCidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = base58_decode(s).ok_or(ParseCidError)?;
        if bytes.len() != 34 || bytes[0] != MH_SHA2_256 || bytes[1] != MH_LEN {
            return Err(ParseCidError);
        }
        let mut digest = [0u8; 32];
        digest.copy_from_slice(&bytes[2..]);
        Ok(Cid {
            digest: H256(digest),
        })
    }
}

/// Error parsing a malformed CID string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseCidError;

impl fmt::Display for ParseCidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDv0 string")
    }
}

impl std::error::Error for ParseCidError {}

/// Base58btc encoding (Bitcoin alphabet), as used by IPFS CIDv0.
pub fn base58_encode(input: &[u8]) -> String {
    // Count leading zero bytes: each encodes as '1'.
    let zeros = input.iter().take_while(|b| **b == 0).count();
    // Repeated division by 58 over a big-endian big integer.
    let mut digits: Vec<u8> = Vec::new(); // base58 digits, little-endian
    for &byte in &input[zeros..] {
        let mut carry = byte as u32;
        for d in digits.iter_mut() {
            carry += (*d as u32) << 8;
            *d = (carry % 58) as u8;
            carry /= 58;
        }
        while carry > 0 {
            digits.push((carry % 58) as u8);
            carry /= 58;
        }
    }
    let mut out = String::with_capacity(zeros + digits.len());
    for _ in 0..zeros {
        out.push('1');
    }
    for &d in digits.iter().rev() {
        out.push(BASE58_ALPHABET[d as usize] as char);
    }
    out
}

/// Base58btc decoding; returns `None` on characters outside the alphabet.
pub fn base58_decode(input: &str) -> Option<Vec<u8>> {
    let zeros = input.bytes().take_while(|b| *b == b'1').count();
    let mut bytes: Vec<u8> = Vec::new(); // little-endian
    for ch in input[zeros..].bytes() {
        let val = BASE58_ALPHABET.iter().position(|c| *c == ch)? as u32;
        let mut carry = val;
        for b in bytes.iter_mut() {
            carry += (*b as u32) * 58;
            *b = (carry & 0xff) as u8;
            carry >>= 8;
        }
        while carry > 0 {
            bytes.push((carry & 0xff) as u8);
            carry >>= 8;
        }
    }
    let mut out = vec![0u8; zeros];
    out.extend(bytes.iter().rev());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_is_deterministic_and_content_sensitive() {
        let a = Cid::for_data(b"model weights v1");
        let b = Cid::for_data(b"model weights v1");
        let c = Cid::for_data(b"model weights v2");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cid_string_starts_with_qm() {
        // CIDv0 multihash prefix 0x12 0x20 base58-encodes to "Qm".
        for i in 0..20 {
            let cid = Cid::for_data(format!("data-{i}").as_bytes());
            assert!(cid.to_string().starts_with("Qm"), "{cid}");
        }
    }

    #[test]
    fn cid_round_trips_through_string() {
        let cid = Cid::for_data(b"round trip");
        let s = cid.to_string();
        let parsed: Cid = s.parse().unwrap();
        assert_eq!(parsed, cid);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Cid>().is_err());
        assert!("Qm!!!notbase58!!!".parse::<Cid>().is_err());
        // Valid base58 but wrong multihash framing.
        assert!("Qm".parse::<Cid>().is_err());
        assert!(base58_encode(&[0xFF; 10]).parse::<Cid>().is_err());
    }

    #[test]
    fn verifies_checks_content() {
        let data = b"integrity matters";
        let cid = Cid::for_data(data);
        assert!(cid.verifies(data));
        assert!(!cid.verifies(b"tampered"));
    }

    #[test]
    fn base58_known_vectors() {
        // Bitcoin-alphabet reference vectors.
        assert_eq!(base58_encode(b""), "");
        assert_eq!(base58_encode(b"hello world"), "StV1DL6CwTryKyV");
        assert_eq!(base58_encode(&[0, 0, 1]), "112");
        assert_eq!(base58_decode("StV1DL6CwTryKyV").unwrap(), b"hello world");
        assert_eq!(base58_decode("112").unwrap(), vec![0, 0, 1]);
        assert!(base58_decode("0OIl").is_none(), "ambiguous chars excluded");
    }

    #[test]
    fn base58_round_trips_random_like_buffers() {
        for len in [1usize, 2, 31, 32, 33, 64] {
            let buf: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let enc = base58_encode(&buf);
            assert_eq!(base58_decode(&enc).unwrap(), buf, "len={len}");
        }
    }
}
