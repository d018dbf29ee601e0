//! Property-based tests of the chain substrate's invariants.

use proptest::prelude::*;
use unifyfl_chain::codec::{DecodeError, Decoder, Encoder};
use unifyfl_chain::contract::{CallContext, CallOutcome, Contract, ContractError};
use unifyfl_chain::hash::{sha256, Sha256, H256};
use unifyfl_chain::merkle::{merkle_proof, merkle_root, verify_proof};
use unifyfl_chain::orchestrator::{OrchestrationMode, Score, ScorersAssigned, UnifyFlContract};
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_sim::SimTime;

/// Hands `input` to a freshly deployed orchestrator as call data.
fn execute(input: &[u8]) -> Result<CallOutcome, ContractError> {
    let ctx = CallContext {
        sender: Address::from_label("anyone"),
        block_number: 1,
        timestamp: SimTime::ZERO,
        entropy: 0,
    };
    UnifyFlContract::new(Address::from_label("orchestrator"), OrchestrationMode::Sync)
        .execute(&ctx, input)
}

/// The orchestrator's call tags (`calls::TAG_*`): `0x01..=0x09`.
const CALL_TAGS: std::ops::RangeInclusive<u8> = 0x01..=0x09;

proptest! {
    /// Incremental hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Any split of a message across any number of `update` calls —
    /// empty pieces, pieces inside one 64-byte block, pieces spanning
    /// several — equals the one-shot digest.
    #[test]
    fn sha256_any_split_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        pieces in proptest::collection::vec(0usize..200, 0..24),
    ) {
        let mut h = Sha256::new();
        let mut rest = data.as_slice();
        for piece in pieces {
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Hex round-trip is the identity on digests.
    #[test]
    fn h256_hex_round_trips(bytes in proptest::array::uniform32(any::<u8>())) {
        let d = H256(bytes);
        prop_assert_eq!(H256::from_hex(&d.to_hex()).unwrap(), d);
    }

    /// Codec round-trips arbitrary field sequences.
    #[test]
    fn codec_round_trips(
        a in any::<u8>(),
        b in any::<u32>(),
        c in any::<u64>(),
        s in "[a-zA-Z0-9 ]{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut e = Encoder::new();
        e.put_u8(a).put_u32(b).put_u64(c).put_str(&s).put_bytes(&bytes);
        let buf = e.into_bytes();
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.take_u8().unwrap(), a);
        prop_assert_eq!(dec.take_u32().unwrap(), b);
        prop_assert_eq!(dec.take_u64().unwrap(), c);
        prop_assert_eq!(dec.take_str().unwrap(), s.as_str());
        prop_assert_eq!(dec.take_bytes().unwrap(), bytes.as_slice());
        dec.finish().unwrap();
    }

    /// Truncating an encoding never panics, only errors.
    #[test]
    fn decoder_never_panics_on_truncation(
        s in "[a-z]{0,32}",
        cut in 0usize..64,
    ) {
        let mut e = Encoder::new();
        e.put_str(&s).put_u64(42);
        let buf = e.into_bytes();
        let cut = cut.min(buf.len());
        let mut dec = Decoder::new(&buf[..cut]);
        // Either succeeds (cut landed past the field) or errors cleanly.
        let _ = dec.take_str();
        let _ = dec.take_u64();
    }

    /// Arbitrary bytes behind each valid call tag, and arbitrary bytes as
    /// a `ScorersAssigned` payload, are answered — accepted, reverted or a
    /// typed decode error — never a panic and never an allocation sized
    /// by a count the input merely claims.
    #[test]
    fn orchestrator_decoders_never_abort(
        tag in CALL_TAGS,
        body in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = ScorersAssigned::decode(&body);
        let mut input = vec![tag];
        input.extend_from_slice(&body);
        let _ = execute(&input);
    }

    /// Every leaf of any Merkle tree verifies against the root; mutated
    /// leaves do not.
    #[test]
    fn merkle_proofs_verify(items in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..24), index in 0usize..24) {
        let index = index % items.len();
        let root = merkle_root(items.iter().map(Vec::as_slice));
        let proof = merkle_proof(items.iter().map(Vec::as_slice), index).unwrap();
        prop_assert!(verify_proof(root, &items[index], &proof));
        let mut tampered = items[index].clone();
        tampered.push(0xFF);
        prop_assert!(!verify_proof(root, &tampered, &proof));
    }

    /// Transaction hashing is injective over the encoded fields (distinct
    /// nonces never collide).
    #[test]
    fn tx_hash_distinguishes_nonces(n1 in any::<u64>(), n2 in any::<u64>()) {
        prop_assume!(n1 != n2);
        let from = Address::from_label("prop");
        let to = Address::from_label("contract");
        let t1 = Transaction::call(from, to, n1, vec![]);
        let t2 = Transaction::call(from, to, n2, vec![]);
        prop_assert_ne!(t1.hash(), t2.hash());
    }

    /// Fixed-point score conversion is monotone and bounded-error on [0,1].
    #[test]
    fn score_conversion_is_faithful(v in 0.0f64..1.0) {
        let s = Score::from_f64(v);
        prop_assert!((s.to_f64() - v).abs() < 1e-6);
    }
}

/// A 13-byte `updateSharding` call — tag, epoch, a claimed 2³²−1 members
/// and not one of them — used to reserve 103 GB before reading a member
/// and abort the process.
#[test]
fn update_sharding_with_a_claimed_count_and_no_members_is_truncated() {
    let mut e = Encoder::new();
    e.put_u8(*CALL_TAGS.end()).put_u64(7).put_u32(u32::MAX);
    let input = e.into_bytes();
    assert_eq!(input.len(), 13);
    assert_eq!(
        execute(&input).unwrap_err(),
        ContractError::InvalidInput(DecodeError::Truncated {
            wanted: 20,
            remaining: 0
        })
    );
}

/// The same from 8 bytes of `ScorersAssigned` payload (86 GB).
#[test]
fn scorers_assigned_with_a_claimed_count_and_no_scorers_is_truncated() {
    let mut e = Encoder::new();
    e.put_str("").put_u32(u32::MAX);
    let payload = e.into_bytes();
    assert_eq!(payload.len(), 8);
    assert_eq!(
        ScorersAssigned::decode(&payload),
        Err(DecodeError::Truncated {
            wanted: 20,
            remaining: 0
        })
    );
}

/// FIPS 180-4's one-million-`a` vector, fed through `update` in pieces that
/// straddle, fill and fall short of the 64-byte block: 15,625 compressions
/// of whole blocks and of the carry buffer in every alignment.
#[test]
fn fips_million_a_in_uneven_updates() {
    let a = [b'a'; 200];
    let mut h = Sha256::new();
    let mut left = 1_000_000usize;
    for piece in [1usize, 63, 64, 65, 127, 128, 200, 7].iter().cycle() {
        let take = (*piece).min(left);
        h.update(&a[..take]);
        left -= take;
        if left == 0 {
            break;
        }
    }
    assert_eq!(
        h.finalize().to_hex(),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}
