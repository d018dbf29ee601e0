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

/// One field of a call's wire layout.
#[derive(Clone, Copy)]
enum Field {
    U32,
    U64,
    Str,
    /// `updateSharding`'s members: a `u32` count, then per member a
    /// 20-byte address and a `u32` shard.
    Members,
}

/// Every call's fields after its tag byte, in the order `dispatch` takes
/// them, with the tags that share the layout.
const LAYOUTS: [(&[u8], &[Field]); 6] = [
    (&[0x01, 0x02, 0x04, 0x06], &[]),
    (&[0x03], &[Field::Str]),
    (&[0x07], &[Field::Str, Field::Str, Field::Str]),
    (&[0x05], &[Field::Str, Field::U64]),
    (&[0x08], &[Field::U32, Field::U64, Field::Str]),
    (&[0x09], &[Field::U64, Field::Members]),
];

/// Reads a tag byte and `layout` through `Decoder`'s `take_*` calls, then
/// `finish`, and writes what it read back out with `Encoder`: `Ok` holds
/// the re-encoding.
fn reread(input: &[u8], layout: &[Field]) -> Result<Vec<u8>, DecodeError> {
    let mut d = Decoder::new(input);
    let mut e = Encoder::new();
    e.put_u8(d.take_u8()?);
    for field in layout {
        match field {
            Field::U32 => _ = e.put_u32(d.take_u32()?),
            Field::U64 => _ = e.put_u64(d.take_u64()?),
            Field::Str => _ = e.put_str(d.take_str()?),
            Field::Members => {
                let n = d.take_u32()?;
                e.put_u32(n);
                for _ in 0..n {
                    e.put_fixed(d.take_fixed(20)?).put_u32(d.take_u32()?);
                }
            }
        }
    }
    d.finish()?;
    Ok(e.into_bytes())
}

/// A well-formed call of `layout` under `tag`, its values drawn from
/// `pool` (strings ASCII, at most three members).
fn frame(tag: u8, layout: &[Field], pool: &[u8]) -> Vec<u8> {
    let mut draws = pool.iter().copied().cycle();
    let mut draw = |n: usize| -> Vec<u8> { draws.by_ref().take(n).collect() };
    let mut e = Encoder::new();
    e.put_u8(tag);
    for field in layout {
        match field {
            Field::U32 => _ = e.put_fixed(&draw(4)),
            Field::U64 => _ = e.put_fixed(&draw(8)),
            Field::Str => {
                let len = usize::from(draw(1)[0] % 48);
                let ascii: Vec<u8> = draw(len).iter().map(|b| b & 0x7F).collect();
                e.put_bytes(&ascii);
            }
            Field::Members => {
                let n = draw(1)[0] % 4;
                e.put_u32(u32::from(n));
                for _ in 0..n {
                    e.put_fixed(&draw(24));
                }
            }
        }
    }
    e.into_bytes()
}

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

    /// Under every call layout `dispatch` reads, arbitrary bytes and a
    /// well-formed call that is then cut, lengthened or has one byte
    /// flipped are answered without a panic: `Ok` only when reading the
    /// fields back writes exactly the input, otherwise a typed error whose
    /// sizes are consistent — and the contract gives the same decode answer
    /// for the layout's tags, which holds this table to `dispatch`.
    #[test]
    fn decoder_answers_arbitrary_bytes_under_every_call_layout(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        pool in proptest::collection::vec(any::<u8>(), 1..128),
        mutation in 0usize..4,
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        for (tags, layout) in LAYOUTS {
            let tag = tags[at % tags.len()];
            let mut framed = frame(tag, layout, &pool);
            let read = reread(&framed, layout);
            prop_assert_eq!(read, Ok(framed.clone()), "a well-formed call reads back");
            let len = framed.len();
            match mutation {
                0 => framed.truncate(at % len),
                1 => framed.push(flip),
                // Past the tag: another tag is another layout.
                2 if len > 1 => framed[1 + at % (len - 1)] ^= flip,
                _ => {}
            }
            let arbitrary = [&[tag][..], &body].concat();
            for input in [framed, arbitrary] {
                let answer = reread(&input, layout);
                match &answer {
                    Ok(bytes) => prop_assert_eq!(bytes, &input),
                    Err(DecodeError::Truncated { wanted, remaining }) => {
                        prop_assert!(remaining < wanted)
                    }
                    Err(DecodeError::TrailingBytes(n)) => prop_assert!(*n > 0 && *n < input.len()),
                    Err(DecodeError::InvalidUtf8) => {}
                    Err(e) => panic!("no take_* call answers {e}"),
                }
                let decoded = match execute(&input) {
                    Err(ContractError::InvalidInput(e)) => Err(e),
                    _ => Ok(()),
                };
                prop_assert_eq!(decoded, answer.map(|_| ()));
            }
        }
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
