//! Golden fence for the delta codec's **bytes**: a seeded corpus of
//! `(base, new)` pairs that lands in each of the four modes, with the mode
//! byte and an FNV-1a fingerprint of `delta_to_bytes`' output pinned per
//! pair, plus one fingerprint over what the decoder answers to a seeded
//! stream of single-byte corruptions of those blobs (value bits when it
//! accepts, the error variant when it rejects).
//!
//! The composed run goldens pin these bytes too, through CIDs, but only for
//! the shapes the runs happen to produce; this pins the codec directly, so
//! the encoders and decoders can be rewritten for speed and still be held to
//! the same output, accept / reject set and error variants.

use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes, DeltaDecodeError};
use unifyfl_tensor::weights::quantize_release;

const MODE_NAMES: [&str; 4] = ["dense", "sparse", "tail", "tail2"];

/// Lengths around the tag planes' packing (TAIL packs 4 words per tag byte,
/// TAIL2 packs 2), then sizes where the payload dominates the header.
const LENGTHS: [usize; 8] = [0, 1, 2, 3, 5, 64, 1001, 4096];

const KINDS: [&str; 7] = [
    "identical",
    "isolated",
    "drift",
    "quantised",
    "unrelated",
    "longer",
    "neg_zero",
];

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64: the corpus must not move when the vendored `rand` does.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`, exactly representable steps of 2⁻²³.
    fn unit(&mut self) -> f32 {
        ((self.next() >> 40) as f32) / (1u64 << 23) as f32 - 1.0
    }
}

fn pair(kind: &str, len: usize) -> (Vec<f32>, Vec<f32>) {
    let mut s = Stream(0x5EED ^ ((len as u64) << 8) ^ kind.len() as u64);
    let base: Vec<f32> = (0..len).map(|_| s.unit() * 0.5).collect();
    let new = match kind {
        "identical" => base.clone(),
        "isolated" => {
            let mut new = base.clone();
            for _ in 0..(len / 100).max(1).min(len) {
                let at = (s.next() % len as u64) as usize;
                new[at] = s.unit() * 3.0;
            }
            new
        }
        "drift" => base.iter().map(|w| w + w * 1.0e-4).collect(),
        "quantised" => {
            let base = quantize_release(&base, 7);
            let new = quantize_release(&base.iter().map(|w| w + w * 3.0e-3).collect::<Vec<_>>(), 7);
            return (base, new);
        }
        "unrelated" => base.iter().map(|w| -w * 3.7 + 0.1).collect(),
        "longer" => {
            let mut new = base.clone();
            new.extend((0..3).map(|_| s.unit()));
            new
        }
        "neg_zero" => {
            let mut base = base;
            let mut new = base.clone();
            for i in (0..len).step_by(3) {
                base[i] = 0.0;
                new[i] = -0.0;
            }
            return (base, new);
        }
        other => unreachable!("unknown corpus kind {other}"),
    };
    (base, new)
}

/// `(mode byte, FNV-1a of the blob)` per `KINDS` × `LENGTHS`, captured on
/// the four-pass encoders before any codec change.
const GOLDEN: [[(u8, u64); LENGTHS.len()]; KINDS.len()] = [
    // identical
    [
        (3, 0x29CA5049C361A14B), // tail2
        (3, 0x689D97CF9BE20AC2), // tail2
        (3, 0xF5D54DD16F4D76F9), // tail2
        (2, 0x7B637FB1AC24625C), // tail
        (1, 0x70CC92D69C85C314), // sparse
        (1, 0x40211FDED88CECC1), // sparse
        (1, 0xD15823627892AE59), // sparse
        (1, 0x9C9827779EBF39B1), // sparse
    ],
    // isolated
    [
        (3, 0x29CA5049C361A14B), // tail2
        (3, 0xBD604182EFBAFC2A), // tail2
        (3, 0x321DDA8F76360A80), // tail2
        (2, 0x07965138BCD79BB3), // tail
        (2, 0xFB16051A3CCBEC67), // tail
        (1, 0x1F314C7E7F403839), // sparse
        (1, 0xE04721B455C69322), // sparse
        (1, 0xC82C7296E966C4B1), // sparse
    ],
    // drift
    [
        (3, 0x29CA5049C361A14B), // tail2
        (3, 0x8238FEC5CCA8382B), // tail2
        (3, 0x8AFCCEFB220279E7), // tail2
        (2, 0xC00F192F631A8C9D), // tail
        (2, 0x435ED7A80A26256C), // tail
        (2, 0x34BED9E2333D6BCF), // tail
        (2, 0x0835766FF04C816D), // tail
        (2, 0x5625283EB1B69BC7), // tail
    ],
    // quantised
    [
        (3, 0x29CA5049C361A14B), // tail2
        (3, 0x68B27FCF9BF43E04), // tail2
        (3, 0x513B67CC19A45BC5), // tail2
        (3, 0x38280E318458A033), // tail2
        (3, 0x3427A3DC418D3B9B), // tail2
        (3, 0x68A47CA73EB23690), // tail2
        (3, 0x82E4702EF5D026A0), // tail2
        (3, 0x6A90B9A0D29A7DBB), // tail2
    ],
    // unrelated
    [
        (3, 0x29CA5049C361A14B), // tail2
        (0, 0x30DE3F2F0F25F93B), // dense
        (0, 0xE3C859B791C447A8), // dense
        (0, 0x676870510D398DBF), // dense
        (0, 0xCCB6A86F834C613B), // dense
        (0, 0xC0725EEC4FC2256A), // dense
        (0, 0xD7754BDEF76D1B9E), // dense
        (0, 0x7EF84A2B8CF36E31), // dense
    ],
    // longer
    [
        (0, 0xD7ED3C7BD32E8EEB), // dense
        (0, 0x3703EAAE305A376B), // dense
        (0, 0x438400E5F3B2A490), // dense
        (0, 0x7E5E923ADD2F47B1), // dense
        (0, 0x4B3BB8FFE0AFB9F2), // dense
        (0, 0x67495B3FC7B32167), // dense
        (0, 0x1D5B74B044318D4B), // dense
        (0, 0x1B8E358D5D165FD0), // dense
    ],
    // neg_zero
    [
        (3, 0x29CA5049C361A14B), // tail2
        (3, 0x68A7A5CF9BEA7711), // tail2
        (3, 0x22719CD188F028D6), // tail2
        (3, 0x46D8103676DD057D), // tail2
        (3, 0x532EAE1665EB84EB), // tail2
        (3, 0xEE136F90FC2109BC), // tail2
        (3, 0x04E89F82023E3ED5), // tail2
        (3, 0xCC5D62D7A7FB0270), // tail2
    ],
];

/// FNV-1a over the decoder's answers to the corruption stream, same capture.
const GOLDEN_CORRUPTIONS: u64 = 0xE5EA_6836_63A6_5EE1;

#[test]
fn encoded_bytes_match_the_pinned_corpus() {
    let mut modes_seen = [false; 4];
    let mut actual = [[(0u8, 0u64); LENGTHS.len()]; KINDS.len()];
    for (k, kind) in KINDS.iter().enumerate() {
        for (l, len) in LENGTHS.iter().enumerate() {
            let (base, new) = pair(kind, *len);
            let blob = delta_to_bytes(&base, &new);
            let decoded = delta_from_bytes(&base, &blob).expect("own output decodes");
            assert_eq!(
                decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                new.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{kind}/{len}: bit-exact reconstruction"
            );
            modes_seen[blob[4] as usize] = true;
            actual[k][l] = (blob[4], fnv1a(FNV_OFFSET, &blob));
        }
    }
    assert_eq!(modes_seen, [true; 4], "the corpus must land in every mode");
    if actual != GOLDEN {
        for (kind, row) in KINDS.iter().zip(&actual) {
            println!("    // {kind}");
            println!("    [");
            for (mode, fp) in row {
                println!(
                    "        ({mode}, {fp:#018X}), // {}",
                    MODE_NAMES[*mode as usize]
                );
            }
            println!("    ],");
        }
        panic!("delta_to_bytes output moved (actual table printed above)");
    }
}

#[test]
fn corrupted_blobs_decode_to_the_pinned_answers() {
    let mut s = Stream(0xC0DE);
    let mut h = FNV_OFFSET;
    let mut answers = [0usize; 6];
    let mut fold = |h: u64, answer: Result<Vec<f32>, DeltaDecodeError>| {
        let (class, h) = fold_answer(h, answer);
        answers[class] += 1;
        h
    };
    for kind in KINDS {
        for len in LENGTHS {
            let (base, new) = pair(kind, len);
            let blob = delta_to_bytes(&base, &new);
            for _ in 0..24 {
                let mut bad = blob.clone();
                // Byte 12 is the top of the declared count: a dense header
                // declaring ≥ 2⁶² weights overflows `count * 4`, which has
                // its own regression test.
                let at = loop {
                    let at = (s.next() % bad.len() as u64) as usize;
                    if at != 12 {
                        break at;
                    }
                };
                bad[at] ^= (s.next() % 255 + 1) as u8;
                h = fold(h, delta_from_bytes(&base, &bad));
            }
            // Directed: the stream ends in the high half of an infinity or
            // NaN, which a dense or sparse blob decodes to just that.
            if blob.len() >= 15 {
                let mut bad = blob.clone();
                let end = bad.len();
                bad[end - 2..].copy_from_slice(&[0x80, 0x7F]);
                h = fold(h, delta_from_bytes(&base, &bad));
            }
            // One byte short and one byte long, for every blob.
            h = fold(h, delta_from_bytes(&base, &blob[..blob.len() - 1]));
            let mut long = blob.clone();
            long.push(0);
            h = fold(h, delta_from_bytes(&base, &long));
        }
    }
    assert!(
        answers.iter().all(|n| *n > 0),
        "the stream must reach an accept and every error variant: {answers:?}"
    );
    assert_eq!(
        h, GOLDEN_CORRUPTIONS,
        "the decoder's accept / reject answers moved: {h:#018X} ({answers:?})"
    );
}

/// Folds one decoder answer into `h`; also returns its class (0 = accepted,
/// 1.. = the error variants in declaration order).
fn fold_answer(h: u64, answer: Result<Vec<f32>, DeltaDecodeError>) -> (usize, u64) {
    match answer {
        Ok(values) => {
            let h = values
                .iter()
                .fold(fnv1a(h, &[0]), |h, v| fnv1a(h, &v.to_bits().to_le_bytes()));
            (0, h)
        }
        Err(DeltaDecodeError::BadHeader) => (1, fnv1a(h, &[1])),
        Err(DeltaDecodeError::UnknownMode(m)) => (2, fnv1a(h, &[2, m])),
        Err(DeltaDecodeError::PayloadMismatch) => (3, fnv1a(h, &[3])),
        Err(DeltaDecodeError::BaseMismatch { expected, actual }) => {
            let h = fnv1a(h, &[4]);
            let h = fnv1a(h, &(expected as u64).to_le_bytes());
            (4, fnv1a(h, &(actual as u64).to_le_bytes()))
        }
        Err(DeltaDecodeError::NonFinite) => (5, fnv1a(h, &[5])),
    }
}
