//! Property-based tests of the tensor/NN substrate's invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_tensor::arena::Arena;
use unifyfl_tensor::delta::DeltaDecodeError;
use unifyfl_tensor::layers::{Conv2d, Layer};
use unifyfl_tensor::loss::softmax_cross_entropy;
use unifyfl_tensor::zoo::{Architecture, ModelSpec};
use unifyfl_tensor::{weights_from_bytes, weights_to_bytes, Tensor};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3).prop_map(|v| v)
}

/// Word `i`'s `(prefix, suffix)` byte counts in a tagged mode's tag plane:
/// TAIL (mode 2) packs four 2-bit prefixes to the byte, TAIL2 (mode 3) two
/// 4-bit `prefix << 2 | suffix` tags, low bits first.
fn tag_of(mode: u8, tags: &[u8], i: usize) -> (usize, usize) {
    let per_byte = if mode == 2 { 4 } else { 2 };
    let tag_bits = 8 / per_byte;
    let tag = usize::from(tags[i / per_byte] >> (i % per_byte * tag_bits)) & ((1 << tag_bits) - 1);
    if mode == 2 {
        (tag, 0)
    } else {
        (tag >> 2, tag & 0b11)
    }
}

/// The tagged modes as the format defines them, one word at a time over
/// bytes: word `i` is its base word's `prefix` high bytes, above `keep =
/// 4 − prefix − suffix` bytes taken off the stream, above `suffix` zero
/// bytes. A tag whose prefix and suffix overlap, a stream that runs out or
/// one with bytes left over is a `PayloadMismatch`; a non-finite word,
/// after that, is `NonFinite`.
fn tagged_definition(mode: u8, base: &[f32], payload: &[u8]) -> Result<Vec<u32>, DeltaDecodeError> {
    let per_byte = if mode == 2 { 4 } else { 2 };
    let Some((tags, mut stream)) = payload.split_at_checked(base.len().div_ceil(per_byte)) else {
        return Err(DeltaDecodeError::PayloadMismatch);
    };
    let mut out = Vec::new();
    for (i, b) in base.iter().enumerate() {
        let (prefix, suffix) = tag_of(mode, tags, i);
        let Some(keep) = 4usize.checked_sub(prefix + suffix) else {
            return Err(DeltaDecodeError::PayloadMismatch);
        };
        let Some((stored, rest)) = stream.split_at_checked(keep) else {
            return Err(DeltaDecodeError::PayloadMismatch);
        };
        stream = rest;
        // Little-endian: the zero suffix is the low bytes.
        let mut word = [0u8; 4];
        word[suffix..suffix + keep].copy_from_slice(stored);
        word[4 - prefix..].copy_from_slice(&b.to_bits().to_le_bytes()[4 - prefix..]);
        out.push(u32::from_le_bytes(word));
    }
    if !stream.is_empty() {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    if out.iter().any(|w| !f32::from_bits(*w).is_finite()) {
        return Err(DeltaDecodeError::NonFinite);
    }
    Ok(out)
}

/// Random MLP depths / widths and CNN shapes.
fn any_spec() -> impl Strategy<Value = ModelSpec> {
    let mlp = (
        1usize..24,
        proptest::collection::vec(1usize..24, 0..4),
        1usize..12,
    )
        .prop_map(|(input, hidden, classes)| ModelSpec::mlp(input, hidden, classes));
    let cnn = (
        1usize..4,
        1usize..7,
        1usize..7,
        1usize..6,
        1usize..12,
        1usize..8,
    )
        .prop_map(|(in_c, h, w, conv_channels, hidden, classes)| ModelSpec {
            name: "cnn".into(),
            arch: Architecture::SmallCnn {
                in_c,
                h,
                w,
                conv_channels,
                hidden,
                classes,
            },
            virtual_params: None,
        });
    prop_oneof![mlp, cnn]
}

/// Share of exact zeros the kernel-identity tests fill their operands
/// with: none (where a zero-skip is pure overhead), the sparse and dense
/// ends, the coin toss a ReLU produces, and all (every term skipped).
const ZERO_PCTS: [u64; 5] = [0, 10, 50, 90, 100];

/// A kernel-identity operand: `zero_pct` % exact zeros at hashed positions,
/// half of them `-0.0` (a skip must treat both signs alike), about one `∞`
/// and one NaN per 211 elements — at most about one of each per operand, so
/// the training shapes keep finite outputs to compare — and otherwise
/// values whose sums round differently in a different order.
fn kernel_operand(dims: &[usize], salt: u64, zero_pct: u64) -> Tensor {
    let count: usize = dims.iter().product();
    let rare = (count as u64).max(211);
    let data = (0..count as u64)
        .map(|i| {
            // splitmix64's finalizer: every output bit depends on every
            // bit of the position and the salt.
            let mut h = i.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            if h % 100 < zero_pct {
                if (h >> 32) & 1 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else if (h >> 8) % rare == 0 {
                f32::INFINITY
            } else if (h >> 8) % rare == 1 {
                f32::NAN
            } else {
                ((h >> 20) % 2000) as f32 / 250.0 - 4.0
            }
        })
        .collect();
    Tensor::from_vec(dims.to_vec(), data)
}

/// Asserts `matmul`, `matmul_tn` and `matmul_nt` equal their `*_naive`
/// references bit for bit on `[m, k] · [k, n]`-shaped problems whose
/// operands — *both* of them — carry `±0.0`, `∞` and NaN: a left-hand zero
/// the reference skips must not be multiplied (`0 · ∞` is NaN), a NaN or
/// `∞` the reference multiplies must not be skipped, and every output
/// element must meet its addends in the reference's order.
fn check_blocked_kernels(m: usize, k: usize, n: usize, seed: u64, zero_pct: u64) {
    // A panicking assertion reads as a test-case failure under proptest.
    let assert_bits = |what: &str, blocked: &Tensor, naive: &Tensor| {
        assert_eq!(blocked.shape(), naive.shape(), "{what}");
        for (i, (b, v)) in blocked.data().iter().zip(naive.data()).enumerate() {
            // NaN payloads are the one thing IEEE 754 leaves open.
            let same = b.to_bits() == v.to_bits() || (b.is_nan() && v.is_nan());
            assert!(
                same,
                "{what} {m}x{k}x{n} at {zero_pct}% zeros, [{i}]: {b} vs {v}"
            );
        }
    };
    let a = kernel_operand(&[m, k], seed, zero_pct);
    let b = kernel_operand(&[k, n], seed ^ 0xABCD, zero_pct);
    assert_bits("matmul", &a.matmul(&b), &a.matmul_naive(&b));

    let at = kernel_operand(&[k, m], seed ^ 0x1111, zero_pct);
    assert_bits("matmul_tn", &at.matmul_tn(&b), &at.matmul_tn_naive(&b));

    let bt = kernel_operand(&[n, k], seed ^ 0x2222, zero_pct);
    assert_bits("matmul_nt", &a.matmul_nt(&bt), &a.matmul_nt_naive(&bt));
}

/// The three products one batch-5 step of the paper's CNN sends through
/// `Dense(1024 → 60)` — forward `x · W`, weight gradient `xᵀ · g`, input
/// gradient `g · Wᵀ` — at every zero density (in a run the left operands
/// are 49 %, 49 % and 41 % exact zeros), each shape through all three
/// orientations.
#[test]
fn blocked_kernels_are_bit_identical_on_the_training_shapes() {
    for (m, k, n) in [(5, 1024, 60), (1024, 5, 60), (5, 60, 1024)] {
        for (seed, &zero_pct) in ZERO_PCTS.iter().enumerate() {
            check_blocked_kernels(m, k, n, 0xC0FFEE + seed as u64, zero_pct);
        }
    }
}

proptest! {
    /// The closed-form parameter count is the built model's: the cost
    /// model never constructs a network, so only this keeps the formula
    /// honest when a layer is added to an architecture.
    #[test]
    fn actual_params_counts_the_built_model(spec in any_spec(), seed in any::<u64>()) {
        prop_assert_eq!(spec.actual_params(), spec.build(seed).param_count());
        prop_assert_eq!(spec.actual_params(), spec.build_zeroed().param_count());
    }

    /// Weight serialization is the identity on finite vectors.
    #[test]
    fn weights_round_trip(w in proptest::collection::vec(finite_f32(), 0..256)) {
        let bytes = weights_to_bytes(&w);
        prop_assert_eq!(weights_from_bytes(&bytes).unwrap(), w);
    }

    /// Truncated weight blobs error rather than panic or mis-decode.
    #[test]
    fn weights_truncation_detected(w in proptest::collection::vec(finite_f32(), 1..64), cut in 0usize..64) {
        let bytes = weights_to_bytes(&w);
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(weights_from_bytes(&bytes[..cut]).is_err());
    }

    /// Matmul distributes over scaling: (αA)B = α(AB).
    #[test]
    fn matmul_is_homogeneous(
        a in proptest::collection::vec(-10.0f32..10.0, 6),
        b in proptest::collection::vec(-10.0f32..10.0, 6),
        alpha in -4.0f32..4.0,
    ) {
        let ta = Tensor::from_vec(vec![2, 3], a);
        let tb = Tensor::from_vec(vec![3, 2], b);
        let mut scaled_a = ta.clone();
        scaled_a.scale(alpha);
        let lhs = scaled_a.matmul(&tb);
        let mut rhs = ta.matmul(&tb);
        rhs.scale(alpha);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(data in proptest::collection::vec(finite_f32(), 12)) {
        let t = Tensor::from_vec(vec![3, 4], data);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// Softmax-CE loss is non-negative, finite, and its gradient rows sum
    /// to ~0 for any logits.
    #[test]
    fn loss_invariants(
        logits in proptest::collection::vec(-50.0f32..50.0, 8),
        label in 0usize..4,
    ) {
        let t = Tensor::from_vec(vec![2, 4], logits);
        let out = softmax_cross_entropy(&t, &[label, (label + 1) % 4]);
        prop_assert!(out.loss >= 0.0);
        prop_assert!(out.loss.is_finite());
        for row in 0..2 {
            let s: f32 = out.grad.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-4, "row grad sum {s}");
        }
    }

    /// Flat-parameter set/get is the identity for any model weights.
    #[test]
    fn flat_params_round_trip(seed in any::<u64>(), delta in -1.0f32..1.0) {
        let spec = ModelSpec::mlp(6, vec![8], 3);
        let mut m = spec.build(seed);
        let mut p = m.flat_params();
        for v in p.iter_mut() {
            *v += delta;
        }
        m.set_flat_params(&p);
        prop_assert_eq!(m.flat_params(), p);
    }

    /// Model inference is deterministic: same weights, same input, same
    /// logits.
    #[test]
    fn inference_is_deterministic(seed in any::<u64>(), input in proptest::collection::vec(-2.0f32..2.0, 6)) {
        let spec = ModelSpec::mlp(6, vec![8], 3);
        let mut m1 = spec.build(seed);
        let mut m2 = spec.build(seed);
        let x = Tensor::from_vec(vec![1, 6], input);
        prop_assert_eq!(m1.forward(&x, false), m2.forward(&x, false));
    }

    /// The cache-blocked matmul kernels are **bit-identical** to the naive
    /// triple loops for every orientation, on arbitrary shapes straddling
    /// the 64-wide tile boundaries (odd, prime, exactly-tile, tile±1), at
    /// every zero density from none to all — see [`check_blocked_kernels`]
    /// for what the operands hold.
    #[test]
    fn blocked_kernels_are_bit_identical_to_naive(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
        density in 0usize..ZERO_PCTS.len(),
    ) {
        check_blocked_kernels(m, k, n, seed, ZERO_PCTS[density]);
    }

    /// The vectorised convolution kernels are **bit-identical** to the
    /// scalar reference loops on the output, both parameter gradients and
    /// the input gradient — over channel counts straddling the 16-wide
    /// output-channel block and its tails, every padding from none to more
    /// than "same", inputs down to the smallest the kernel fits on,
    /// `+0.0` / `-0.0` sprinkled through the input, the weights and the
    /// output gradient (the kernels' skip path — and a rare `∞`, which is
    /// what tells a skipped zero from a multiplied one: `∞ · 0` is NaN),
    /// and gradients that start non-zero (the second backward accumulates
    /// onto the first).
    #[test]
    fn conv_kernels_are_bit_identical_to_naive(
        batch in 1usize..=6,
        in_c in 1usize..=4,
        h in 1usize..=9,
        w in 1usize..=9,
        out_c in 1usize..=40,
        k_idx in 0usize..3,
        pad_draw in 0usize..5,
        seed in any::<u64>(),
        zero_every in 2usize..9,
    ) {
        let k = [1, 3, 5][k_idx];
        let pad = pad_draw % k;
        // The smallest input the kernel still fits on, padding included.
        let fits = k.saturating_sub(2 * pad);
        let (h, w) = (h.max(fits), w.max(fits));
        let fill = |count: usize, salt: u64| -> Vec<f32> {
            (0..count)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
                    match h % (2 * zero_every as u64) {
                        0 => 0.0,
                        r if r == zero_every as u64 => -0.0,
                        _ if (h >> 8).is_multiple_of(211) => f32::INFINITY,
                        _ => ((h >> 8) % 2000) as f32 / 250.0 - 4.0,
                    }
                })
                .collect()
        };
        let assert_bits = |what: &str, fast: &[f32], naive: &[f32]| {
            assert_eq!(fast.len(), naive.len(), "{what}");
            for (i, (f, n)) in fast.iter().zip(naive).enumerate() {
                // NaN payloads are the one thing IEEE 754 leaves open.
                let same = f.to_bits() == n.to_bits() || (f.is_nan() && n.is_nan());
                assert!(same, "{what}[{i}]: {f} vs {n}");
            }
        };
        let grads = |layer: &Conv2d| {
            let mut all = Vec::new();
            layer.for_each_grad(&mut |g| all.push(g.to_vec()));
            all
        };

        let build = || {
            let mut layer = Conv2d::new(in_c, out_c, k, pad, &mut StdRng::seed_from_u64(seed));
            let mut salt = seed ^ 0x3333;
            layer.for_each_param_mut(&mut |p| {
                p.copy_from_slice(&fill(p.len(), salt));
                salt ^= 0x4444;
            });
            layer
        };
        let (mut fast, mut naive) = (build(), build());
        let arena = &mut Arena::new();
        let x = Tensor::from_vec(vec![batch, in_c, h, w], fill(batch * in_c * h * w, seed));

        let out = fast.forward(&x, true, arena);
        assert_bits("out", out.data(), naive.forward_naive(&x).data());
        // The reference reads the input the production forward cached.
        naive.forward(&x, true, arena);

        for round in 0..2 {
            let g = Tensor::from_vec(out.shape().to_vec(), fill(out.len(), seed ^ round));
            let gin = fast.backward(&g, true, arena).expect("asked for the input gradient");
            assert_bits("grad_in", gin.data(), naive.backward_naive(&g).data());
            let (gf, gn) = (grads(&fast), grads(&naive));
            assert_bits("grad_w", &gf[0], &gn[0]);
            assert_bits("grad_b", &gf[1], &gn[1]);
        }
        // Skipping the input gradient leaves the parameter gradients alone.
        let g = Tensor::from_vec(out.shape().to_vec(), fill(out.len(), seed ^ 2));
        assert!(fast.backward(&g, false, arena).is_none());
        naive.backward_naive(&g);
        assert_bits("grad_w", &grads(&fast)[0], &grads(&naive)[0]);
    }
}

proptest! {
    /// Delta encode → decode is exactly the identity on arbitrary finite
    /// weight tensors, bit for bit, for every base relationship: related
    /// (small drift), unrelated, quantized, or length-mismatched.
    #[test]
    fn delta_round_trip_is_bit_exact(
        base in proptest::collection::vec(finite_f32(), 0..256),
        extra in proptest::collection::vec(finite_f32(), 0..16),
        drift in -0.5f32..0.5,
        mantissa_bits in 1u32..=23,
        same_len in any::<bool>(),
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes};
        use unifyfl_tensor::weights::quantize_release;

        // Derive a "new" vector that exercises each encoder regime.
        let mut new: Vec<f32> = base.iter().map(|w| w + w * drift).collect();
        if !same_len {
            new.extend(&extra);
        }
        let new = quantize_release(&new, mantissa_bits);

        let bytes = delta_to_bytes(&base, &new);
        let decoded = delta_from_bytes(&base, &bytes).unwrap();
        prop_assert_eq!(decoded.len(), new.len());
        for (d, n) in decoded.iter().zip(&new) {
            prop_assert_eq!(d.to_bits(), n.to_bits(), "bit-exact reconstruction");
        }
    }

    /// The NaN-free guarantee: a delta whose reconstruction would contain
    /// non-finite values is rejected at decode, never returned.
    #[test]
    fn delta_decode_rejects_non_finite(
        base in proptest::collection::vec(finite_f32(), 1..64),
        poison_at in 0usize..64,
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes, DeltaDecodeError};

        let mut new = base.clone();
        let poison_at = poison_at % new.len();
        new[poison_at] = f32::NAN;
        let bytes = delta_to_bytes(&base, &new);
        prop_assert_eq!(
            delta_from_bytes(&base, &bytes).unwrap_err(),
            DeltaDecodeError::NonFinite
        );
    }

    /// A delta never decodes against a wrong-length base (stand-in for
    /// "the wrong base model"): it errors rather than fabricating weights.
    #[test]
    fn delta_decode_rejects_wrong_base_length(
        base in proptest::collection::vec(finite_f32(), 2..64),
        cut in 1usize..63,
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes};

        let new: Vec<f32> = base.iter().map(|w| w + 1.0e-3).collect();
        let bytes = delta_to_bytes(&base, &new);
        let cut = cut.min(base.len() - 1);
        // Dense encodings need no base at all; base-relative ones must
        // reject the mismatch. Either way the decode never mis-applies.
        match delta_from_bytes(&base[..cut], &bytes) {
            Ok(decoded) => {
                for (d, n) in decoded.iter().zip(&new) {
                    prop_assert_eq!(d.to_bits(), n.to_bits());
                }
            }
            Err(e) => prop_assert!(matches!(
                e,
                unifyfl_tensor::delta::DeltaDecodeError::BaseMismatch { .. }
            )),
        }
    }

    /// The never-panics half of the decoder contract, for both weight
    /// decoders: arbitrary bytes — raw, and behind a valid magic, every mode
    /// byte and a count that is honest, payload-sized, wrapping (2⁶² more
    /// than the payload holds, so `count * 4` overflows onto the payload's
    /// length) or wild — against an arbitrary base never panic, and
    /// whatever decodes `Ok` has exactly the length its header declares and
    /// is finite.
    #[test]
    fn weight_decoders_never_panic_and_accept_only_what_the_header_declares(
        base in proptest::collection::vec(finite_f32(), 0..40),
        body in proptest::collection::vec(any::<u8>(), 0..200),
        mode in 0u8..6,
        count_kind in 0usize..5,
        wild in any::<u64>(),
    ) {
        use unifyfl_tensor::delta::delta_from_bytes;

        let count = match count_kind {
            0 => base.len() as u64,
            1 => body.len() as u64 / 4,
            2 => (1 << 62) + body.len() as u64 / 4,
            _ => wild,
        };
        let framed = |magic: &[u8], mode: Option<u8>| -> Vec<u8> {
            if count_kind == 4 {
                return body.clone();
            }
            let mut blob = magic.to_vec();
            blob.extend(mode);
            blob.extend_from_slice(&count.to_le_bytes());
            blob.extend_from_slice(&body[..body.len() - body.len() % 4]);
            blob
        };
        let declared = |blob: &[u8], at: usize| {
            u64::from_le_bytes(blob[at..at + 8].try_into().unwrap())
        };

        let blob = framed(b"UFLW", None);
        if let Ok(weights) = weights_from_bytes(&blob) {
            prop_assert_eq!(weights.len() as u64, declared(&blob, 4));
            prop_assert!(weights.iter().all(|w| w.is_finite()));
        }
        let blob = framed(b"UFLD", Some(mode));
        if let Ok(weights) = delta_from_bytes(&base, &blob) {
            prop_assert_eq!(weights.len() as u64, declared(&blob, 5));
            prop_assert!(weights.iter().all(|w| w.is_finite()));
        }
    }

    /// The table-driven decoder of both tagged modes (TAIL = 2, TAIL2 = 3)
    /// against [`tagged_definition`]: over arbitrary bases, tag planes
    /// (invalid TAIL2 tags included) and streams, at every length 0–9 and
    /// around the pair and quad tails, with the stream exact, a byte short,
    /// a byte long or the payload cut anywhere (into the tag plane too), it
    /// returns the same `Ok` bits or the same error variant.
    #[test]
    fn tagged_decoder_matches_the_word_at_a_time_definition(
        base_bits in proptest::collection::vec(any::<u32>(), 66),
        pool in proptest::collection::vec(any::<u8>(), 320),
        fit in 0usize..4,
        cut in any::<usize>(),
    ) {
        use unifyfl_tensor::delta::delta_from_bytes;

        for mode in [2u8, 3] {
            for len in (0..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65]) {
                let base: Vec<f32> =
                    base_bits[..len].iter().map(|b| f32::from_bits(*b)).collect();
                let tag_len = len.div_ceil(if mode == 2 { 4 } else { 2 });
                // The stream length every tag agrees with (invalid tags
                // count nothing: the blob is refused whatever follows).
                let need: usize = (0..len)
                    .map(|i| tag_of(mode, &pool[..tag_len], i))
                    .map(|(prefix, suffix)| 4usize.saturating_sub(prefix + suffix))
                    .sum();
                let mut payload = pool[..tag_len + need].to_vec();
                match fit {
                    0 => {}
                    1 => _ = payload.pop(),
                    2 => payload.push(pool[tag_len + need]),
                    _ => payload.truncate(cut % (payload.len() + 1)),
                }
                let mut blob = b"UFLD".to_vec();
                blob.push(mode);
                blob.extend_from_slice(&(len as u64).to_le_bytes());
                blob.extend_from_slice(&payload);
                let decoded = delta_from_bytes(&base, &blob)
                    .map(|words| words.iter().map(|w| w.to_bits()).collect::<Vec<_>>());
                let defined = tagged_definition(mode, &base, &payload);
                prop_assert_eq!(decoded, defined, "mode {} len {}", mode, len);
            }
        }
    }

    /// The byte-space reconstruction against the path it replaces:
    /// `apply_to_blob(base_blob, delta)` answers exactly what
    /// `weights_from_bytes` → `delta_from_bytes` → `weights_to_bytes`
    /// answers — the same `Ok` bytes, or the same error from the same side —
    /// on honest blobs of every delta mode and on blobs with a byte
    /// replaced, cut short, grown, a body word made NaN or infinite, or
    /// swapped for noise, base or delta, and it never panics.
    #[test]
    fn apply_to_blob_matches_the_three_call_path(
        base in proptest::collection::vec(finite_f32(), 0..96),
        extra in proptest::collection::vec(finite_f32(), 0..8),
        drift in -0.5f32..0.5,
        mantissa_bits in 1u32..=23,
        shape in 0usize..3,
        target in 0usize..3,
        damage in 0usize..5,
        at in any::<usize>(),
        byte in any::<u8>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use unifyfl_tensor::delta::{apply_to_blob, delta_from_bytes, delta_to_bytes, ApplyError};
        use unifyfl_tensor::weights::quantize_release;

        // Drift (a tagged mode or dense), one changed word (sparse), or a
        // longer model (dense against a base of another length).
        let mut new: Vec<f32> = match shape {
            0 => base.iter().map(|w| w + w * drift).collect(),
            1 => base.iter().enumerate().map(|(i, w)| if i == at % 7 { w + 1.0 } else { *w }).collect(),
            _ => base.iter().chain(&extra).copied().collect(),
        };
        new = quantize_release(&new, mantissa_bits);
        let mut blobs = [weights_to_bytes(&base), delta_to_bytes(&base, &new)];
        if let Some(blob) = blobs.get_mut(target.wrapping_sub(1)) {
            match damage {
                0 if !blob.is_empty() => {
                    let i = at % blob.len();
                    blob[i] = byte;
                }
                1 => blob.truncate(at % (blob.len() + 1)),
                2 => blob.extend_from_slice(&noise),
                // A NaN or an infinity over a word of the body (after the
                // 12-byte weight or 13-byte delta header).
                3 if blob.len() >= 17 => {
                    let header = 11 + target;
                    let i = header + 4 * (at % ((blob.len() - header) / 4));
                    let poison = if byte < 128 { f32::NAN } else { f32::INFINITY };
                    blob[i..i + 4].copy_from_slice(&poison.to_bits().to_le_bytes());
                }
                _ => *blob = noise.clone(),
            }
        }
        let [base_blob, delta] = &blobs;

        let three_calls = weights_from_bytes(base_blob)
            .map_err(ApplyError::Base)
            .and_then(|w| delta_from_bytes(&w, delta).map_err(ApplyError::Delta))
            .map(|w| weights_to_bytes(&w));
        prop_assert_eq!(apply_to_blob(base_blob, delta), three_calls);
    }

    /// Release quantization really bounds the payload: the dropped mantissa
    /// bits of every released word are zero, and the value error is within
    /// one step of the kept precision.
    #[test]
    fn quantize_release_zeroes_dropped_bits(
        w in proptest::collection::vec(finite_f32(), 0..128),
        mantissa_bits in 1u32..=23,
    ) {
        use unifyfl_tensor::weights::quantize_release;
        let q = quantize_release(&w, mantissa_bits);
        let mask = (1u32 << (23 - mantissa_bits)) - 1;
        for (orig, quant) in w.iter().zip(&q) {
            prop_assert!(quant.is_finite());
            prop_assert_eq!(quant.to_bits() & mask, 0);
            if *orig != 0.0 {
                let rel = ((quant - orig) / orig).abs();
                prop_assert!(rel <= 1.0 / ((1u64 << mantissa_bits) as f32), "{} -> {}", orig, quant);
            }
        }
    }
}
