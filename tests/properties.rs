//! Property-based tests on the cross-crate invariants the reproduction
//! rests on.

#[path = "proptest_util.rs"]
mod proptest_util;

use fhdnn::channel::packet::per_from_ber;
use fhdnn::channel::{Channel, NoiselessChannel};
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::masking::{mask_model_dimensions, similarity_retention};
use fhdnn::hdc::model::HdModel;
use fhdnn::hdc::quantizer::{dequantize, quantize};
use fhdnn::nn::linear::Linear;
use fhdnn::nn::Network;
use fhdnn::tensor::Tensor;
use proptest_util::{check, Gen};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: usize = 32;

/// `len` values in `[-100, 100)` with two decimals.
fn small_f32s(g: &mut Gen, len: usize) -> Vec<f32> {
    let round = |x: f32| (x * 100.0).round() / 100.0;
    g.f32_vec(len, -100.0, 100.0)
        .into_iter()
        .map(round)
        .collect()
}

/// sign(Φz) is idempotent under positive rescaling of z.
#[test]
fn encoding_is_scale_invariant() {
    check(0x9809_0001, CASES, |case, g| {
        let enc = RandomProjectionEncoder::new(256, 8, g.usize_below(1000) as u64).unwrap();
        let scale = g.f32_in(0.1, 50.0);
        let z = Tensor::from_vec(g.f32_vec(8, -10.0, 10.0), &[1, 8]).unwrap();
        let a = enc.encode_batch(&z).unwrap();
        let b = enc.encode_batch(&z.scale(scale)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "case {case}");
    });
}

/// Bundling is commutative and associative (element-wise sums).
#[test]
fn bundling_is_commutative() {
    check(0x9809_0002, CASES, |case, g| {
        let model = |g: &mut Gen| {
            HdModel::from_prototypes(Tensor::from_vec(small_f32s(g, 12), &[3, 4]).unwrap()).unwrap()
        };
        let (a, b) = (model(g), model(g));
        let ab = HdModel::bundle(&[a.clone(), b.clone()]).unwrap();
        let ba = HdModel::bundle(&[b, a]).unwrap();
        assert_eq!(
            ab.prototypes().as_slice(),
            ba.prototypes().as_slice(),
            "case {case}"
        );
    });
}

/// Quantize→dequantize error is bounded by one quantization step per
/// element: |x - x̂| <= max|row| / (2^{B-1} - 1).
#[test]
fn quantizer_roundtrip_error_bounded() {
    check(0x9809_0003, CASES, |case, g| {
        let values = small_f32s(g, 8);
        let bitwidth = g.usize_in(4..17) as u32;
        let m = HdModel::from_prototypes(Tensor::from_vec(values, &[2, 4]).unwrap()).unwrap();
        let back = dequantize(&quantize(&m, bitwidth).unwrap()).unwrap();
        let max_word = ((1i64 << (bitwidth - 1)) - 1) as f32;
        for row in 0..2 {
            let orig = m.prototypes().row(row).unwrap();
            let rec = back.prototypes().row(row).unwrap();
            let max_abs = orig.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
            let step = if max_abs > 0.0 {
                max_abs / max_word
            } else {
                0.0
            };
            for (o, r) in orig.iter().zip(rec) {
                assert!(
                    (o - r).abs() <= step * 1.001 + 1e-6,
                    "case {case} row {row}: {o} vs {r} (step {step})"
                );
            }
        }
    });
}

/// Packet error rate is monotone in both BER and packet size, and is
/// a valid probability.
#[test]
fn per_is_monotone_probability() {
    check(0x9809_0004, CASES, |case, g| {
        let ber = f64::from(g.unit_f32()) * 0.1;
        let (bits_a, bits_b) = (g.usize_in(1..10_000) as u32, g.usize_in(1..10_000) as u32);
        let (lo, hi) = (bits_a.min(bits_b), bits_a.max(bits_b));
        let p_lo = per_from_ber(ber, lo);
        let p_hi = per_from_ber(ber, hi);
        assert!((0.0..=1.0).contains(&p_lo), "case {case}");
        assert!((0.0..=1.0).contains(&p_hi), "case {case}");
        assert!(p_lo <= p_hi + 1e-12, "case {case}");
        assert!(per_from_ber(ber, lo) <= per_from_ber((ber + 0.01).min(1.0), lo) + 1e-12);
    });
}

/// Masking retention is within [~-eps, 1] and equals 1 at zero removal.
#[test]
fn masking_retention_bounded() {
    check(0x9809_0005, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(500) as u64);
        let remove = g.unit_f32();
        let model = HdModel::from_prototypes(Tensor::randn(&[2, 512], 1.0, &mut rng)).unwrap();
        let masked = mask_model_dimensions(&model, remove, &mut rng).unwrap();
        let r = similarity_retention(&model, &masked, 0).unwrap();
        assert!(r <= 1.0 + 1e-5, "case {case}: retention {r}");
        assert!(r >= -0.05, "case {case}: retention {r}");
    });
}

/// Parameter flatten → load is the identity on network behavior.
#[test]
fn param_roundtrip_preserves_network() {
    check(0x9809_0006, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(200) as u64);
        let mut net = Network::new()
            .push(Linear::new(5, 7, &mut rng).unwrap())
            .push(Linear::new(7, 3, &mut rng).unwrap());
        let flat = net.flatten_params();
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let before = net.forward(&x, fhdnn::nn::Mode::Eval).unwrap();
        net.load_params(&flat).unwrap();
        let after = net.forward(&x, fhdnn::nn::Mode::Eval).unwrap();
        assert_eq!(before.as_slice(), after.as_slice(), "case {case}");
    });
}

/// The noiseless channel is exactly the identity on any payload.
#[test]
fn noiseless_channel_is_identity() {
    check(0x9809_0007, CASES, |case, g| {
        let len = g.usize_in(0..64);
        let payload = g.f32_vec(len, -1e6, 1e6);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = payload.clone();
        NoiselessChannel::new().transmit_f32(&mut p, &mut rng);
        assert_eq!(p, payload, "case {case}");
    });
}

/// HD model accuracy is invariant to uniform positive scaling of the
/// prototypes (cosine-similarity inference).
#[test]
fn hd_inference_scale_invariant() {
    check(0x9809_0008, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(200) as u64);
        let scale = g.f32_in(0.01, 100.0);
        let protos = Tensor::randn(&[4, 128], 1.0, &mut rng);
        let queries = Tensor::randn(&[8, 128], 1.0, &mut rng);
        let model = HdModel::from_prototypes(protos.clone()).unwrap();
        let scaled = HdModel::from_prototypes(protos.scale(scale)).unwrap();
        assert_eq!(
            model.predict_batch(&queries).unwrap(),
            scaled.predict_batch(&queries).unwrap(),
            "case {case}"
        );
    });
}
