//! Randomized gradient verification across layer types and network
//! compositions: every analytic backward pass is checked against central
//! finite differences on random configurations.

#[path = "../../../tests/proptest_util.rs"]
mod proptest_util;

use fhdnn_nn::activation::{Relu, Tanh};
use fhdnn_nn::conv::{Conv2d, ConvGeometry};
use fhdnn_nn::depthwise::DepthwiseConv2d;
use fhdnn_nn::linear::Linear;
use fhdnn_nn::loss::{cross_entropy, softmax};
use fhdnn_nn::pool::{GlobalAvgPool, MaxPool2d};
use fhdnn_nn::{Layer, Mode, Network};
use fhdnn_tensor::Tensor;
use proptest_util::check;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Central-difference check of `dL/dx` for `L = Σ w ⊙ y` with a random
/// weighting `w` (more sensitive than a plain sum).
fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, seed: u64, tol: f32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let y = layer.forward(x, Mode::Train).unwrap();
    let w = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
    let dx = layer.backward(&w).unwrap();
    let eps = 1e-2;
    for i in (0..x.len()).step_by((x.len() / 12).max(1)) {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let yp = layer.forward(&xp, Mode::Eval).unwrap();
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let ym = layer.forward(&xm, Mode::Eval).unwrap();
        let num = (yp.mul(&w).unwrap().sum() - ym.mul(&w).unwrap().sum()) / (2.0 * eps);
        assert!(
            (num - dx.as_slice()[i]).abs() < tol,
            "{}: dx[{i}] numeric {num} vs analytic {}",
            layer.name(),
            dx.as_slice()[i]
        );
    }
}

const CASES: usize = 12;

#[test]
fn linear_gradients() {
    check(0x6AAD_0001, CASES, |_, g| {
        let seed = g.usize_below(1000) as u64;
        let (inputs, outputs) = (g.usize_in(2..8), g.usize_in(2..8));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(inputs, outputs, &mut rng).unwrap();
        let x = Tensor::randn(&[3, inputs], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, seed, 0.05);
    });
}

#[test]
fn conv_gradients() {
    check(0x6AAD_0002, CASES, |_, g| {
        let seed = g.usize_below(1000) as u64;
        let (channels, stride) = (g.usize_in(1..3), g.usize_in(1..3));
        let mut rng = StdRng::seed_from_u64(seed);
        let geom = ConvGeometry {
            kernel: 3,
            stride,
            padding: 1,
        };
        let mut layer = Conv2d::new(channels, 2, geom, &mut rng).unwrap();
        let x = Tensor::randn(&[2, channels, 6, 6], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, seed, 0.08);
    });
}

#[test]
fn depthwise_gradients() {
    check(0x6AAD_0003, CASES, |_, g| {
        let seed = g.usize_below(1000) as u64;
        let channels = g.usize_in(1..4);
        let mut rng = StdRng::seed_from_u64(seed);
        let geom = ConvGeometry {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut layer = DepthwiseConv2d::new(channels, geom, &mut rng).unwrap();
        let x = Tensor::randn(&[2, channels, 5, 5], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, seed, 0.08);
    });
}

#[test]
fn activation_gradients() {
    check(0x6AAD_0004, CASES, |_, g| {
        let seed = g.usize_below(1000) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        // ReLU's kink makes finite differences unreliable near 0; nudge
        // values away from the origin.
        let x = x.map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        check_input_gradient(&mut Relu::new(), &x, seed, 0.05);
        check_input_gradient(&mut Tanh::new(), &x, seed, 0.05);
    });
}

#[test]
fn pooling_gradients() {
    check(0x6AAD_0005, CASES, |_, g| {
        let seed = g.usize_below(1000) as u64;
        // Max pooling is non-differentiable at window ties, where finite
        // differences flip the argmax: use a random permutation of
        // well-separated values so every window has a unique, stable max.
        let mut values: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        g.shuffle(&mut values);
        let x = Tensor::from_vec(values, &[2, 2, 4, 4]).unwrap();
        check_input_gradient(&mut MaxPool2d::new(2).unwrap(), &x, seed, 0.05);
        check_input_gradient(&mut GlobalAvgPool::new(), &x, seed, 0.05);
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check(0x6AAD_0006, CASES, |case, g| {
        let (rows, cols) = (g.usize_in(1..5), g.usize_in(2..8));
        let mut rng = StdRng::seed_from_u64(g.usize_below(1000) as u64);
        let logits = Tensor::randn(&[rows, cols], 3.0, &mut rng);
        let p = softmax(&logits).unwrap();
        for r in 0..rows {
            let row = p.row(r).unwrap();
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "case {case}: row sum {sum}");
            assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    });
}

#[test]
fn cross_entropy_is_nonnegative_and_bounded_by_uniform_plus() {
    check(0x6AAD_0007, CASES, |case, g| {
        let classes = g.usize_in(2..8);
        let mut rng = StdRng::seed_from_u64(g.usize_below(1000) as u64);
        let logits = Tensor::randn(&[4, classes], 1.0, &mut rng);
        let labels: Vec<usize> = (0..4).map(|i| i % classes).collect();
        let out = cross_entropy(&logits, &labels).unwrap();
        assert!(out.loss >= 0.0, "case {case}");
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..4 {
            let s: f32 = out.grad.row(r).unwrap().iter().sum();
            assert!(s.abs() < 1e-5, "case {case}: row {r} grad sum {s}");
        }
    });
}

#[test]
fn network_gradient_composes() {
    check(0x6AAD_0008, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(500) as u64);
        let mut net = Network::new()
            .push(Linear::new(5, 6, &mut rng).unwrap())
            .push(Tanh::new())
            .push(Linear::new(6, 3, &mut rng).unwrap());
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let logits = net.forward(&x, Mode::Train).unwrap();
        let out = cross_entropy(&logits, &[0, 2]).unwrap();
        let dx = net.backward(&out.grad).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let lp = cross_entropy(&net.forward(&xp, Mode::Eval).unwrap(), &[0, 2])
                .unwrap()
                .loss;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lm = cross_entropy(&net.forward(&xm, Mode::Eval).unwrap(), &[0, 2])
                .unwrap()
                .loss;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 0.02,
                "case {case}: dx[{i}] numeric {num} vs analytic {}",
                dx.as_slice()[i]
            );
        }
    });
}
