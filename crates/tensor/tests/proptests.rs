//! Property-based tests of the tensor algebra.

#[path = "../../../tests/proptest_util.rs"]
mod proptest_util;

use fhdnn_tensor::Tensor;
use proptest_util::{check, Gen};

const CASES: usize = 64;

fn vec_of(g: &mut Gen, len: usize) -> Vec<f32> {
    g.f32_vec(len, -100.0, 100.0)
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn from_vec_respects_volume() {
    check(0x7E50_0001, CASES, |case, g| {
        let (rows, cols) = (g.usize_in(1..6), g.usize_in(1..6));
        let t = Tensor::from_vec(vec![0.0; rows * cols], &[rows, cols]).unwrap();
        assert_eq!(t.len(), rows * cols, "case {case}");
        assert!(Tensor::from_vec(vec![0.0; rows * cols + 1], &[rows, cols]).is_err());
    });
}

#[test]
fn addition_is_commutative() {
    check(0x7E50_0002, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 12), &[3, 4]).unwrap();
        let b = Tensor::from_vec(vec_of(g, 12), &[3, 4]).unwrap();
        assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap(), "case {case}");
    });
}

#[test]
fn zero_is_additive_identity() {
    check(0x7E50_0003, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 10), &[10]).unwrap();
        assert_eq!(a.add(&Tensor::zeros(&[10])).unwrap(), a, "case {case}");
    });
}

#[test]
fn matmul_identity_is_neutral() {
    check(0x7E50_0004, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 9), &[3, 3]).unwrap();
        let left = Tensor::eye(3).matmul(&a).unwrap();
        let right = a.matmul(&Tensor::eye(3)).unwrap();
        for i in 0..9 {
            assert!(close(left.as_slice()[i], a.as_slice()[i]), "case {case}");
            assert!(close(right.as_slice()[i], a.as_slice()[i]), "case {case}");
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check(0x7E50_0005, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 6), &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec_of(g, 6), &[3, 2]).unwrap();
        let c = Tensor::from_vec(vec_of(g, 6), &[3, 2]).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(close(*l, *r), "case {case}: {l} vs {r}");
        }
    });
}

#[test]
fn transpose_swaps_matmul_order() {
    check(0x7E50_0006, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 6), &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec_of(g, 6), &[3, 2]).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(close(*l, *r), "case {case}: {l} vs {r}");
        }
    });
}

#[test]
fn matmul_nt_tn_consistent_with_transpose() {
    check(0x7E50_0007, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 6), &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec_of(g, 6), &[2, 3]).unwrap();
        let nt = a.matmul_nt(&b).unwrap();
        assert_eq!(
            nt,
            a.matmul(&b.transpose().unwrap()).unwrap(),
            "case {case}"
        );
        let tn = a.matmul_tn(&b).unwrap();
        assert_eq!(
            tn,
            a.transpose().unwrap().matmul(&b).unwrap(),
            "case {case}"
        );
    });
}

#[test]
fn argmax_points_at_maximum() {
    check(0x7E50_0008, CASES, |case, g| {
        let xs = vec_of(g, 20);
        let t = Tensor::from_vec(xs.clone(), &[20]).unwrap();
        let max = t.max().unwrap();
        assert_eq!(xs[t.argmax().unwrap()], max, "case {case}");
        assert!(xs.iter().all(|&x| x <= max), "case {case}");
    });
}

#[test]
fn cauchy_schwarz_holds() {
    check(0x7E50_0009, CASES, |case, g| {
        let a = Tensor::from_vec(vec_of(g, 16), &[16]).unwrap();
        let b = Tensor::from_vec(vec_of(g, 16), &[16]).unwrap();
        let dot = a.dot(&b).unwrap().abs();
        assert!(dot <= a.norm() * b.norm() * (1.0 + 1e-4), "case {case}");
        let cos = a.cosine_similarity(&b).unwrap();
        assert!((-1.0001..=1.0001).contains(&cos), "case {case}: {cos}");
    });
}

#[test]
fn sign_pm1_is_bipolar_and_idempotent() {
    check(0x7E50_000A, CASES, |case, g| {
        let s = Tensor::from_vec(vec_of(g, 16), &[16]).unwrap().sign_pm1();
        assert!(s.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
        assert_eq!(s.sign_pm1(), s, "case {case}");
    });
}

#[test]
fn slice_concat_roundtrip() {
    check(0x7E50_000B, CASES, |case, g| {
        let t = Tensor::from_vec(vec_of(g, 24), &[6, 4]).unwrap();
        let cut = g.usize_in(1..5);
        let head = t.slice_first_axis(0, cut).unwrap();
        let tail = t.slice_first_axis(cut, 6).unwrap();
        let joined = Tensor::concat_first_axis(&[&head, &tail]).unwrap();
        assert_eq!(joined, t, "case {case}");
    });
}

#[test]
fn scale_then_norm_scales_norm() {
    check(0x7E50_000C, CASES, |case, g| {
        let t = Tensor::from_vec(vec_of(g, 8), &[8]).unwrap();
        let s = g.f32_in(0.0, 10.0);
        assert!(close(t.scale(s).norm(), t.norm() * s), "case {case}");
    });
}

#[test]
fn sum_rows_matches_total() {
    check(0x7E50_000D, CASES, |case, g| {
        let t = Tensor::from_vec(vec_of(g, 12), &[3, 4]).unwrap();
        assert!(close(t.sum_rows().unwrap().sum(), t.sum()), "case {case}");
    });
}
