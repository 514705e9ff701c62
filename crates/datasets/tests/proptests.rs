//! Property-based tests of dataset generation and federated partitioning.

#[path = "../../../tests/proptest_util.rs"]
mod proptest_util;

use fhdnn_datasets::batcher::Batcher;
use fhdnn_datasets::features::FeatureSpec;
use fhdnn_datasets::image::SynthSpec;
use fhdnn_datasets::partition::{dirichlet, iid, shards, Partition};
use proptest_util::check;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: usize = 24;

fn assert_exact_cover(parts: &[Vec<usize>], n: usize, case: usize) {
    let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..n).collect::<Vec<_>>(), "case {case}");
}

/// Every partition scheme assigns every sample to exactly one client.
#[test]
fn partitions_are_exact_covers() {
    check(0xDA7A_0001, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(500) as u64);
        let (clients, per_client) = (g.usize_in(2..8), g.usize_in(10..30));
        let n = clients * per_client;
        let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
        let parts = match g.usize_below(3) {
            0 => iid(n, clients, &mut rng).unwrap(),
            1 => shards(&labels, clients, 2, &mut rng).unwrap(),
            _ => dirichlet(&labels, clients, 0.5, &mut rng).unwrap(),
        };
        assert_eq!(parts.len(), clients, "case {case}");
        assert_exact_cover(&parts, n, case);
    });
}

/// IID splits are balanced to within one sample.
#[test]
fn iid_is_balanced() {
    check(0xDA7A_0002, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(500) as u64);
        let (clients, n) = (g.usize_in(1..10), g.usize_in(20..100));
        let parts = iid(n, clients, &mut rng).unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        let max = parts.iter().map(Vec::len).max().unwrap();
        assert!(max - min <= 1, "case {case}: sizes {min}..{max}");
    });
}

/// Partition enum dispatch matches the free functions' coverage.
#[test]
fn partition_enum_always_covers() {
    check(0xDA7A_0003, CASES, |case, g| {
        let mut rng = StdRng::seed_from_u64(g.usize_below(200) as u64);
        let alpha = g.f32_in(0.05, 5.0);
        let labels: Vec<usize> = (0..120).map(|i| i % 10).collect();
        for p in [
            Partition::Iid,
            Partition::Shards(2),
            Partition::Dirichlet(alpha),
        ] {
            let parts = p.split(&labels, 4, &mut rng).unwrap();
            assert_exact_cover(&parts, 120, case);
        }
    });
}

/// Image generation is deterministic and label-balanced for any size.
#[test]
fn image_generation_invariants() {
    check(0xDA7A_0004, CASES, |case, g| {
        let (n, seed) = (g.usize_in(10..80), g.usize_below(300) as u64);
        let spec = SynthSpec::fashion_like();
        let a = spec.generate(n, seed).unwrap();
        assert_eq!(a, spec.generate(n, seed).unwrap(), "case {case}");
        assert_eq!(a.len(), n);
        assert_eq!(a.images.dims(), &[n, 1, 16, 16]);
        // Round-robin labels: counts differ by at most one.
        let counts: Vec<usize> = (0..10)
            .map(|c| a.labels.iter().filter(|&&l| l == c).count())
            .collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "case {case}: {counts:?}");
    });
}

/// Feature generation is deterministic with values of sane magnitude.
#[test]
fn feature_generation_invariants() {
    check(0xDA7A_0005, CASES, |case, g| {
        let (n, seed) = (g.usize_in(5..60), g.usize_below(300) as u64);
        let spec = FeatureSpec {
            num_classes: 7,
            width: 23,
            noise_std: 1.0,
            class_seed: 5,
        };
        let d = spec.generate(n, seed).unwrap();
        assert_eq!(d.features.dims(), &[n, 23], "case {case}");
        assert!(d.labels.iter().all(|&l| l < 7), "case {case}");
        assert!(d.features.as_slice().iter().all(|v| v.is_finite()));
    });
}

/// Batches cover every index exactly once per epoch, any batch size.
#[test]
fn batcher_epoch_is_a_permutation() {
    check(0xDA7A_0006, CASES, |case, g| {
        let (n, batch) = (g.usize_in(1..100), g.usize_in(0..20));
        let mut rng = StdRng::seed_from_u64(g.usize_below(300) as u64);
        let mut all: Vec<usize> = Batcher::new(n, batch).epoch(&mut rng).flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "case {case}");
    });
}

/// Subset preserves labels and per-sample pixels.
#[test]
fn subset_preserves_content() {
    check(0xDA7A_0007, CASES, |case, g| {
        let d = SynthSpec::mnist_like()
            .generate(30, g.usize_below(200) as u64)
            .unwrap();
        let idx = [0usize, 7, 7, 29];
        let s = d.subset(&idx).unwrap();
        assert_eq!(s.len(), 4);
        for (pos, &i) in idx.iter().enumerate() {
            assert_eq!(s.labels[pos], d.labels[i], "case {case}");
            let got = s.sample(pos).unwrap();
            let want = d.sample(i).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "case {case}");
        }
    });
}
