//! A tiny zero-dependency property-testing harness.
//!
//! Not a registered test target — test crates include it with
//! `#[path = "proptest_util.rs"] mod proptest_util;`. It exists so
//! invariant suites can generate hundreds of random cases without
//! pulling a generator framework into the dependency tree: a
//! splitmix64 stream per case, uniform helpers, a Fisher–Yates
//! shuffle, and a driver that stamps every case with a reproducible
//! seed.
//!
//! There is no shrinking; instead every case derives from a stable
//! `(suite seed, case index)` pair, so a failure message naming the
//! case index is already a minimal reproducer.

#![allow(dead_code)]

/// A splitmix64 generator: tiny state, full 64-bit avalanche per draw,
/// and the same stream on every platform.
pub struct Gen {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// Next raw draw (splitmix64 finalizer over a golden-ratio stream).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias over
    /// a 64-bit draw is immaterial at test-sized ranges.
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize_below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the half-open `range`, which must not be empty.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        range.start + self.usize_below(range.end - range.start)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo <= hi);
        lo + self.usize_below((hi - lo) as usize + 1) as i32
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa entropy.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.unit_f32() * (hi - lo)
    }

    /// `len` independent draws from `[lo, hi)`.
    pub fn f32_vec(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.f32_in(lo, hi)).collect()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.usize_below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Runs `prop` for `cases` independently seeded cases. The closure
/// receives the case index — include it in assertion messages and the
/// failure is reproducible by running the same suite seed and index.
pub fn check(suite_seed: u64, cases: usize, mut prop: impl FnMut(usize, &mut Gen)) {
    for case in 0..cases {
        let mut g = Gen::new(suite_seed ^ (case as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        prop(case, &mut g);
    }
}
