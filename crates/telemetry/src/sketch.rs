//! Fleet-scale mergeable sketches: bounded-error quantiles, distinct
//! cohort cardinality, and deterministic exemplar sampling.
//!
//! The per-client observability layers (health records, divergence
//! z-scores, task traces) emit or materialize one row per client, which
//! makes the telemetry itself the scaling wall on AIoT-sized fleets.
//! This module provides the O(1)-per-round alternative: every per-client
//! observation folds into a constant-size summary, and summaries from
//! different workers merge without loss.
//!
//! Three building blocks, all std-only and fully deterministic:
//!
//! - [`QuantileSketch`] — a DDSketch-style log-bucket quantile sketch
//!   over non-negative values. Bucket indices are derived from the raw
//!   f64 bit pattern (exponent plus the top [`MANTISSA_BITS`] mantissa
//!   bits), so no transcendental math is involved and the same value
//!   lands in the same bucket on every platform. Quantile estimates are
//!   bucket midpoints with guaranteed relative error at most
//!   [`QuantileSketch::MAX_RELATIVE_ERROR`].
//! - [`DistinctEstimator`] — a HyperLogLog-style distinct-count
//!   estimator over client ids, hashed with the same splitmix64
//!   finalizer the round engine uses for seed splitting.
//! - [`TopK`] / [`Reservoir`] — bounded exemplar samplers. `TopK` keeps
//!   the k worst offenders under a total order (score descending, id
//!   ascending on ties), which is insertion-order-invariant by
//!   construction. `Reservoir` is a seeded Algorithm-R sampler whose
//!   output is a pure function of `(seed, insertion order)` — engines
//!   feed it in fixed participant order, so results are byte-identical
//!   at any thread count.
//!
//! # Determinism contract
//!
//! Every structure here is integer-counted (or exact-f64 min/max), so
//! merging is associative and commutative: per-thread sketches merged in
//! *any* order produce the same state as serial observation. The round
//! engines still merge in fixed participant order at the barrier — the
//! same discipline as task-buffer absorption — so the event stream
//! around the sketches stays ordered too. Serialization
//! ([`QuantileSketch::encode`]) walks sorted buckets and prints exact
//! bit patterns for the min/max, making the wire form byte-stable.

use std::collections::BTreeMap;

/// Mantissa bits used to subdivide each power-of-two octave. 4 bits =
/// 16 log-linear sub-buckets per octave, bounding the midpoint estimate
/// error at 1/32 of the true value.
pub const MANTISSA_BITS: u32 = 4;

/// The splitmix64 finalizer: full 64-bit avalanche, the same mixer the
/// round engine's `split_seed` uses. Deterministic on every platform.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, mergeable log-bucket quantile sketch over
/// non-negative f64 observations.
///
/// Zero, negative, and non-finite observations land in a dedicated zero
/// bucket (estimated as exactly 0.0). Positive normal values bucket by
/// exponent and top-[`MANTISSA_BITS`] mantissa bits; subnormals collapse
/// into the zero bucket (they are far below any observable telemetry
/// value).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch {
    /// Observations in the zero bucket (zero/negative/non-finite).
    zeros: u64,
    /// Log-bucket index → observation count, sorted by construction.
    buckets: BTreeMap<u32, u64>,
    /// Total observations (zeros included).
    count: u64,
    /// Exact minimum observed value (after clamping to `>= 0`).
    min: f64,
    /// Exact maximum observed value (after clamping to `>= 0`).
    max: f64,
}

impl QuantileSketch {
    /// Guaranteed bound on `|estimate - true| / true` for any quantile
    /// of positive observations: half of one sub-bucket's width.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 32.0;

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Bucket index of a positive normal value: biased exponent joined
    /// with the top mantissa bits, a pure function of the bit pattern.
    fn bucket_of(v: f64) -> Option<u32> {
        if !v.is_finite() || v <= 0.0 {
            return None;
        }
        let bits = v.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as u32;
        if exponent == 0 {
            return None; // subnormal → zero bucket
        }
        let mantissa_top = ((bits >> (52 - MANTISSA_BITS)) & ((1 << MANTISSA_BITS) - 1)) as u32;
        Some((exponent << MANTISSA_BITS) | mantissa_top)
    }

    /// Midpoint of a bucket's value range — the estimate reported for
    /// every observation that landed in it.
    fn bucket_midpoint(index: u32) -> f64 {
        let exponent = u64::from(index >> MANTISSA_BITS);
        let mantissa_top = u64::from(index & ((1 << MANTISSA_BITS) - 1));
        let lo = f64::from_bits((exponent << 52) | (mantissa_top << (52 - MANTISSA_BITS)));
        let hi = f64::from_bits(
            ((exponent << 52) | (mantissa_top << (52 - MANTISSA_BITS)))
                + (1u64 << (52 - MANTISSA_BITS)),
        );
        (lo + hi) / 2.0
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let bucket = Self::bucket_of(v);
        // Anything in the zero bucket reports as exactly 0, so min/max
        // must see the same clamped value (subnormals included).
        let clamped = if bucket.is_some() { v } else { 0.0 };
        match bucket {
            Some(idx) => *self.buckets.entry(idx).or_insert(0) += 1,
            None => self.zeros += 1,
        }
        if self.count == 0 {
            self.min = clamped;
            self.max = clamped;
        } else {
            self.min = self.min.min(clamped);
            self.max = self.max.max(clamped);
        }
        self.count += 1;
    }

    /// Merges another sketch into this one. Integer count addition and
    /// exact min/max, so merging is associative, commutative, and
    /// byte-stable regardless of merge order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.zeros += other.zeros;
        self.count += other.count;
        for (idx, n) in &other.buckets {
            *self.buckets.entry(*idx).or_insert(0) += n;
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed value (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The quantile estimate for `q` in `[0,1]` (clamped; NaN treated
    /// as 0). Empty sketches report 0. Estimates for positive
    /// observations are bucket midpoints clamped into `[min, max]`,
    /// which keeps the relative-error bound and makes `quantile(0)` /
    /// `quantile(1)` exact.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        // Nearest-rank on the 0-based rank line.
        let target = (q * (self.count - 1) as f64).round() as u64;
        if target < self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for (idx, n) in &self.buckets {
            cum += n;
            if target < cum {
                return Self::bucket_midpoint(*idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Byte-stable wire form: counts, exact min/max bit patterns, and
    /// the sorted `index:count` bucket list.
    #[must_use]
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "n={};z={};min={:016x};max={:016x};b=",
            self.count,
            self.zeros,
            self.min().to_bits(),
            self.max().to_bits()
        );
        for (i, (idx, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{idx}:{n}");
        }
        out
    }

    /// Exact minimum observed value (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Parses the [`QuantileSketch::encode`] wire form. Returns `None`
    /// on any malformed field, never panics on foreign input.
    #[must_use]
    pub fn decode(s: &str) -> Option<QuantileSketch> {
        let mut sketch = QuantileSketch::new();
        for part in s.split(';') {
            let (key, val) = part.split_once('=')?;
            match key {
                "n" => sketch.count = val.parse().ok()?,
                "z" => sketch.zeros = val.parse().ok()?,
                "min" => sketch.min = f64::from_bits(u64::from_str_radix(val, 16).ok()?),
                "max" => sketch.max = f64::from_bits(u64::from_str_radix(val, 16).ok()?),
                "b" => {
                    for pair in val.split(',').filter(|p| !p.is_empty()) {
                        let (idx, n) = pair.split_once(':')?;
                        sketch.buckets.insert(idx.parse().ok()?, n.parse().ok()?);
                    }
                }
                _ => return None,
            }
        }
        Some(sketch)
    }
}

/// Number of HyperLogLog registers (2^8): ~6.5% standard error, 256
/// bytes of state — plenty for fleet cohort cardinality.
pub const DISTINCT_REGISTERS: usize = 256;

/// A HyperLogLog-style distinct-count estimator over u64 identities.
///
/// Insertion hashes with [`splitmix64`]; merging takes the
/// register-wise max, so it is associative, commutative, and
/// idempotent. The estimate is a deterministic function of the
/// registers (iterated in index order).
#[derive(Clone, PartialEq, Eq)]
pub struct DistinctEstimator {
    registers: [u8; DISTINCT_REGISTERS],
}

impl std::fmt::Debug for DistinctEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistinctEstimator")
            .field("estimate", &self.estimate())
            .finish()
    }
}

impl Default for DistinctEstimator {
    fn default() -> Self {
        DistinctEstimator {
            registers: [0; DISTINCT_REGISTERS],
        }
    }
}

impl DistinctEstimator {
    /// An empty estimator.
    #[must_use]
    pub fn new() -> Self {
        DistinctEstimator::default()
    }

    /// Inserts one identity (idempotent).
    // BOUNDS: idx = h >> 56 < 256 = DISTINCT_REGISTERS, the register
    // array's fixed length.
    pub fn insert(&mut self, id: u64) {
        let h = splitmix64(id);
        let idx = (h >> 56) as usize;
        let rest = h << 8;
        let rho = if rest == 0 {
            57
        } else {
            rest.leading_zeros() as u8 + 1
        };
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Merges another estimator into this one (register-wise max).
    pub fn merge(&mut self, other: &DistinctEstimator) {
        for (r, o) in self.registers.iter_mut().zip(other.registers.iter()) {
            if *o > *r {
                *r = *o;
            }
        }
    }

    /// The estimated distinct count, with the standard small-range
    /// correction. Exact 0 for an empty estimator.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        // BOUNDS: f64 divisions cannot trap; the zeros divisor is
        // taken only on the `zeros > 0` branch, and inv_sum > 0 past
        // the all-zeros early return.
        let m = DISTINCT_REGISTERS as f64;
        let mut inv_sum = 0.0f64;
        let mut zeros = 0u64;
        for &r in &self.registers {
            inv_sum += 1.0 / (1u64 << u32::from(r.min(63))) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        if zeros == DISTINCT_REGISTERS as u64 {
            return 0.0;
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / inv_sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting in the small range.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// The estimate rounded to the nearest integer count.
    #[must_use]
    pub fn estimate_rounded(&self) -> u64 {
        self.estimate().round().max(0.0) as u64
    }
}

/// One kept exemplar: a client id and the score that earned its slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Client identity.
    pub id: u64,
    /// The offending score (|z|, damage, simulated cost, …).
    pub score: f64,
}

/// A bounded worst-offender sampler: keeps the `k` entries with the
/// highest scores under the total order (score descending, id
/// ascending on ties). Insertion order cannot affect the kept set, so
/// per-thread samplers merged in any order agree with serial insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    k: usize,
    entries: Vec<Exemplar>,
}

impl TopK {
    /// A sampler keeping at most `k` exemplars.
    #[must_use]
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k.saturating_add(1)),
        }
    }

    /// Offers one candidate. NaN scores are ignored.
    pub fn offer(&mut self, id: u64, score: f64) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        self.entries.push(Exemplar { id, score });
        self.entries
            .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        self.entries
            .dedup_by(|a, b| a.id == b.id && a.score == b.score);
        self.entries.truncate(self.k);
    }

    /// Merges another sampler's kept set into this one.
    pub fn merge(&mut self, other: &TopK) {
        for e in &other.entries {
            self.offer(e.id, e.score);
        }
    }

    /// The kept exemplars, highest score first.
    #[must_use]
    pub fn entries(&self) -> &[Exemplar] {
        &self.entries
    }
}

/// A seeded Algorithm-R reservoir sampler over item indices.
///
/// `offer()` returns where the caller should store the offered item:
/// `Keep(slot)` means "place it at `slot`" (either filling the
/// reservoir or replacing a previous item), `Skip` means drop it. The
/// decision stream is a pure function of `(seed, offer sequence)` —
/// callers must offer in a fixed order (the engines use participant
/// order at the barrier) for cross-thread determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    k: usize,
    seen: u64,
    state: u64,
}

/// The verdict of one [`Reservoir::offer`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Store the offered item at this reservoir slot.
    Keep(usize),
    /// Drop the offered item.
    Skip,
}

impl Reservoir {
    /// A reservoir of capacity `k` with a deterministic decision stream
    /// derived from `seed`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        Reservoir {
            k,
            seen: 0,
            state: seed,
        }
    }

    /// Offers the next item in sequence; returns where to store it (if
    /// at all). The first `k` offers always land in order.
    // BOUNDS: the `% self.seen` divisor is nonzero — seen was just
    // incremented and never wraps within a process lifetime.
    pub fn offer(&mut self) -> Sample {
        self.seen += 1;
        if self.k == 0 {
            return Sample::Skip;
        }
        if self.seen <= self.k as u64 {
            return Sample::Keep((self.seen - 1) as usize);
        }
        self.state = self.state.wrapping_add(1);
        let draw = splitmix64(self.state) % self.seen;
        if draw < self.k as u64 {
            Sample::Keep(draw as usize)
        } else {
            Sample::Skip
        }
    }

    /// Items offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_series_respect_error_bound() {
        let mut s = QuantileSketch::new();
        for i in 1..=1000u64 {
            s.observe(i as f64);
        }
        assert_eq!(s.count(), 1000);
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = s.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(
                rel <= QuantileSketch::MAX_RELATIVE_ERROR + 1e-3,
                "q={q}: est {est} vs {truth} (rel {rel})"
            );
        }
        assert_eq!(s.quantile(0.0), 1.0, "q=0 is the exact min");
        assert_eq!(s.quantile(1.0), 1000.0, "q=1 is the exact max");
        // Degenerate q is well-defined: NaN reads as the most
        // conservative quantile, out-of-range q clamps into [0, 1], and
        // the empty sketch is 0 whatever is asked of it.
        for (q, want) in [
            (f64::NAN, 1.0),
            (-3.0, 1.0),
            (f64::NEG_INFINITY, 1.0),
            (7.5, 1000.0),
            (f64::INFINITY, 1000.0),
        ] {
            assert_eq!(s.quantile(q), want, "q={q}");
            assert_eq!(QuantileSketch::new().quantile(q), 0.0, "empty, q={q}");
        }
    }

    #[test]
    fn zeros_negatives_and_non_finite_collapse_to_zero_bucket() {
        let mut s = QuantileSketch::new();
        for v in [0.0, -3.5, f64::NAN, f64::INFINITY, 1e-320] {
            s.observe(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.max(), 0.0);
        let empty = QuantileSketch::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(
            empty.encode(),
            QuantileSketch::decode(&empty.encode()).unwrap().encode()
        );
    }

    #[test]
    fn merge_equals_serial_observation() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 91) as f64 + 0.25).collect();
        let mut serial = QuantileSketch::new();
        for &v in &values {
            serial.observe(v);
        }
        // Split across 3 "threads", merge in a scrambled order.
        let mut parts = [
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        ];
        for (i, &v) in values.iter().enumerate() {
            parts[i % 3].observe(v);
        }
        let mut merged = QuantileSketch::new();
        for i in [2, 0, 1] {
            merged.merge(&parts[i]);
        }
        assert_eq!(merged, serial);
        assert_eq!(merged.encode(), serial.encode());
    }

    #[test]
    fn encode_decode_round_trips_byte_stable() {
        let mut s = QuantileSketch::new();
        for v in [0.5, 12.0, 12.0, 99.75, 0.0, 1e9] {
            s.observe(v);
        }
        let wire = s.encode();
        let back = QuantileSketch::decode(&wire).expect("wire form parses");
        assert_eq!(back, s);
        assert_eq!(back.encode(), wire);
        assert!(QuantileSketch::decode("not a sketch").is_none());
        assert!(QuantileSketch::decode("n=3;z=0;min=zz;max=0;b=").is_none());
    }

    #[test]
    fn distinct_estimator_tracks_cardinality() {
        let mut d = DistinctEstimator::new();
        assert_eq!(d.estimate_rounded(), 0);
        for id in 0..100u64 {
            d.insert(id);
            d.insert(id); // idempotent
        }
        let est = d.estimate();
        assert!((est - 100.0).abs() / 100.0 < 0.15, "estimate {est}");
        let mut big = DistinctEstimator::new();
        for id in 0..5000u64 {
            big.insert(id);
        }
        let est = big.estimate();
        assert!((est - 5000.0).abs() / 5000.0 < 0.15, "estimate {est}");
    }

    #[test]
    fn distinct_merge_is_union() {
        let mut a = DistinctEstimator::new();
        let mut b = DistinctEstimator::new();
        let mut whole = DistinctEstimator::new();
        for id in 0..300u64 {
            if id % 2 == 0 {
                a.insert(id);
            } else {
                b.insert(id);
            }
            whole.insert(id);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn top_k_keeps_worst_offenders_order_invariantly() {
        let offers = [(3u64, 1.5), (9, 9.0), (1, 4.0), (7, 9.0), (2, 0.5)];
        let mut forward = TopK::new(3);
        for (id, s) in offers {
            forward.offer(id, s);
        }
        let mut backward = TopK::new(3);
        for &(id, s) in offers.iter().rev() {
            backward.offer(id, s);
        }
        assert_eq!(forward.entries(), backward.entries());
        let kept: Vec<u64> = forward.entries().iter().map(|e| e.id).collect();
        // Tie at 9.0 resolves to the lower id first.
        assert_eq!(kept, vec![7, 9, 1]);
        forward.offer(5, f64::NAN);
        assert_eq!(forward.entries().len(), 3);
        let mut merged = TopK::new(3);
        merged.merge(&backward);
        assert_eq!(merged.entries(), forward.entries());
    }

    #[test]
    fn reservoir_is_seed_deterministic_and_bounded() {
        let run = |seed: u64| -> Vec<Sample> {
            let mut r = Reservoir::new(4, seed);
            (0..50).map(|_| r.offer()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same decisions");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let decisions = run(7);
        for (i, d) in decisions.iter().take(4).enumerate() {
            assert_eq!(*d, Sample::Keep(i), "first k offers fill in order");
        }
        for d in &decisions {
            if let Sample::Keep(slot) = d {
                assert!(*slot < 4);
            }
        }
        let mut none = Reservoir::new(0, 1);
        assert_eq!(none.offer(), Sample::Skip);
    }
}
