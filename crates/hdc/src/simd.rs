//! Runtime-dispatched SIMD kernels for the packed binary-HD hot path.
//!
//! Three kernel families dominate the `round.*` benches once fedhd runs
//! on [`crate::packed`]: sign packing (`f32`/`i32` → bit-per-dim words),
//! Hamming/popcount similarity, and the `i32` counter updates (bundle,
//! ±1 accumulate, majority vote). A recorded round adds a fourth: exact
//! `i16` sums over narrowed counters ([`dot_i16`], [`signed_sums_i16`]),
//! off which health diagnostics are read. This module ships a portable
//! scalar implementation of each ([`scalar`]) plus `std::arch`
//! specialisations
//! — AVX2 on `x86_64`, NEON on `aarch64` where the win is trivial — and
//! dispatches on [`fhdnn_tensor::simd::backend`], the workspace's one
//! detector (the GEMM micro-kernel asks it too): decided once per
//! process, `FHDNN_NO_SIMD=1` forces the scalar backend, the rules are
//! in that module's docs.
//!
//! Every backend computes bit-identical results: the packed learner is
//! exact integer arithmetic, so there is no tolerance to hide behind.
//! `tests/parity.rs` fuzzes dispatched-vs-[`scalar`] equivalence over
//! the same dimension grid as the packed/reference differential suite,
//! and the `FHDNN_NO_SIMD=1` CI leg re-runs the whole wall on the
//! scalar backend. Each `unsafe` block carries a `// SAFETY:` audit;
//! `fhdnn lint` enforces that contract mechanically.

pub use fhdnn_tensor::simd::active_backend;
use fhdnn_tensor::simd::{backend, Backend};

use crate::packed::WORD_BITS;

/// Packs `values` one bit per element into `out`
/// (`bit = 1 ⇔ value ≥ 0.0`, so `−0.0` packs as `+1` and NaN as `−1`,
/// matching the scalar `v >= 0.0` test). Clears `out` first; pad bits
/// beyond `values.len()` stay zero.
pub fn pack_f32_into(values: &[f32], out: &mut [u64]) {
    debug_assert_eq!(out.len(), values.len().div_ceil(WORD_BITS));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::pack_f32_into(values, out) },
        _ => scalar::pack_f32_into(values, out),
    }
}

/// [`pack_f32_into`] for integer inputs (`bit = 1 ⇔ value ≥ 0`).
pub fn pack_i32_into(values: &[i32], out: &mut [u64]) {
    debug_assert_eq!(out.len(), values.len().div_ceil(WORD_BITS));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::pack_i32_into(values, out) },
        _ => scalar::pack_i32_into(values, out),
    }
}

/// Number of differing bits between two equal-length packed words.
#[must_use]
pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::hamming(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::hamming(a, b),
        _ => scalar::hamming(a, b),
    }
}

/// Element-wise `dst[i] += src[i]` — the counter-bundle kernel.
pub fn add_assign_i32(dst: &mut [i32], src: &[i32]) {
    debug_assert_eq!(dst.len(), src.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::add_assign_i32(dst, src) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::add_assign_i32(dst, src),
        _ => scalar::add_assign_i32(dst, src),
    }
}

/// `dst[i] += delta · sign(h, i)` where `sign(h, i)` is `+1` if bit `i`
/// of the packed vector `h` is set and `−1` otherwise — the ±1
/// accumulate at the heart of one-shot bundling and refinement.
pub fn accumulate_pm1(dst: &mut [i32], h: &[u64], delta: i32) {
    debug_assert!(h.len() * WORD_BITS >= dst.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::accumulate_pm1(dst, h, delta) },
        _ => scalar::accumulate_pm1(dst, h, delta),
    }
}

/// Majority-vote accumulate with erasures: `dst[i] += +1` if bit `i` of
/// `words` is set, `−1` if clear — unless bit `i` of `erased` is set,
/// in which case the dimension was lost in transit and contributes `0`.
/// The all-zero `erased` fast path degenerates to [`accumulate_pm1`].
pub fn vote_pm1_masked(dst: &mut [i32], words: &[u64], erased: &[u64]) {
    debug_assert!(words.len() * WORD_BITS >= dst.len());
    debug_assert_eq!(words.len(), erased.len());
    if erased.iter().all(|&w| w == 0) {
        accumulate_pm1(dst, words, 1);
        return;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::vote_pm1_masked(dst, words, erased) },
        _ => scalar::vote_pm1_masked(dst, words, erased),
    }
}

/// Largest counter magnitude the `i16` kernels ([`dot_i16`],
/// [`signed_sums_i16`]) are specified for. A product of two such values
/// stays below 2²⁰, so the AVX2 kernels can add a thousand `vpmaddwd`
/// pair sums in an `i32` lane before widening, and a sum over any model
/// that fits in memory stays far inside the 2⁵³ integers an `f64` holds
/// exactly — which is what lets health diagnostics read these sums in
/// place of `f64` chains (`crate::health::binary_round`).
pub const NARROW_MAX: i16 = 1023;

/// Whether every value is within [`NARROW_MAX`] of zero.
fn narrow(values: &[i16]) -> bool {
    values.iter().all(|v| v.unsigned_abs() <= NARROW_MAX as u16)
}

/// Exact `Σ x[i]·y[i]` over two equal-length `i16` rows whose values are
/// all within [`NARROW_MAX`] of zero (a longer row is cut to the shorter).
#[must_use]
pub fn dot_i16(x: &[i16], y: &[i16]) -> i64 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(narrow(x) && narrow(y));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true.
        Backend::Avx2 => unsafe { x86::dot_i16(x, y) },
        _ => scalar::dot_i16(x, y),
    }
}

/// `(Σ v[i]·x[i], Σ v[i]·y[i])` over two equal-length `i16` rows, where
/// `v` is the wire view of a received sign row: `+1` where bit `i` of
/// `words` is set, `−1` where it is clear, `0` where bit `i` of `erased`
/// is set (the dimension was lost in transit). Row values are within
/// [`NARROW_MAX`] of zero; bits past the rows' length are never read.
///
/// # Panics
///
/// If `words` or `erased` holds fewer than one bit per row value.
#[must_use]
pub fn signed_sums_i16(x: &[i16], y: &[i16], words: &[u64], erased: &[u64]) -> (i64, i64) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(narrow(x) && narrow(y));
    // BOUNDS: n is the shorter row's length, so `..n` slices both; the
    // chunk sizes are nonzero constants.
    let n = x.len().min(y.len());
    let bits = words.len().min(erased.len()) * WORD_BITS;
    assert!(bits >= n, "{bits} sign bits for rows of {n} values");
    // A segment is what a kernel may sum in `i32`: 2¹³ words of in-range
    // values stay below 2²⁷ in any lane.
    const SEGMENT: usize = 1 << 13;
    let rows = x[..n].chunks(SEGMENT * WORD_BITS);
    let rows = rows.zip(y[..n].chunks(SEGMENT * WORD_BITS));
    let wire = words.chunks(SEGMENT).zip(erased.chunks(SEGMENT));
    let (mut sum_x, mut sum_y) = (0i64, 0i64);
    for ((x, y), (words, erased)) in rows.zip(wire) {
        let (segment_x, segment_y) = match backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Backend::Avx2 is only ever selected after
            // `is_x86_feature_detected!("avx2")` returned true.
            Backend::Avx2 => unsafe { x86::signed_sums_i16(x, y, words, erased) },
            _ => scalar::signed_sums_i16(x, y, words, erased),
        };
        sum_x += segment_x;
        sum_y += segment_y;
    }
    (sum_x, sum_y)
}

/// Portable scalar implementations — the oracle every SIMD backend is
/// fuzzed against, and the backend `FHDNN_NO_SIMD=1` forces.
pub mod scalar {
    use super::WORD_BITS;

    /// Scalar [`super::pack_f32_into`].
    // BOUNDS: i < values.len() <= out.len() * WORD_BITS (dispatcher
    // asserts the exact word count), so i / WORD_BITS < out.len().
    pub fn pack_f32_into(values: &[f32], out: &mut [u64]) {
        out.fill(0);
        for (i, &v) in values.iter().enumerate() {
            if v >= 0.0 {
                out[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
    }

    /// Scalar [`super::pack_i32_into`].
    // BOUNDS: same argument as pack_f32_into — i / WORD_BITS < out.len().
    pub fn pack_i32_into(values: &[i32], out: &mut [u64]) {
        out.fill(0);
        for (i, &v) in values.iter().enumerate() {
            if v >= 0 {
                out[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
    }

    /// Scalar [`super::hamming`].
    #[must_use]
    pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| u64::from((x ^ y).count_ones()))
            .sum()
    }

    /// Scalar [`super::add_assign_i32`].
    pub fn add_assign_i32(dst: &mut [i32], src: &[i32]) {
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d += s;
        }
    }

    /// Scalar [`super::accumulate_pm1`].
    // BOUNDS: i < dst.len() <= h.len() * WORD_BITS (dispatcher debug-
    // asserts it; callers pass stride-matched rows), so i / WORD_BITS
    // stays within h.
    pub fn accumulate_pm1(dst: &mut [i32], h: &[u64], delta: i32) {
        for (i, d) in dst.iter_mut().enumerate() {
            if h[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                *d += delta;
            } else {
                *d -= delta;
            }
        }
    }

    /// Scalar [`super::vote_pm1_masked`].
    // BOUNDS: i < dst.len() <= words.len() * WORD_BITS and words/erased
    // are equal-length (dispatcher debug-asserts both).
    pub fn vote_pm1_masked(dst: &mut [i32], words: &[u64], erased: &[u64]) {
        for (i, d) in dst.iter_mut().enumerate() {
            if erased[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                continue;
            }
            if words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                *d += 1;
            } else {
                *d -= 1;
            }
        }
    }

    /// Scalar [`super::dot_i16`]: `i32` products summed a block at a
    /// time, short enough that no `i32` sum of in-range rows overflows.
    #[must_use]
    pub fn dot_i16(x: &[i16], y: &[i16]) -> i64 {
        const BLOCK: usize = 1024;
        x.chunks(BLOCK)
            .zip(y.chunks(BLOCK))
            .map(|(xs, ys)| {
                let products = xs
                    .iter()
                    .zip(ys)
                    .map(|(&a, &b)| i32::from(a) * i32::from(b));
                i64::from(products.sum::<i32>())
            })
            .sum()
    }

    /// Scalar [`super::signed_sums_i16`], a word of sign bits at a time.
    #[must_use]
    pub fn signed_sums_i16(x: &[i16], y: &[i16], words: &[u64], erased: &[u64]) -> (i64, i64) {
        let (mut sum_x, mut sum_y) = (0i64, 0i64);
        let rows = x.chunks(WORD_BITS).zip(y.chunks(WORD_BITS));
        for ((xs, ys), (&signs, &erased)) in rows.zip(words.iter().zip(erased)) {
            let (mut word_x, mut word_y) = (0i32, 0i32);
            for (bit, (&a, &b)) in xs.iter().zip(ys).enumerate() {
                // +1 / −1 off the sign bit, times 1 / 0 off the erasure bit.
                let sign = (signs >> bit & 1) as i32 * 2 - 1;
                let view = sign * (!erased >> bit & 1) as i32;
                word_x += view * i32::from(a);
                word_y += view * i32::from(b);
            }
            sum_x += i64::from(word_x);
            sum_y += i64::from(word_y);
        }
        (sum_x, sum_y)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 kernels. Every function is `#[target_feature(enable =
    //! "avx2")]` and must only be called after runtime detection — the
    //! dispatchers in the parent module are the sole call sites.

    use std::arch::x86_64::{
        __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8,
        _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_epi8, _mm256_castsi256_ps,
        _mm256_cmp_ps, _mm256_cmpeq_epi16, _mm256_cmpeq_epi32, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_movemask_ps, _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi16,
        _mm256_set1_epi32, _mm256_set1_epi8, _mm256_setr_epi16, _mm256_setr_epi32,
        _mm256_setr_epi8, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_sign_epi16, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256, _CMP_GE_OQ,
    };

    use super::WORD_BITS;

    /// Bit selectors for one byte of packed signs spread over 8 `i32`
    /// lanes: lane `j` tests bit `j`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: pure register arithmetic; AVX2 guaranteed by the caller.
    #[target_feature(enable = "avx2")]
    unsafe fn bit_selectors() -> __m256i {
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128)
    }

    /// AVX2 [`super::super::simd::pack_f32_into`]: compare 8 floats
    /// against zero (`_CMP_GE_OQ`, so NaN → clear and `−0.0` → set,
    /// exactly like scalar `v >= 0.0`) and gather the sign mask.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_f32_into(values: &[f32], out: &mut [u64]) {
        // BOUNDS: g < groups = values.len() / 8, so g / 8 <=
        // values.len() / 64 < out.len(); tail indices i < values.len()
        // divide likewise.
        out.fill(0);
        let zero = _mm256_setzero_ps();
        let groups = values.len() / 8;
        for g in 0..groups {
            // SAFETY: `8 * g + 8 <= values.len()`, so the unaligned
            // 8-float load stays in bounds.
            let v = unsafe { _mm256_loadu_ps(values.as_ptr().add(8 * g)) };
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero);
            let bits = (_mm256_movemask_ps(ge) as u64) & 0xff;
            out[g / 8] |= bits << ((g % 8) * 8);
        }
        for i in 8 * groups..values.len() {
            if values[i] >= 0.0 {
                out[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
    }

    /// AVX2 [`super::super::simd::pack_i32_into`]: `v ≥ 0` is the
    /// complement of the lane sign bit, read off via `movemask`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_i32_into(values: &[i32], out: &mut [u64]) {
        // BOUNDS: same argument as pack_f32_into — g / 8 and
        // i / WORD_BITS both stay below out.len().
        out.fill(0);
        let groups = values.len() / 8;
        for g in 0..groups {
            // SAFETY: `8 * g + 8 <= values.len()`, so the unaligned
            // 8-lane load stays in bounds.
            let v = unsafe { _mm256_loadu_si256(values.as_ptr().add(8 * g).cast::<__m256i>()) };
            let neg = _mm256_movemask_ps(_mm256_castsi256_ps(v)) as u64;
            let bits = !neg & 0xff;
            out[g / 8] |= bits << ((g % 8) * 8);
        }
        for i in 8 * groups..values.len() {
            if values[i] >= 0 {
                out[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
    }

    /// AVX2 [`super::super::simd::hamming`]: XOR 256 bits at a time,
    /// popcount bytes with the classic nibble-LUT `pshufb` (Muła), and
    /// widen through `_mm256_sad_epu8` into four `u64` accumulators —
    /// no overflow for any input length.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hamming(a: &[u64], b: &[u64]) -> u64 {
        // BOUNDS: the tail loop indexes 4·chunks..a.len() into
        // equal-length slices (asserted below); chunk math divides by
        // constants.
        debug_assert_eq!(a.len(), b.len());
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let mut acc = _mm256_setzero_si256();
        let chunks = a.len() / 4;
        for i in 0..chunks {
            // SAFETY: `4 * i + 4 <= a.len() == b.len()`, so both
            // unaligned 4-word loads stay in bounds.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(4 * i).cast::<__m256i>()),
                    _mm256_loadu_si256(b.as_ptr().add(4 * i).cast::<__m256i>()),
                )
            };
            let x = _mm256_xor_si256(va, vb);
            let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_mask));
            let hi =
                _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi32::<4>(x), low_mask));
            let cnt = _mm256_add_epi8(lo, hi);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
        }
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is exactly 32 bytes, matching the unaligned
        // 256-bit store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), acc) };
        let mut total: u64 = lanes.iter().sum();
        for i in 4 * chunks..a.len() {
            total += u64::from((a[i] ^ b[i]).count_ones());
        }
        total
    }

    /// AVX2 [`super::super::simd::add_assign_i32`], 8 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_i32(dst: &mut [i32], src: &[i32]) {
        // BOUNDS: tail indexes 8·groups..dst.len() into equal-length
        // slices (asserted below).
        debug_assert_eq!(dst.len(), src.len());
        let groups = dst.len() / 8;
        for g in 0..groups {
            let p = dst.as_mut_ptr().wrapping_add(8 * g);
            // SAFETY: `8 * g + 8 <= dst.len() == src.len()`, so the
            // unaligned loads and store stay in bounds; `p` is derived
            // from `dst` itself so there is no aliasing conflict.
            unsafe {
                let d = _mm256_loadu_si256(p.cast_const().cast::<__m256i>());
                let s = _mm256_loadu_si256(src.as_ptr().add(8 * g).cast::<__m256i>());
                _mm256_storeu_si256(p.cast::<__m256i>(), _mm256_add_epi32(d, s));
            }
        }
        for i in 8 * groups..dst.len() {
            dst[i] += src[i];
        }
    }

    /// AVX2 [`super::super::simd::accumulate_pm1`]: broadcast one byte
    /// of packed signs, test each of its 8 bits in its own lane, and
    /// blend `+delta` / `−delta` into the counters.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_pm1(dst: &mut [i32], h: &[u64], delta: i32) {
        // BOUNDS: g / 8 < dst.len() / 64 <= h.len() and tail bit
        // indices i / WORD_BITS likewise (dispatcher asserts h covers
        // dst).
        let sel = bit_selectors();
        let plus = _mm256_set1_epi32(delta);
        let minus = _mm256_set1_epi32(-delta);
        let groups = dst.len() / 8;
        for g in 0..groups {
            let byte = (h[g / 8] >> ((g % 8) * 8)) & 0xff;
            let bits = _mm256_set1_epi32(byte as i32);
            let is_set = _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
            let contrib = _mm256_blendv_epi8(minus, plus, is_set);
            let p = dst.as_mut_ptr().wrapping_add(8 * g);
            // SAFETY: `8 * g + 8 <= dst.len()`, so the unaligned load
            // and store stay in bounds.
            unsafe {
                let d = _mm256_loadu_si256(p.cast_const().cast::<__m256i>());
                _mm256_storeu_si256(p.cast::<__m256i>(), _mm256_add_epi32(d, contrib));
            }
        }
        // The tail's first bit (8·groups) need not be word-aligned, so
        // finish with absolute bit indices rather than re-slicing `h`.
        for i in 8 * groups..dst.len() {
            if h[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                dst[i] += delta;
            } else {
                dst[i] -= delta;
            }
        }
    }

    /// AVX2 [`super::super::simd::vote_pm1_masked`]: like
    /// [`accumulate_pm1`] with `delta = 1`, but lanes whose erasure bit
    /// is set are zeroed out of the vote before the add.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn vote_pm1_masked(dst: &mut [i32], words: &[u64], erased: &[u64]) {
        // BOUNDS: same argument as accumulate_pm1, over the
        // equal-length words/erased pair (dispatcher asserts both
        // cover dst).
        let sel = bit_selectors();
        let plus = _mm256_set1_epi32(1);
        let minus = _mm256_set1_epi32(-1);
        let groups = dst.len() / 8;
        for g in 0..groups {
            let wbyte = (words[g / 8] >> ((g % 8) * 8)) & 0xff;
            let ebyte = (erased[g / 8] >> ((g % 8) * 8)) & 0xff;
            let is_set =
                _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(wbyte as i32), sel), sel);
            let is_erased =
                _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(ebyte as i32), sel), sel);
            let contrib = _mm256_andnot_si256(is_erased, _mm256_blendv_epi8(minus, plus, is_set));
            let p = dst.as_mut_ptr().wrapping_add(8 * g);
            // SAFETY: `8 * g + 8 <= dst.len()`, so the unaligned load
            // and store stay in bounds.
            unsafe {
                let d = _mm256_loadu_si256(p.cast_const().cast::<__m256i>());
                _mm256_storeu_si256(p.cast::<__m256i>(), _mm256_add_epi32(d, contrib));
            }
        }
        // As in `accumulate_pm1`, the tail start is not word-aligned in
        // general — use absolute bit indices.
        for i in 8 * groups..dst.len() {
            if erased[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                continue;
            }
            if words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                dst[i] += 1;
            } else {
                dst[i] -= 1;
            }
        }
    }
    /// `i16` values one 256-bit register holds.
    const LANES: usize = 16;

    /// Sum of a register's eight `i32` lanes, widened.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: one store into a local array; AVX2 guaranteed by the caller.
    #[target_feature(enable = "avx2")]
    unsafe fn widen_sum(lanes: __m256i) -> i64 {
        let mut out = [0i32; 8];
        // SAFETY: `out` is exactly 32 bytes, matching the unaligned
        // 256-bit store.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), lanes) };
        out.iter().map(|&lane| i64::from(lane)).sum()
    }

    /// The register a 16-value group of an `i16` row fills.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: one load from a reference to exactly 16 values; AVX2
    // guaranteed by the caller.
    #[target_feature(enable = "avx2")]
    unsafe fn load_group(group: &[i16; LANES]) -> __m256i {
        // SAFETY: `group` is exactly 32 bytes, matching the unaligned
        // 256-bit load.
        unsafe { _mm256_loadu_si256(group.as_ptr().cast::<__m256i>()) }
    }

    /// AVX2 [`super::super::simd::dot_i16`]: `vpmaddwd` multiplies 16
    /// pairs and adds neighbours into eight `i32` lanes. In-range values
    /// keep a pair sum below 2²¹, so a lane takes the 256 groups of a
    /// block without overflow and is widened once per block.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i16(x: &[i16], y: &[i16]) -> i64 {
        // BOUNDS: n is the shorter row's length, so `..n` slices both;
        // BLOCK is a nonzero constant.
        const BLOCK: usize = 256 * LANES;
        let n = x.len().min(y.len());
        let mut total = 0i64;
        for (xs, ys) in x[..n].chunks(BLOCK).zip(y[..n].chunks(BLOCK)) {
            let (groups_x, tail_x) = xs.as_chunks::<LANES>();
            let (groups_y, tail_y) = ys.as_chunks::<LANES>();
            let mut lanes = _mm256_setzero_si256();
            for (gx, gy) in groups_x.iter().zip(groups_y) {
                let products = _mm256_madd_epi16(load_group(gx), load_group(gy));
                lanes = _mm256_add_epi32(lanes, products);
            }
            total += widen_sum(lanes);
            let tail = tail_x.iter().zip(tail_y);
            total += tail
                .map(|(&a, &b)| i64::from(a) * i64::from(b))
                .sum::<i64>();
        }
        total
    }

    /// The whole registers of one sign word's stretch of two rows (up to
    /// four each), under the word's wire view and summed in `i16` lanes,
    /// which four in-range values fit: 16 sign bits and 16 erasure bits
    /// become one register of `+1` / `−1` / `0` lanes and `vpsignw`
    /// applies it to both rows.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    // SAFETY: pure register arithmetic over `load_group`s of exactly 16
    // values; AVX2 guaranteed by the caller.
    #[target_feature(enable = "avx2")]
    unsafe fn word_sums(xs: &[i16], ys: &[i16], signs: u64, lost: u64) -> (__m256i, __m256i) {
        // Lane `j` tests bit `j` of the broadcast 16 bits.
        #[rustfmt::skip]
        let select = _mm256_setr_epi16(
            1, 2, 4, 8, 16, 32, 64, 128,
            256, 512, 1024, 2048, 4096, 8192, 16384, i16::MIN,
        );
        let ones = _mm256_set1_epi16(1);
        let zero = _mm256_setzero_si256();
        let (groups_x, _) = xs.as_chunks::<LANES>();
        let (groups_y, _) = ys.as_chunks::<LANES>();
        let (mut sum_x, mut sum_y) = (zero, zero);
        for (q, (gx, gy)) in groups_x.iter().zip(groups_y).enumerate() {
            let signs = _mm256_set1_epi16((signs >> (q * LANES)) as i16);
            let lost = _mm256_set1_epi16((lost >> (q * LANES)) as i16);
            // All ones (−1) where the sign bit is clear, +1 where set.
            let clear = _mm256_cmpeq_epi16(_mm256_and_si256(signs, select), zero);
            let view = _mm256_or_si256(clear, ones);
            let is_lost = _mm256_cmpeq_epi16(_mm256_and_si256(lost, select), select);
            let view = _mm256_andnot_si256(is_lost, view);
            sum_x = _mm256_add_epi16(sum_x, _mm256_sign_epi16(load_group(gx), view));
            sum_y = _mm256_add_epi16(sum_y, _mm256_sign_epi16(load_group(gy), view));
        }
        (sum_x, sum_y)
    }

    /// AVX2 [`super::super::simd::signed_sums_i16`], a word of sign bits
    /// at a time: [`word_sums`], then `vpmaddwd` against ones adds
    /// neighbours into `i32` lanes — at most 2¹³ a word, which the
    /// segments the dispatcher cuts keep from overflowing.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    // SAFETY: the dispatcher in the parent module is the sole caller
    // and only selects this path after runtime AVX2 detection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn signed_sums_i16(
        x: &[i16],
        y: &[i16],
        words: &[u64],
        erased: &[u64],
    ) -> (i64, i64) {
        // BOUNDS: the dispatcher cuts x and y to one length and asserts
        // words and erased hold a bit for each value, so the word after
        // the whole ones exists whenever values are left for it.
        let ones = _mm256_set1_epi16(1);
        let (mut lanes_x, mut lanes_y) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let mut add = |(word_x, word_y): (__m256i, __m256i)| {
            lanes_x = _mm256_add_epi32(lanes_x, _mm256_madd_epi16(word_x, ones));
            lanes_y = _mm256_add_epi32(lanes_y, _mm256_madd_epi16(word_y, ones));
        };
        let (blocks_x, last_x) = x.as_chunks::<WORD_BITS>();
        let (blocks_y, last_y) = y.as_chunks::<WORD_BITS>();
        let wire = words.iter().zip(erased);
        for ((xs, ys), (&signs, &lost)) in blocks_x.iter().zip(blocks_y).zip(wire) {
            add(word_sums(xs, ys, signs, lost));
        }
        // A row's last word, cut short: whole registers, then values.
        let (mut rest_x, mut rest_y) = (0i64, 0i64);
        if !last_x.is_empty() {
            let (signs, lost) = (words[blocks_x.len()], erased[blocks_x.len()]);
            add(word_sums(last_x, last_y, signs, lost));
            let done = last_x.len() / LANES * LANES;
            for (bit, (&a, &b)) in (done..).zip(last_x[done..].iter().zip(&last_y[done..])) {
                let sign = (signs >> bit & 1) as i64 * 2 - 1;
                let view = sign * (!lost >> bit & 1) as i64;
                rest_x += view * i64::from(a);
                rest_y += view * i64::from(b);
            }
        }
        (rest_x + widen_sum(lanes_x), rest_y + widen_sum(lanes_y))
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels — only where the intrinsic form is trivial
    //! (byte-popcount Hamming, lane-wise `i32` add). NEON is a
    //! mandatory `aarch64` feature, so no runtime detection is needed;
    //! the remaining kernels dispatch to scalar on this architecture.

    use std::arch::aarch64::{
        vaddlvq_u8, vaddq_s32, vcntq_u8, veorq_u64, vld1q_s32, vld1q_u64, vreinterpretq_u8_u64,
        vst1q_s32,
    };

    /// NEON Hamming distance: XOR two words at a time, `vcntq_u8`
    /// byte popcount, horizontal add.
    // BOUNDS: tail indexes 2·chunks..a.len() into equal-length slices
    // (asserted on entry).
    #[must_use]
    pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 2;
        let mut total: u64 = 0;
        for i in 0..chunks {
            // SAFETY: NEON is mandatory on aarch64 and
            // `2 * i + 2 <= a.len() == b.len()` keeps both two-word
            // loads in bounds.
            unsafe {
                let va = vld1q_u64(a.as_ptr().add(2 * i));
                let vb = vld1q_u64(b.as_ptr().add(2 * i));
                let x = veorq_u64(va, vb);
                total += u64::from(vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
            }
        }
        for i in 2 * chunks..a.len() {
            total += u64::from((a[i] ^ b[i]).count_ones());
        }
        total
    }

    /// NEON element-wise `dst[i] += src[i]`, 4 lanes at a time.
    // BOUNDS: tail indexes 4·groups..dst.len() into equal-length slices
    // (asserted on entry).
    pub fn add_assign_i32(dst: &mut [i32], src: &[i32]) {
        debug_assert_eq!(dst.len(), src.len());
        let groups = dst.len() / 4;
        for g in 0..groups {
            let p = dst.as_mut_ptr().wrapping_add(4 * g);
            // SAFETY: NEON is mandatory on aarch64; `4 * g + 4` stays
            // within both slices and `p` is derived from `dst`.
            unsafe {
                let d = vld1q_s32(p.cast_const());
                let s = vld1q_s32(src.as_ptr().add(4 * g));
                vst1q_s32(p, vaddq_s32(d, s));
            }
        }
        for i in 4 * groups..dst.len() {
            dst[i] += src[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn words(dim: usize, seed: u64) -> Vec<u64> {
        let n = dim.div_ceil(WORD_BITS);
        let mut w: Vec<u64> = (0..n as u64).map(|i| mix(seed, i)).collect();
        let pad = n * WORD_BITS - dim;
        if pad > 0 {
            w[n - 1] &= u64::MAX >> pad;
        }
        w
    }

    // Miri interprets every access, so the big tail dims would dominate
    // its runtime without adding shape coverage beyond what 333 probes
    // (multi-word vectors with a ragged final word).
    #[cfg(miri)]
    const DIMS: &[usize] = &[1, 7, 63, 64, 65, 127, 128, 333];
    #[cfg(not(miri))]
    const DIMS: &[usize] = &[1, 7, 63, 64, 65, 127, 128, 333, 1000, 10_000];

    #[test]
    fn dispatched_matches_scalar_on_all_kernels() {
        for &dim in DIMS {
            let vals_f: Vec<f32> = (0..dim)
                .map(|i| {
                    if mix(11, i as u64) & 1 == 1 {
                        1.5
                    } else {
                        -0.5
                    }
                })
                .collect();
            let vals_i: Vec<i32> = (0..dim).map(|i| (mix(13, i as u64) as i32) / 2).collect();
            let n = dim.div_ceil(WORD_BITS);

            let (mut a, mut b) = (vec![u64::MAX; n], vec![0u64; n]);
            pack_f32_into(&vals_f, &mut a);
            scalar::pack_f32_into(&vals_f, &mut b);
            assert_eq!(a, b, "pack_f32 dim {dim}");

            pack_i32_into(&vals_i, &mut a);
            scalar::pack_i32_into(&vals_i, &mut b);
            assert_eq!(a, b, "pack_i32 dim {dim}");

            let (x, y) = (words(dim, 17), words(dim, 19));
            assert_eq!(
                hamming(&x, &y),
                scalar::hamming(&x, &y),
                "hamming dim {dim}"
            );

            let src: Vec<i32> = (0..dim).map(|i| (mix(23, i as u64) as i32) % 100).collect();
            let (mut d1, mut d2) = (vals_i.clone(), vals_i.clone());
            add_assign_i32(&mut d1, &src);
            scalar::add_assign_i32(&mut d2, &src);
            assert_eq!(d1, d2, "add_assign dim {dim}");

            let (mut d1, mut d2) = (vals_i.clone(), vals_i.clone());
            accumulate_pm1(&mut d1, &x, -3);
            scalar::accumulate_pm1(&mut d2, &x, -3);
            assert_eq!(d1, d2, "accumulate dim {dim}");

            let erased = words(dim, 29);
            let (mut d1, mut d2) = (vals_i.clone(), vals_i);
            vote_pm1_masked(&mut d1, &x, &erased);
            scalar::vote_pm1_masked(&mut d2, &x, &erased);
            assert_eq!(d1, d2, "vote dim {dim}");

            let (p, q) = (narrow_row(dim, 31), narrow_row(dim, 37));
            assert_eq!(dot_i16(&p, &q), scalar::dot_i16(&p, &q), "dot dim {dim}");
            assert_eq!(
                signed_sums_i16(&p, &q, &x, &erased),
                scalar::signed_sums_i16(&p, &q, &x, &erased),
                "signed sums dim {dim}"
            );
        }
    }

    /// Values over the whole range the `i16` kernels take, both ends
    /// included.
    fn narrow_row(dim: usize, seed: u64) -> Vec<i16> {
        let span = 2 * NARROW_MAX as u64 + 1;
        (0..dim as u64)
            .map(|i| match mix(seed, i) % 8 {
                0 => NARROW_MAX,
                1 => -NARROW_MAX,
                _ => (mix(seed ^ 1, i) % span) as i16 - NARROW_MAX,
            })
            .collect()
    }

    #[test]
    fn i16_kernels_match_their_definitions() {
        for &dim in DIMS {
            let (p, q) = (narrow_row(dim, 43), narrow_row(dim, 47));
            let dot: i64 = p.iter().zip(&q).map(|(&a, &b)| a as i64 * b as i64).sum();
            assert_eq!(dot_i16(&p, &q), dot, "dim {dim}");
            assert_eq!(scalar::dot_i16(&p, &q), dot, "dim {dim}");
            // Both ends of the range against each other, every lane full.
            let (top, bottom) = (vec![NARROW_MAX; dim], vec![-NARROW_MAX; dim]);
            let square = dim as i64 * NARROW_MAX as i64 * NARROW_MAX as i64;
            assert_eq!(dot_i16(&top, &top), square, "dim {dim}");
            assert_eq!(dot_i16(&top, &bottom), -square, "dim {dim}");

            let signs = words(dim, 53);
            let none = vec![0u64; signs.len()];
            let all = vec![u64::MAX; signs.len()];
            for erased in [&none, &all, &words(dim, 59)] {
                let (mut sum_p, mut sum_q) = (0i64, 0i64);
                for i in 0..dim {
                    let (w, b) = (i / WORD_BITS, i % WORD_BITS);
                    let view = if erased[w] >> b & 1 == 1 {
                        0
                    } else if signs[w] >> b & 1 == 1 {
                        1
                    } else {
                        -1
                    };
                    sum_p += view * p[i] as i64;
                    sum_q += view * q[i] as i64;
                }
                assert_eq!(
                    signed_sums_i16(&p, &q, &signs, erased),
                    (sum_p, sum_q),
                    "dim {dim}"
                );
                assert_eq!(
                    scalar::signed_sums_i16(&p, &q, &signs, erased),
                    (sum_p, sum_q),
                    "dim {dim}"
                );
            }
            // Every sign set over the top of the range: the largest sum.
            let top_sum = dim as i64 * NARROW_MAX as i64;
            assert_eq!(
                signed_sums_i16(&top, &bottom, &all, &none),
                (top_sum, -top_sum),
                "dim {dim}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a million-value row is minutes of interpretation")]
    fn i16_kernels_widen_before_an_i32_lane_fills() {
        // Longer than any block either kernel sums in `i32`: a dot of
        // 2²⁰ top-of-range squares is past 2⁴⁰.
        let dim = (1 << 20) + 17;
        let top = vec![NARROW_MAX; dim];
        let all = vec![u64::MAX; dim.div_ceil(WORD_BITS)];
        let none = vec![0u64; all.len()];
        let max = NARROW_MAX as i64;
        assert_eq!(dot_i16(&top, &top), dim as i64 * max * max);
        assert_eq!(scalar::dot_i16(&top, &top), dim as i64 * max * max);
        let sums = (dim as i64 * max, dim as i64 * max);
        assert_eq!(signed_sums_i16(&top, &top, &all, &none), sums);
        assert_eq!(scalar::signed_sums_i16(&top, &top, &all, &none), sums);
    }

    #[test]
    fn special_float_values_pack_like_scalar() {
        let vals = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
        ];
        let mut a = vec![0u64; 1];
        let mut b = vec![0u64; 1];
        pack_f32_into(&vals, &mut a);
        scalar::pack_f32_into(&vals, &mut b);
        assert_eq!(a, b);
        // −0.0 ≥ 0.0 is true, NaN comparisons are false.
        assert_eq!(b[0] & 0b1111_1111, 0b1010_1011);
    }

    #[test]
    fn vote_with_no_erasures_equals_plus_one_accumulate() {
        let dim = 333;
        let x = words(dim, 41);
        let zeros = vec![0u64; x.len()];
        let mut voted = vec![0i32; dim];
        let mut accumulated = vec![0i32; dim];
        vote_pm1_masked(&mut voted, &x, &zeros);
        accumulate_pm1(&mut accumulated, &x, 1);
        assert_eq!(voted, accumulated);
    }
}
