//! The AGC-inspired quantizer of paper §3.5.2.
//!
//! Bit errors on integer class prototypes hit high-order bits hard. The
//! paper's countermeasure quantizes each class hypervector before
//! transmission:
//!
//! 1. **Scale up** by gain `G = (2^{B-1} - 1) / max|c_k|`, so the largest
//!    magnitude occupies the full integer range;
//! 2. **Round** to integers (transmitted as `B`-bit two's complement);
//! 3. **Scale down** by the same `G` at the receiver.
//!
//! A bit flip then perturbs a value whose dynamic range is tightly bounded,
//! so the *ratio* between original and corrupted parameter — what the
//! normalized dot-product prediction actually depends on — stays small.

use crate::model::HdModel;
use crate::{HdcError, Result};

/// A quantized HD model in transit: per-class integer words plus gains.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    /// Integer words, row-major `[num_classes * dim]`, each within
    /// `[-(2^{B-1}-1), 2^{B-1}-1]`.
    pub words: Vec<i64>,
    /// Per-class gain `G` applied at the transmitter.
    pub gains: Vec<f32>,
    /// Bit width `B` of the transmitted words.
    pub bitwidth: u32,
    /// Number of classes.
    pub num_classes: usize,
    /// Hypervector dimensionality.
    pub dim: usize,
}

impl QuantizedModel {
    /// Maximum representable magnitude for the bit width.
    pub fn max_word(&self) -> i64 {
        (1i64 << (self.bitwidth - 1)) - 1
    }
}

/// Quantizes a model for transmission with `bitwidth`-bit words.
///
/// # Errors
///
/// Returns [`HdcError::InvalidArgument`] if `bitwidth` is not in `2..=32`.
pub fn quantize(model: &HdModel, bitwidth: u32) -> Result<QuantizedModel> {
    if !(2..=32).contains(&bitwidth) {
        return Err(HdcError::InvalidArgument(format!(
            "bitwidth must be in 2..=32, got {bitwidth}"
        )));
    }
    let max_word = ((1i64 << (bitwidth - 1)) - 1) as f32;
    let (k, d) = (model.num_classes(), model.dim());
    let mut words = Vec::with_capacity(k * d);
    let mut gains = Vec::with_capacity(k);
    for class in 0..k {
        let row = model.prototypes().row(class)?;
        let max_abs = row.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
        // An all-zero prototype transmits as zeros; its gain is set to the
        // full scale (as if max|c| were 1) so that any bit error injected
        // into the zero words dequantizes to at most ~1 instead of
        // exploding by the whole word range. Nonzero rows are bounded by
        // construction: |word / gain| <= max|c_k|.
        let gain = if max_abs > 0.0 {
            max_word / max_abs
        } else {
            max_word
        };
        gains.push(gain);
        // "Rounding: the scaled up values are truncated to only retain
        // their integer part." The cast is that truncation: toward zero,
        // saturating, NaN to 0.
        words.extend(row.iter().map(|&v| (v * gain) as i64));
    }
    Ok(QuantizedModel {
        words,
        gains,
        bitwidth,
        num_classes: k,
        dim: d,
    })
}

/// [`quantize`] with telemetry: wraps the conversion in an `hdc.quantize`
/// span and counts words at the quantizer's extremes — `|w| == 2^{B-1}-1`
/// (`hdc.quant.saturated_words`, the AGC gain pinned a value at full
/// scale) and `w == 0` (`hdc.quant.zeroed_words`, values truncated below
/// one quantization step). Both are the observable symptoms of a
/// bit width too narrow for the prototype's dynamic range.
///
/// # Errors
///
/// Same as [`quantize`].
pub fn quantize_instrumented(
    model: &HdModel,
    bitwidth: u32,
    tel: &fhdnn_telemetry::Recorder,
) -> Result<QuantizedModel> {
    let _span = tel.span("hdc.quantize");
    let q = quantize(model, bitwidth)?;
    if tel.enabled() {
        let max_word = q.max_word();
        let saturated = q.words.iter().filter(|w| w.abs() == max_word).count() as u64;
        let zeroed = q.words.iter().filter(|&&w| w == 0).count() as u64;
        if saturated > 0 {
            tel.incr("hdc.quant.saturated_words", saturated);
        }
        if zeroed > 0 {
            tel.incr("hdc.quant.zeroed_words", zeroed);
        }
    }
    Ok(q)
}

/// Reconstructs a model from received (possibly corrupted) words by
/// scaling each class back down by its gain.
///
/// # Errors
///
/// Returns [`HdcError::InvalidArgument`] if the word/gain counts are
/// inconsistent.
pub fn dequantize(q: &QuantizedModel) -> Result<HdModel> {
    // Checked here too, before allocating for the shape `q` claims.
    if q.words.len() != q.num_classes * q.dim {
        return Err(HdcError::InvalidArgument(
            "quantized model fields inconsistent".into(),
        ));
    }
    let mut model = HdModel::new(q.num_classes, q.dim)?;
    dequantize_into(q, &mut model)?;
    Ok(model)
}

/// [`dequantize`] over the prototypes of an existing model of the same
/// shape — the sender's own, once its words are on the wire.
///
/// # Errors
///
/// Returns [`HdcError::InvalidArgument`] if the word/gain counts are
/// inconsistent or `model` is not `[q.num_classes, q.dim]`.
pub fn dequantize_into(q: &QuantizedModel, model: &mut HdModel) -> Result<()> {
    if q.words.len() != q.num_classes * q.dim
        || q.gains.len() != q.num_classes
        || (model.num_classes(), model.dim()) != (q.num_classes, q.dim)
    {
        return Err(HdcError::InvalidArgument(
            "quantized model fields inconsistent".into(),
        ));
    }
    let rows = model.prototypes_mut().as_mut_slice();
    for ((row, words), &gain) in rows
        .chunks_exact_mut(q.dim)
        .zip(q.words.chunks_exact(q.dim))
        .zip(&q.gains)
    {
        for (p, &w) in row.iter_mut().zip(words) {
            *p = if gain != 0.0 { w as f32 / gain } else { 0.0 };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_tensor::Tensor;

    fn model_with(values: &[f32], k: usize, d: usize) -> HdModel {
        HdModel::from_prototypes(Tensor::from_vec(values.to_vec(), &[k, d]).unwrap()).unwrap()
    }

    #[test]
    fn roundtrip_error_is_small() {
        let m = model_with(&[10.0, -3.0, 7.0, 0.5, -20.0, 4.0], 2, 3);
        let q = quantize(&m, 16).unwrap();
        let back = dequantize(&q).unwrap();
        let err = back.prototypes().mse(m.prototypes()).unwrap();
        assert!(err < 1e-5, "roundtrip mse {err}");
    }

    #[test]
    fn words_saturate_at_max_magnitude() {
        let m = model_with(&[5.0, -10.0, 2.5, 0.0], 1, 4);
        let q = quantize(&m, 8).unwrap();
        assert_eq!(q.max_word(), 127);
        assert_eq!(q.words.iter().map(|w| w.abs()).max().unwrap(), 127);
    }

    #[test]
    fn instrumented_quantize_matches_and_counts_extremes() {
        // Gains pin -10 at the full scale (-127); 0.0 truncates to zero.
        let m = model_with(&[5.0, -10.0, 2.5, 0.0], 1, 4);
        let tel = fhdnn_telemetry::Recorder::in_memory();
        let q = quantize_instrumented(&m, 8, &tel).unwrap();
        assert_eq!(q, quantize(&m, 8).unwrap());
        assert_eq!(tel.counter_value("hdc.quant.saturated_words"), 1);
        assert_eq!(tel.counter_value("hdc.quant.zeroed_words"), 1);
        assert_eq!(tel.span_stat("hdc.quantize").count, 1);
    }

    #[test]
    fn per_class_gains_differ() {
        let m = model_with(&[1.0, 1.0, 100.0, 100.0], 2, 2);
        let q = quantize(&m, 8).unwrap();
        assert!(q.gains[0] > q.gains[1] * 50.0);
    }

    #[test]
    fn zero_prototype_handled() {
        let m = model_with(&[0.0, 0.0], 1, 2);
        let q = quantize(&m, 8).unwrap();
        assert_eq!(q.words, vec![0, 0]);
        let back = dequantize(&q).unwrap();
        assert_eq!(back.prototypes().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn bad_bitwidth_rejected() {
        let m = model_with(&[1.0], 1, 1);
        assert!(quantize(&m, 1).is_err());
        assert!(quantize(&m, 33).is_err());
    }

    #[test]
    fn corrupt_word_damage_is_bounded() {
        // The quantizer's purpose: even flipping a high bit of a word
        // changes the dequantized value by at most ~2x the prototype's max
        // magnitude, not by astronomical factors as with raw floats.
        let m = model_with(&[50.0, -25.0, 10.0, 5.0], 1, 4);
        let mut q = quantize(&m, 16).unwrap();
        let max_before = 50.0f32;
        // Flip the top magnitude bit of word 2.
        q.words[2] ^= 1 << 14;
        let back = dequantize(&q).unwrap();
        let corrupted = back.prototypes().as_slice()[2].abs();
        assert!(
            corrupted <= 2.0 * max_before,
            "corrupted value {corrupted} stays within the AGC dynamic range"
        );
    }

    #[test]
    fn the_cast_alone_truncates_like_trunc_then_cast() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut values = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-41,
            -1.0e-41,
            0.999_999_94,
            -0.999_999_94,
            2_147_483_648.0,
            -2_147_483_648.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(14);
        values.extend((0..4096).map(|_| f32::from_bits(rng.gen())));
        values.extend((0..4096).map(|_| rng.gen_range(-300.0f32..300.0)));
        for &v in &values {
            assert_eq!(v as i64, v.trunc() as i64, "{v:e}");
        }
        // And through `quantize`, whose gain scales each row first.
        for bitwidth in [2, 8, 16, 32] {
            for row in values.chunks(64) {
                let q = quantize(&model_with(row, 1, row.len()), bitwidth).unwrap();
                let want: Vec<i64> = row
                    .iter()
                    .map(|&v| (v * q.gains[0]).trunc() as i64)
                    .collect();
                assert_eq!(q.words, want, "bitwidth {bitwidth}");
            }
        }
    }

    #[test]
    fn dequantize_into_matches_dequantize_and_checks_the_shape() {
        let m = model_with(&[10.0, -3.0, 7.0, 0.5, -20.0, 4.0], 2, 3);
        let q = quantize(&m, 8).unwrap();
        let mut reused = m.clone();
        dequantize_into(&q, &mut reused).unwrap();
        assert_eq!(reused, dequantize(&q).unwrap());
        assert!(dequantize_into(&q, &mut HdModel::new(3, 2).unwrap()).is_err());
    }

    #[test]
    fn inconsistent_quantized_fields_rejected() {
        let m = model_with(&[1.0, 2.0], 1, 2);
        let mut q = quantize(&m, 8).unwrap();
        q.words.pop();
        assert!(dequantize(&q).is_err());
    }
}
