//! The complete FHDnn model: extractor → random-projection encoder → HD
//! classifier (paper Figure 2).

use fhdnn_hdc::encoder::RandomProjectionEncoder;
use fhdnn_hdc::model::HdModel;
use fhdnn_tensor::Tensor;

use crate::extractor::FeatureExtractor;
use crate::{FhdnnError, Result};

/// An end-to-end FHDnn classifier.
///
/// Pixels flow through the frozen [`FeatureExtractor`], the features
/// through the shared [`RandomProjectionEncoder`], and the bipolar
/// hypervectors into the [`HdModel`]. Only the HD model is mutable after
/// construction — exactly the paper's training surface.
#[derive(Debug)]
pub struct FhdnnModel {
    extractor: FeatureExtractor,
    encoder: RandomProjectionEncoder,
    hd: HdModel,
}

impl FhdnnModel {
    /// Assembles a model; the encoder width must match the extractor's
    /// feature width.
    ///
    /// # Errors
    ///
    /// Returns [`FhdnnError::InvalidArgument`] on width or dimension
    /// mismatches.
    pub fn new(
        extractor: FeatureExtractor,
        encoder: RandomProjectionEncoder,
        hd: HdModel,
    ) -> Result<Self> {
        if encoder.feature_width() != extractor.feature_width() {
            return Err(FhdnnError::InvalidArgument(format!(
                "encoder expects {}-wide features, extractor produces {}",
                encoder.feature_width(),
                extractor.feature_width()
            )));
        }
        if hd.dim() != encoder.dim() {
            return Err(FhdnnError::InvalidArgument(format!(
                "HD model dimension {} != encoder dimension {}",
                hd.dim(),
                encoder.dim()
            )));
        }
        Ok(FhdnnModel {
            extractor,
            encoder,
            hd,
        })
    }

    /// Encodes a batch of images into hypervectors `[n, d]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape incompatibilities.
    pub fn encode(&mut self, images: &Tensor) -> Result<Tensor> {
        let feats = self.extractor.extract_chunked(images, 64)?;
        self.encoder.encode_batch(&feats).map_err(Into::into)
    }

    /// Trains the HD component on a labeled image batch: one-shot bundling
    /// if the model is untrained, then `epochs` refinement passes.
    ///
    /// # Errors
    ///
    /// Returns an error on shape or label problems.
    pub fn train_local(&mut self, images: &Tensor, labels: &[usize], epochs: usize) -> Result<()> {
        let h = self.encode(images)?;
        if self.hd.prototypes().as_slice().iter().all(|&v| v == 0.0) {
            self.hd.one_shot_train(&h, labels)?;
        }
        for _ in 0..epochs {
            self.hd.refine_epoch(&h, labels)?;
        }
        Ok(())
    }

    /// Predicts classes for a batch of images.
    ///
    /// # Errors
    ///
    /// Returns an error on shape incompatibilities.
    pub fn predict(&mut self, images: &Tensor) -> Result<Vec<usize>> {
        let h = self.encode(images)?;
        self.hd.predict_batch(&h).map_err(Into::into)
    }

    /// Test accuracy over a labeled image batch.
    ///
    /// # Errors
    ///
    /// Returns an error on shape incompatibilities.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize]) -> Result<f32> {
        let h = self.encode(images)?;
        self.hd.accuracy(&h, labels).map_err(Into::into)
    }

    /// The HD component (the transmitted object).
    pub fn hd(&self) -> &HdModel {
        &self.hd
    }

    /// Replaces the HD component (receiving a global broadcast).
    ///
    /// # Errors
    ///
    /// Returns an error if the replacement has mismatched dimensions.
    pub fn set_hd(&mut self, hd: HdModel) -> Result<()> {
        if hd.dim() != self.encoder.dim() || hd.num_classes() != self.hd.num_classes() {
            return Err(FhdnnError::InvalidArgument(
                "replacement HD model has mismatched shape".into(),
            ));
        }
        self.hd = hd;
        Ok(())
    }

    /// The shared encoder.
    pub fn encoder(&self) -> &RandomProjectionEncoder {
        &self.encoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_datasets::image::SynthSpec;
    use fhdnn_nn::models::ResNetConfig;

    fn tiny_model(dim: usize) -> FhdnnModel {
        let backbone = ResNetConfig {
            in_channels: 1,
            base_width: 4,
            blocks_per_stage: 1,
            num_classes: 10,
        };
        let extractor = FeatureExtractor::random(backbone, 0).unwrap();
        let encoder = RandomProjectionEncoder::new(dim, extractor.feature_width(), 1).unwrap();
        let hd = HdModel::new(10, dim).unwrap();
        FhdnnModel::new(extractor, encoder, hd).unwrap()
    }

    #[test]
    fn end_to_end_learns_synthetic_mnist() {
        let mut model = tiny_model(2048);
        let spec = SynthSpec::mnist_like();
        let train = spec.generate(200, 0).unwrap();
        let test = spec.generate(100, 1).unwrap();
        model.train_local(&train.images, &train.labels, 2).unwrap();
        let acc = model.accuracy(&test.images, &test.labels).unwrap();
        assert!(
            acc > 0.5,
            "even a random extractor separates easy data: {acc}"
        );
    }

    #[test]
    fn encode_produces_bipolar_hypervectors() {
        let mut model = tiny_model(512);
        let images = SynthSpec::mnist_like().generate(10, 2).unwrap().images;
        let h = model.encode(&images).unwrap();
        assert_eq!(h.dims(), &[10, 512]);
        assert!(h.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn set_hd_validates_shape() {
        let mut model = tiny_model(512);
        assert!(model.set_hd(HdModel::new(10, 512).unwrap()).is_ok());
        assert!(model.set_hd(HdModel::new(10, 256).unwrap()).is_err());
        assert!(model.set_hd(HdModel::new(5, 512).unwrap()).is_err());
    }

    #[test]
    fn mismatched_components_rejected() {
        let backbone = ResNetConfig {
            in_channels: 1,
            base_width: 4,
            blocks_per_stage: 1,
            num_classes: 10,
        };
        let extractor = FeatureExtractor::random(backbone, 3).unwrap();
        let bad_encoder = RandomProjectionEncoder::new(512, 99, 4).unwrap();
        let hd = HdModel::new(10, 512).unwrap();
        assert!(FhdnnModel::new(extractor, bad_encoder, hd).is_err());
    }
}
