//! Edge-device cost model — the Table 1 substitution.
//!
//! The paper measures on-device training time and energy on a Raspberry
//! Pi 3b and an NVIDIA Jetson. Without the hardware, we reproduce the
//! comparison analytically: the FLOP count of a client's local work
//! (counted exactly by `fhdnn-nn`'s per-layer accounting and the HD op
//! formulas here) divided by a device profile's sustained throughput,
//! times its power draw.
//!
//! The two built-in profiles are *calibrated from the paper's own ResNet
//! row*: we take the paper's local workload (ResNet-18-class training,
//! `E = 2` epochs over ~500 CIFAR images ⇒ ~1.7 TFLOP) and solve for the
//! throughput/power that lands on Table 1's 1328.04 s / 6742.8 J (RPi)
//! and 90.55 s / 497.572 J (Jetson). The FHDnn rows are then *predictions*
//! of the model, compared against the paper in EXPERIMENTS.md.

use crate::{FedError, Result};

/// A device's sustained compute throughput and power draw.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Device name for reports.
    pub name: String,
    /// Sustained throughput in FLOP/s for dense f32 workloads.
    pub flops_per_sec: f64,
    /// Average power draw under load, watts.
    pub power_watts: f64,
}

impl DeviceProfile {
    /// Raspberry Pi 3b profile, calibrated from Table 1's ResNet row.
    pub fn raspberry_pi_3b() -> Self {
        DeviceProfile {
            name: "Raspberry Pi 3b".into(),
            flops_per_sec: 1.26e9,
            power_watts: 5.08,
        }
    }

    /// NVIDIA Jetson profile, calibrated from Table 1's ResNet row.
    pub fn jetson() -> Self {
        DeviceProfile {
            name: "Nvidia Jetson".into(),
            flops_per_sec: 18.4e9,
            power_watts: 5.50,
        }
    }

    /// Time and energy to execute `flops` floating-point operations.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidArgument`] if the profile has
    /// non-positive throughput.
    pub fn estimate(&self, flops: f64) -> Result<CostEstimate> {
        if self.flops_per_sec <= 0.0 || self.flops_per_sec.is_nan() {
            return Err(FedError::InvalidArgument(format!(
                "{}: throughput must be positive",
                self.name
            )));
        }
        let seconds = flops / self.flops_per_sec;
        Ok(CostEstimate {
            seconds,
            joules: seconds * self.power_watts,
        })
    }
}

/// Estimated execution cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub joules: f64,
}

/// FLOPs of HD encoding one batch: the random projection `Φ z` is
/// `2·n·d` multiply-adds per sample, plus the sign.
pub fn hd_encode_flops(samples: u64, feature_width: u64, dim: u64) -> u64 {
    samples * (2 * feature_width * dim + dim)
}

/// FLOPs of one HD refinement epoch over `samples` hypervectors:
/// a similarity against all `classes` prototypes (`2·d` each, plus
/// norms) and, at worst, two prototype updates of `d` additions.
pub fn hd_refine_flops(samples: u64, classes: u64, dim: u64) -> u64 {
    samples * (classes * 3 * dim + 2 * dim)
}

/// FLOPs of one-shot bundling `samples` hypervectors into prototypes.
pub fn hd_bundle_flops(samples: u64, dim: u64) -> u64 {
    samples * dim
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper-scale local workload used to calibrate the profiles:
    /// ResNet-18-class training (~0.56 GFLOP forward/image, 3x for
    /// training) over E=2 epochs x 500 images.
    const PAPER_RESNET_LOCAL_FLOPS: f64 = 0.56e9 * 3.0 * 1000.0;

    #[test]
    fn rpi_calibration_matches_table1_resnet_row() {
        let est = DeviceProfile::raspberry_pi_3b()
            .estimate(PAPER_RESNET_LOCAL_FLOPS)
            .unwrap();
        assert!((est.seconds - 1328.04).abs() / 1328.04 < 0.05, "{est:?}");
        assert!((est.joules - 6742.8).abs() / 6742.8 < 0.05, "{est:?}");
    }

    #[test]
    fn jetson_calibration_matches_table1_resnet_row() {
        let est = DeviceProfile::jetson()
            .estimate(PAPER_RESNET_LOCAL_FLOPS)
            .unwrap();
        assert!((est.seconds - 90.55).abs() / 90.55 < 0.05, "{est:?}");
        assert!((est.joules - 497.572).abs() / 497.572 < 0.05, "{est:?}");
    }

    #[test]
    fn hd_work_is_cheaper_than_cnn_training() {
        // FHDnn's local work = extractor forward only + encode + refine;
        // must come out well below full CNN training on the same device.
        let forward_only = 0.56e9 * 1000.0;
        let hd = forward_only
            + hd_encode_flops(1000, 512, 10_000) as f64
            + 2.0 * hd_refine_flops(1000, 10, 10_000) as f64;
        assert!(hd < PAPER_RESNET_LOCAL_FLOPS * 0.75);
        let rpi = DeviceProfile::raspberry_pi_3b();
        let t_hd = rpi.estimate(hd).unwrap().seconds;
        let t_cnn = rpi.estimate(PAPER_RESNET_LOCAL_FLOPS).unwrap().seconds;
        assert!(t_hd < t_cnn);
    }

    #[test]
    fn estimate_rejects_bad_profile() {
        let p = DeviceProfile {
            name: "broken".into(),
            flops_per_sec: 0.0,
            power_watts: 1.0,
        };
        assert!(p.estimate(1e9).is_err());
    }

    #[test]
    fn flop_formulas_scale_linearly() {
        assert_eq!(
            hd_encode_flops(2, 100, 1000),
            2 * hd_encode_flops(1, 100, 1000)
        );
        assert_eq!(hd_refine_flops(3, 10, 100), 3 * hd_refine_flops(1, 10, 100));
        assert_eq!(hd_bundle_flops(5, 64), 320);
    }
}
