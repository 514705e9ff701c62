//! Empirical convergence-rate analysis (paper §3.6).
//!
//! The paper argues FHDnn's training objective is L-smooth and strongly
//! convex in the HD model, so federated bundling converges at `O(1/T)` —
//! a claim that cannot be made for the non-convex CNN baseline. This
//! module makes that claim measurable: it fits a power law
//! `suboptimality(t) ≈ c · t^p` to a run history and reports the decay
//! exponent `p` (`≈ −1` for an `O(1/T)` process; closer to `0` for slow,
//! erratic convergence).

use crate::metrics::RunHistory;
use crate::{FedError, Result};

/// A fitted power law `y ≈ c · x^p` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Decay exponent `p` (negative for decaying curves).
    pub exponent: f64,
    /// Multiplicative coefficient `c`.
    pub coefficient: f64,
    /// Coefficient of determination of the log-log linear fit.
    pub r_squared: f64,
}

/// Fits `y ≈ c · x^p` by least squares in log-log space.
///
/// Only strictly positive samples participate (a suboptimality of zero is
/// already converged and carries no rate information).
///
/// # Errors
///
/// Returns [`FedError::InvalidArgument`] if fewer than three positive
/// samples remain.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Result<PowerLawFit> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 3 {
        return Err(FedError::InvalidArgument(format!(
            "power-law fit needs at least 3 positive samples, got {}",
            pts.len()
        )));
    }
    let n = pts.len() as f64;
    let mean_x = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pts {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return Err(FedError::InvalidArgument(
            "all samples share one x value".into(),
        ));
    }
    let exponent = sxy / sxx;
    let intercept = mean_y - exponent * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(PowerLawFit {
        exponent,
        coefficient: intercept.exp(),
        r_squared,
    })
}

/// The suboptimality curve of a run: `best_accuracy − accuracy(t)` per
/// round, with the run's best accuracy standing in for the (unknown)
/// optimum.
pub fn suboptimality_curve(history: &RunHistory) -> (Vec<f64>, Vec<f64>) {
    let best = history.best_accuracy() as f64;
    let xs: Vec<f64> = (1..=history.rounds.len()).map(|t| t as f64).collect();
    let ys: Vec<f64> = history
        .rounds
        .iter()
        .map(|r| (best - r.test_accuracy as f64).max(0.0))
        .collect();
    (xs, ys)
}

/// Mean suboptimality over the run — the (normalized) *regret*. A method
/// that converges immediately has near-zero regret regardless of how the
/// power-law fit behaves on its noise floor, which makes regret the
/// robust convergence-speed comparator between methods.
pub fn mean_regret(history: &RunHistory) -> f64 {
    let (_, ys) = suboptimality_curve(history);
    if ys.is_empty() {
        0.0
    } else {
        ys.iter().sum::<f64>() / ys.len() as f64
    }
}

/// Fits the convergence rate of a run history; see [`fit_power_law`].
///
/// # Errors
///
/// Returns an error if the run is too short or already converged at
/// round 1 (no positive suboptimality samples to fit).
pub fn convergence_rate(history: &RunHistory) -> Result<PowerLawFit> {
    let (xs, ys) = suboptimality_curve(history);
    fit_power_law(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundMetrics;

    fn history_from(accs: &[f32]) -> RunHistory {
        let mut h = RunHistory::new("fit");
        for (i, &a) in accs.iter().enumerate() {
            h.push(RoundMetrics {
                round: i,
                test_accuracy: a,
                participants: 1,
                bytes_per_client: 1,
                ..RoundMetrics::default()
            });
        }
        h
    }

    #[test]
    fn exact_inverse_t_recovers_exponent_minus_one() {
        let xs: Vec<f64> = (1..=20).map(|t| t as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|t| 0.5 / t).collect();
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!((fit.exponent + 1.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.coefficient - 0.5).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn exact_inverse_sqrt_recovers_exponent_half() {
        let xs: Vec<f64> = (1..=20).map(|t| t as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|t| 2.0 / t.sqrt()).collect();
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!((fit.exponent + 0.5).abs() < 1e-9, "{fit:?}");
    }

    #[test]
    fn flat_curve_has_near_zero_exponent() {
        let xs: Vec<f64> = (1..=10).map(|t| t as f64).collect();
        let ys = vec![0.3; 10];
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!(fit.exponent.abs() < 1e-9, "{fit:?}");
    }

    #[test]
    fn fast_converger_has_steeper_decay_than_slow() {
        // Fast: suboptimality ~ 1/t^1.5; slow: ~ 1/t^0.3.
        let fast = history_from(&[0.4, 0.72, 0.78, 0.8, 0.81, 0.815, 0.8199, 0.82]);
        let slow = history_from(&[0.2, 0.28, 0.33, 0.37, 0.4, 0.43, 0.45, 0.47]);
        let f = convergence_rate(&fast).unwrap();
        let s = convergence_rate(&slow).unwrap();
        assert!(
            f.exponent < s.exponent,
            "fast {} should decay more steeply than slow {}",
            f.exponent,
            s.exponent
        );
    }

    #[test]
    fn suboptimality_is_nonnegative_and_zero_at_best() {
        let h = history_from(&[0.3, 0.8, 0.6]);
        let (xs, ys) = suboptimality_curve(&h);
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert!(ys.iter().all(|&y| y >= 0.0));
        assert_eq!(ys[1], 0.0, "best round has zero suboptimality");
    }

    #[test]
    fn regret_orders_convergence_speed() {
        let fast = history_from(&[0.8, 0.82, 0.82, 0.82]);
        let slow = history_from(&[0.2, 0.4, 0.6, 0.82]);
        assert!(mean_regret(&fast) < mean_regret(&slow));
        assert_eq!(mean_regret(&RunHistory::new("empty")), 0.0);
    }

    #[test]
    fn too_few_samples_rejected() {
        assert!(fit_power_law(&[1.0, 2.0], &[1.0, 0.5]).is_err());
        let h = history_from(&[0.8, 0.8, 0.8]);
        // All suboptimalities are zero => no positive samples.
        assert!(convergence_rate(&h).is_err());
    }
}
