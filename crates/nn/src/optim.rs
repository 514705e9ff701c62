//! Optimizers and learning-rate schedules.

use fhdnn_tensor::Tensor;

use crate::{Network, NnError, Result};

/// A learning-rate schedule over federated rounds (or epochs).
///
/// # Example
///
/// ```
/// use fhdnn_nn::optim::LrSchedule;
///
/// let sched = LrSchedule::StepDecay { every: 10, factor: 0.5 };
/// assert_eq!(sched.lr_at(0, 0.1), 0.1);
/// assert_eq!(sched.lr_at(10, 0.1), 0.05);
/// assert_eq!(sched.lr_at(25, 0.1), 0.025);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LrSchedule {
    /// The base rate forever.
    #[default]
    Constant,
    /// Multiply by `factor` every `every` steps.
    StepDecay {
        /// Steps between decays (must be positive).
        every: usize,
        /// Multiplicative factor per decay.
        factor: f32,
    },
    /// Cosine annealing from the base rate to `min_lr` over `total` steps,
    /// then held at `min_lr`.
    Cosine {
        /// Steps in the annealing window.
        total: usize,
        /// Terminal learning rate.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// The learning rate at `step` given a base rate.
    ///
    /// # Panics
    ///
    /// Panics if a `StepDecay` has `every == 0` or a `Cosine` has
    /// `total == 0`.
    pub fn lr_at(&self, step: usize, base: f32) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                assert!(every > 0, "step decay interval must be positive");
                base * factor.powi((step / every) as i32)
            }
            LrSchedule::Cosine { total, min_lr } => {
                assert!(total > 0, "cosine window must be positive");
                if step >= total {
                    return min_lr;
                }
                let t = step as f32 / total as f32;
                min_lr + 0.5 * (base - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Stochastic gradient descent with momentum and weight decay — the local
/// optimizer run by each federated client in the CNN baseline.
///
/// # Example
///
/// ```
/// use fhdnn_nn::optim::Sgd;
///
/// let opt = Sgd::new(0.1).momentum(0.9).weight_decay(1e-4);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient (builder style).
    #[must_use]
    pub fn momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }

    /// Sets the L2 weight-decay coefficient (builder style).
    #[must_use]
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Applies one update step to every parameter of `net` using the
    /// gradients accumulated since the last [`Network::zero_grad`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the network's parameter count
    /// changed since the optimizer first saw it (momentum state would be
    /// misaligned).
    pub fn step(&mut self, net: &mut Network) -> Result<()> {
        let params = net.params_mut();
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.dims()))
                .collect();
        } else if self.velocity.len() != params.len() {
            return Err(NnError::InvalidConfig(format!(
                "optimizer state holds {} tensors but network has {} parameters",
                self.velocity.len(),
                params.len()
            )));
        }
        for (p, v) in params.into_iter().zip(&mut self.velocity) {
            if v.dims() != p.value.dims() {
                return Err(NnError::InvalidConfig(
                    "parameter shape changed under the optimizer".into(),
                ));
            }
            for i in 0..p.value.len() {
                let g = p.grad.as_slice()[i] + self.weight_decay * p.value.as_slice()[i];
                let vel = self.momentum * v.as_slice()[i] + g;
                v.as_mut_slice()[i] = vel;
                p.value.as_mut_slice()[i] -= self.lr * vel;
            }
        }
        Ok(())
    }

    /// Discards momentum state (used when a client receives a fresh global
    /// model at the start of a federated round).
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::loss::cross_entropy;
    use crate::Mode;
    use fhdnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new().push(Linear::new(2, 2, &mut rng).unwrap())
    }

    #[test]
    fn schedules_decay_as_specified() {
        let step = LrSchedule::StepDecay {
            every: 5,
            factor: 0.1,
        };
        assert!((step.lr_at(4, 1.0) - 1.0).abs() < 1e-6);
        assert!((step.lr_at(5, 1.0) - 0.1).abs() < 1e-6);
        assert!((step.lr_at(14, 1.0) - 0.01).abs() < 1e-6);

        let cos = LrSchedule::Cosine {
            total: 10,
            min_lr: 0.01,
        };
        assert!((cos.lr_at(0, 0.1) - 0.1).abs() < 1e-6);
        assert!((cos.lr_at(10, 0.1) - 0.01).abs() < 1e-6);
        assert!((cos.lr_at(100, 0.1) - 0.01).abs() < 1e-6);
        // Monotone decreasing inside the window.
        for t in 0..9 {
            assert!(cos.lr_at(t, 0.1) >= cos.lr_at(t + 1, 0.1));
        }
        assert_eq!(LrSchedule::Constant.lr_at(42, 0.3), 0.3);
        assert_eq!(LrSchedule::default(), LrSchedule::Constant);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut n = net(0);
        let mut opt = Sgd::new(0.5);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let labels = [0usize, 1usize];
        let first = cross_entropy(&n.forward(&x, Mode::Train).unwrap(), &labels)
            .unwrap()
            .loss;
        for _ in 0..50 {
            n.zero_grad();
            let logits = n.forward(&x, Mode::Train).unwrap();
            let out = cross_entropy(&logits, &labels).unwrap();
            n.backward(&out.grad).unwrap();
            opt.step(&mut n).unwrap();
        }
        let last = cross_entropy(&n.forward(&x, Mode::Eval).unwrap(), &labels)
            .unwrap()
            .loss;
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    #[test]
    fn momentum_accelerates_on_quadratic() {
        // One linear scalar parameter, MSE-style gradient; momentum should
        // reach a smaller loss in the same steps on this smooth problem.
        fn run(momentum: f32) -> f32 {
            let mut n = net(1);
            let mut opt = Sgd::new(0.05).momentum(momentum);
            let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
            let labels = [1usize];
            for _ in 0..20 {
                n.zero_grad();
                let logits = n.forward(&x, Mode::Train).unwrap();
                let out = cross_entropy(&logits, &labels).unwrap();
                n.backward(&out.grad).unwrap();
                opt.step(&mut n).unwrap();
            }
            cross_entropy(&n.forward(&x, Mode::Eval).unwrap(), &labels)
                .unwrap()
                .loss
        }
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut n = net(2);
        let before: f32 = n.flatten_params().iter().map(|x| x * x).sum();
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        // No data gradient: only decay acts.
        n.zero_grad();
        opt.step(&mut n).unwrap();
        let after: f32 = n.flatten_params().iter().map(|x| x * x).sum();
        assert!(after < before);
    }

    #[test]
    fn reset_state_allows_new_network() {
        let mut a = net(0);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        a.zero_grad();
        opt.step(&mut a).unwrap();
        opt.reset_state();
        let mut b = net(3);
        b.zero_grad();
        assert!(opt.step(&mut b).is_ok());
    }
}
