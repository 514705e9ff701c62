//! Residual blocks — the defining component of the paper's ResNet baseline.

use fhdnn_tensor::Tensor;
use rand::Rng;

use crate::activation::Relu;
use crate::conv::{Conv2d, ConvGeometry};
use crate::norm::BatchNorm2d;
use crate::{Layer, Mode, NnError, Param, Result};

/// A basic two-convolution residual block:
///
/// ```text
/// x ── conv3x3 ── bn ── relu ── conv3x3 ── bn ──(+)── relu ── y
///  └───────────── shortcut (identity or 1x1 conv+bn) ──┘
/// ```
///
/// When `stride > 1` or the channel count changes, the shortcut is a
/// strided 1×1 convolution followed by batch norm, as in ResNet-18.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_channels` to `out_channels`
    /// with the given stride on the first convolution.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channels or stride.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let g1 = ConvGeometry {
            kernel: 3,
            stride,
            padding: 1,
        };
        let g2 = ConvGeometry {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let shortcut = if stride != 1 || in_channels != out_channels {
            let gs = ConvGeometry {
                kernel: 1,
                stride,
                padding: 0,
            };
            Some((
                Conv2d::new(in_channels, out_channels, gs, rng)?,
                BatchNorm2d::new(out_channels)?,
            ))
        } else {
            None
        };
        Ok(ResidualBlock {
            conv1: Conv2d::new(in_channels, out_channels, g1, rng)?,
            bn1: BatchNorm2d::new(out_channels)?,
            relu1: Relu::new(),
            conv2: Conv2d::new(out_channels, out_channels, g2, rng)?,
            bn2: BatchNorm2d::new(out_channels)?,
            shortcut,
            relu_out: Relu::new(),
        })
    }
}

impl Layer for ResidualBlock {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "ResidualBlock"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let main = self.conv1.forward(input, mode)?;
        let main = self.bn1.forward(&main, mode)?;
        let main = self.relu1.forward(&main, mode)?;
        let main = self.conv2.forward(&main, mode)?;
        let mut sum = self.bn2.forward(&main, mode)?;
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, mode)?;
                sum.add_assign(&bn.forward(&s, mode)?)?;
            }
            None => sum.add_assign(input)?,
        }
        self.relu_out.forward(&sum, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g_sum = self.relu_out.backward(grad_output)?;
        // Main path.
        let g = self.bn2.backward(&g_sum)?;
        let g = self.conv2.backward(&g)?;
        let g = self.relu1.backward(&g)?;
        let g = self.bn1.backward(&g)?;
        let mut dx = self.conv1.backward(&g)?;
        // Shortcut path.
        let g_skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let g = bn.backward(&g_sum)?;
                conv.backward(&g)?
            }
            None => g_sum,
        };
        dx.add_assign(&g_skip).map_err(NnError::from)?;
        Ok(dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.conv1.params_mut();
        ps.extend(self.bn1.params_mut());
        ps.extend(self.conv2.params_mut());
        ps.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = &mut self.shortcut {
            ps.extend(conv.params_mut());
            ps.extend(bn.params_mut());
        }
        ps
    }

    fn visit_params(&self, visitor: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(visitor);
        self.bn1.visit_params(visitor);
        self.conv2.visit_params(visitor);
        self.bn2.visit_params(visitor);
        if let Some((conv, bn)) = &self.shortcut {
            conv.visit_params(visitor);
            bn.visit_params(visitor);
        }
    }

    fn output_dims(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        self.conv1.output_dims(input_dims)
    }

    fn running_state(&self) -> Vec<f32> {
        let mut out = self.bn1.running_state();
        out.extend(self.bn2.running_state());
        if let Some((_, bn)) = &self.shortcut {
            out.extend(bn.running_state());
        }
        out
    }

    fn load_running_state(&mut self, state: &[f32]) -> Result<()> {
        if state.len() != self.running_state_len() {
            return Err(crate::NnError::ParamLengthMismatch {
                expected: self.running_state_len(),
                actual: state.len(),
            });
        }
        let n1 = self.bn1.running_state_len();
        let n2 = self.bn2.running_state_len();
        self.bn1.load_running_state(&state[..n1])?;
        self.bn2.load_running_state(&state[n1..n1 + n2])?;
        if let Some((_, bn)) = &mut self.shortcut {
            bn.load_running_state(&state[n1 + n2..])?;
        }
        Ok(())
    }

    fn running_state_len(&self) -> usize {
        self.bn1.running_state_len()
            + self.bn2.running_state_len()
            + self
                .shortcut
                .as_ref()
                .map_or(0, |(_, bn)| bn.running_state_len())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<u64> {
        let mid = self.conv1.output_dims(input_dims)?;
        let mut total = self.conv1.flops(input_dims)?
            + self.bn1.flops(&mid)?
            + self.relu1.flops(&mid)?
            + self.conv2.flops(&mid)?
            + self.bn2.flops(&mid)?;
        if let Some((conv, bn)) = &self.shortcut {
            total += conv.flops(input_dims)? + bn.flops(&mid)?;
        }
        // Elementwise add + final relu.
        total += 2 * mid.iter().product::<usize>() as u64;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(8, 8, 1, &mut rng).unwrap();
        let y = block
            .forward(&Tensor::zeros(&[2, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert_eq!(block.params_mut().len(), 8, "2 convs + 2 bns, no shortcut");
    }

    #[test]
    fn downsample_block_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = ResidualBlock::new(8, 16, 2, &mut rng).unwrap();
        let y = block
            .forward(&Tensor::zeros(&[2, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 16, 4, 4]);
        assert_eq!(block.params_mut().len(), 12, "plus 1x1 conv + bn shortcut");
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut block = ResidualBlock::new(2, 2, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        let base = y.sum();
        let dx = block.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 5e-3;
        for i in (0..x.len()).step_by(11) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            // Fresh block with copied params so BN batch stats are consistent.
            let mut b2 = ResidualBlock::new(2, 2, 1, &mut StdRng::seed_from_u64(2)).unwrap();
            let src: Vec<Tensor> = {
                let mut v = Vec::new();
                block.visit_params(&mut |p| v.push(p.value.clone()));
                v
            };
            for (dst, s) in b2.params_mut().into_iter().zip(src) {
                dst.value = s;
            }
            let yp = b2.forward(&xp, Mode::Train).unwrap().sum();
            let num = (yp - base) / eps;
            assert!(
                (num - dx.as_slice()[i]).abs() < 0.1,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn visit_params_matches_params_mut_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = ResidualBlock::new(4, 8, 2, &mut rng).unwrap();
        let mut lens = Vec::new();
        block.visit_params(&mut |p| lens.push(p.len()));
        let lens_mut: Vec<usize> = block.params_mut().iter().map(|p| p.len()).collect();
        assert_eq!(lens, lens_mut);
    }
}
