//! Elementwise activation layers.

use fhdnn_tensor::Tensor;

use crate::{Layer, Mode, NnError, Result};

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use fhdnn_nn::activation::Relu;
/// use fhdnn_nn::{Layer, Mode};
/// use fhdnn_tensor::Tensor;
///
/// # fn main() -> Result<(), fhdnn_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// let y = relu.forward(&x, Mode::Eval)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        }
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Relu" })?;
        if mask.len() != grad_output.len() {
            return Err(NnError::BadInputShape {
                layer: "Relu",
                detail: format!(
                    "grad length {} != cached activation length {}",
                    grad_output.len(),
                    mask.len()
                ),
            });
        }
        let g = grad_output.as_slice().iter().zip(&mask);
        let g = g.map(|(&g, &keep)| if keep { g } else { 0.0 }).collect();
        Ok(Tensor::from_vec(g, grad_output.dims())?)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<u64> {
        Ok(input_dims.iter().product::<usize>() as u64)
    }
}

/// Hyperbolic tangent activation, used by the contrastive projection head.
#[derive(Debug, Default, Clone)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = input.map(f32::tanh);
        if mode == Mode::Train {
            self.output = Some(out.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let out = self
            .output
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Tanh" })?;
        Ok(grad_output.zip_map(&out, |g, y| g * (1.0 - y * y))?)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<u64> {
        // tanh is a handful of FLOPs; count 8 per element.
        Ok(8 * input_dims.iter().product::<usize>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], &[3]).unwrap();
        relu.forward(&x, Mode::Train).unwrap();
        let g = relu
            .backward(&Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]).unwrap())
            .unwrap();
        // x == 0 has zero subgradient under the x > 0 convention.
        assert_eq!(g.as_slice(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn relu_backward_rejects_length_mismatch() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros(&[3]), Mode::Train).unwrap();
        assert!(relu.backward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn tanh_gradient_matches_numeric() {
        let mut tanh = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -0.7], &[2]).unwrap();
        let y = tanh.forward(&x, Mode::Train).unwrap();
        let base = y.sum();
        let dx = tanh.backward(&Tensor::ones(&[2])).unwrap();
        let eps = 1e-3;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let num = (tanh.forward(&xp, Mode::Eval).unwrap().sum() - base) / eps;
            assert!((num - dx.as_slice()[i]).abs() < 1e-3);
        }
    }
}
