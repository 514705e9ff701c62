use fhdnn_tensor::Tensor;

/// A trainable parameter: a value tensor and its accumulated gradient.
///
/// Layers own their `Param`s; optimizers visit them through
/// [`crate::Layer::params_mut`].
///
/// # Example
///
/// ```
/// use fhdnn_nn::Param;
/// use fhdnn_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2, 2]));
/// assert_eq!(p.grad.sum(), 0.0);
/// p.zero_grad();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`, accumulated by the
    /// layer's backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zero gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[3]));
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
