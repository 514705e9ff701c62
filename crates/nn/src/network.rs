//! Sequential network container with federated parameter transport.

use fhdnn_tensor::Tensor;

use crate::{Layer, Mode, NnError, Param, Result};

/// A feed-forward stack of layers executed in order.
///
/// Besides forward/backward, `Network` provides the federated-learning
/// transport surface: [`Network::flatten_params`] serializes every
/// trainable scalar into one `Vec<f32>` (the "model update" a client
/// transmits) and [`Network::load_params`] restores it — byte-for-byte the
/// object that the paper's channels corrupt.
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs all layers in order.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut x = first.forward(input, mode)?;
        for layer in rest {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Back-propagates through all layers in reverse order, accumulating
    /// parameter gradients, and returns the input gradient.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (including missing forward caches).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return Ok(grad_output.clone());
        };
        let mut g = last.backward(grad_output)?;
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All trainable parameters in deterministic (layer, intra-layer) order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Read-only parameter walk in the same order as
    /// [`Network::params_mut`].
    pub fn visit_params(&self, visitor: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(visitor);
        }
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars — the model's "update size" in
    /// the paper's communication accounting.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Serializes every trainable scalar into one row-major vector.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
        out
    }

    /// Restores parameters from a flattened vector produced by
    /// [`Network::flatten_params`] on an identically-structured network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if `flat` has the wrong
    /// length.
    pub fn load_params(&mut self, flat: &[f32]) -> Result<()> {
        let expected = self.num_params();
        if flat.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for p in self.params_mut() {
            let n = p.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Serializes all running (non-trainable) state — batch-norm
    /// statistics — in layer order.
    pub fn running_state(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.running_state()).collect()
    }

    /// Restores running state written by [`Network::running_state`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if `state` has the wrong
    /// total length.
    pub fn load_running_state(&mut self, state: &[f32]) -> Result<()> {
        let expected: usize = self.layers.iter().map(|l| l.running_state_len()).sum();
        if state.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: state.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.running_state_len();
            layer.load_running_state(&state[offset..offset + n])?;
            offset += n;
        }
        Ok(())
    }

    /// Output shape after all layers for a given input shape.
    ///
    /// # Errors
    ///
    /// Propagates the first layer shape error.
    pub fn output_dims(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        let mut dims = input_dims.to_vec();
        for layer in &self.layers {
            dims = layer.output_dims(&dims)?;
        }
        Ok(dims)
    }

    /// FLOPs of one forward pass over `input_dims` summed over layers.
    ///
    /// # Errors
    ///
    /// Propagates the first layer shape error.
    pub fn flops(&self, input_dims: &[usize]) -> Result<u64> {
        let mut dims = input_dims.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops(&dims)?;
            dims = layer.output_dims(&dims)?;
        }
        Ok(total)
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new()
            .push(Linear::new(4, 8, &mut rng).unwrap())
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut rng).unwrap())
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net(0);
        let y = net.forward(&Tensor::zeros(&[5, 4]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(net.output_dims(&[5, 4]).unwrap(), vec![5, 3]);
    }

    #[test]
    fn num_params_counts_all_layers() {
        let net = tiny_net(0);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut a = tiny_net(1);
        let mut b = tiny_net(2);
        let x = Tensor::ones(&[1, 4]);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        assert_ne!(
            ya,
            b.forward(&x, Mode::Eval).unwrap(),
            "different seeds give different nets"
        );
        b.load_params(&a.flatten_params()).unwrap();
        assert_eq!(b.forward(&x, Mode::Eval).unwrap(), ya);
    }

    #[test]
    fn load_rejects_wrong_length() {
        let mut net = tiny_net(0);
        assert!(matches!(
            net.load_params(&[0.0; 3]),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = tiny_net(0);
        net.forward(&Tensor::ones(&[2, 4]), Mode::Train).unwrap();
        net.backward(&Tensor::ones(&[2, 3])).unwrap();
        let had_grad = net
            .params_mut()
            .iter()
            .any(|p| p.grad.as_slice().iter().any(|&g| g != 0.0));
        assert!(had_grad);
        net.zero_grad();
        for p in net.params_mut() {
            assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn running_state_empty_for_stateless_nets() {
        let mut net = tiny_net(0);
        assert!(net.running_state().is_empty());
        assert!(net.load_running_state(&[]).is_ok());
        assert!(net.load_running_state(&[1.0]).is_err());
    }

    #[test]
    fn flops_accumulate() {
        let net = tiny_net(0);
        let f = net.flops(&[1, 4]).unwrap();
        assert_eq!(f, (2 * 4 + 1) * 8 + 8 + (2 * 8 + 1) * 3);
    }
}
