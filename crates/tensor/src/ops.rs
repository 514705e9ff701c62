//! Elementwise arithmetic, mapping, and scalar operations.
//!
//! All binary operations require operands of identical shape; there is no
//! implicit broadcasting except for the explicit row-broadcast helpers used
//! by linear layers ([`Tensor::add_row_broadcast`]).

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum: `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference: `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place elementwise accumulation: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation: `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scalar product: `self * s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place scalar product.
    pub fn scale_assign(&mut self, s: f32) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.as_slice().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, self.dims()).expect("map preserves volume")
    }

    /// Applies `f` to every element in place.
    pub fn map_assign<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Adds a `[cols]` row vector to every row of a `[rows, cols]` matrix.
    ///
    /// This is the bias-add used by dense layers.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or width mismatch.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        if row.shape().rank() != 1 || row.len() != self.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: row.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        if !row.is_empty() {
            for out_row in out.as_mut_slice().chunks_exact_mut(row.len()) {
                for (x, b) in out_row.iter_mut().zip(row.as_slice()) {
                    *x += b;
                }
            }
        }
        Ok(out)
    }

    /// Elementwise sign function used by HD bipolar encodings: `+1` when
    /// `x >= 0`, `-1` otherwise (matching the paper's convention that
    /// `sign(0) = +1`).
    pub fn sign_pm1(&self) -> Tensor {
        self.map(|x| if x >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product over all elements (both tensors flattened).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Cosine similarity between two tensors (flattened).
    ///
    /// Returns `0.0` when either vector has zero norm.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn cosine_similarity(&self, other: &Tensor) -> Result<f32> {
        let dot = self.dot(other)?;
        let denom = self.norm() * other.norm();
        Ok(if denom == 0.0 { 0.0 } else { dot / denom })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn add_sub_mul_div() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0])).unwrap();
        assert_eq!(a.as_slice(), &[7.0, 9.0]);
    }

    #[test]
    fn sign_pm1_zero_maps_to_plus_one() {
        let s = t(&[-0.5, 0.0, 2.0]).sign_pm1();
        assert_eq!(s.as_slice(), &[-1.0, 1.0, 1.0]);
    }

    #[test]
    fn norms() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = t(&[1.0, 0.0]);
        let b = t(&[0.0, 1.0]);
        assert_eq!(a.cosine_similarity(&b).unwrap(), 0.0);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
        let z = t(&[0.0, 0.0]);
        assert_eq!(a.cosine_similarity(&z).unwrap(), 0.0);
    }

    #[test]
    fn row_broadcast_bias_add() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = t(&[10.0, 20.0]);
        let out = m.add_row_broadcast(&b).unwrap();
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert!(m.add_row_broadcast(&t(&[1.0, 2.0, 3.0])).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, -6.0]);
        assert_eq!(a.abs().as_slice(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_assign(|x| x + 1.0);
        assert_eq!(b.as_slice(), &[2.0, -1.0]);
    }
}
