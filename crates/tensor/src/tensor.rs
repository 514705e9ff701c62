use rand::Rng;
use rand_distr::{Distribution, StandardNormal, Uniform};

use crate::{Result, Shape, TensorError};

/// A dense, row-major, contiguous `f32` tensor.
///
/// `Tensor` is the workhorse container for this reproduction: CNN
/// activations and weights, hyperdimensional projection matrices, and
/// class-prototype matrices are all `Tensor`s.
///
/// # Example
///
/// ```
/// use fhdnn_tensor::Tensor;
///
/// # fn main() -> Result<(), fhdnn_tensor::TensorError> {
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` is not the
    /// shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor with entries drawn i.i.d. from `N(0, std^2)`.
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume())
            .map(|_| {
                let z: f32 = StandardNormal.sample(rng);
                z * std
            })
            .collect();
        Tensor { data, shape }
    }

    /// A tensor with entries drawn i.i.d. from `U(lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        assert!(lo <= hi, "uniform bounds out of order: {lo} > {hi}");
        let shape = Shape::new(dims);
        let dist = Uniform::new_inclusive(lo, hi);
        let data = (0..shape.volume()).map(|_| dist.sample(rng)).collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of bounds or has wrong rank.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of bounds or has wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Borrows row `i` of a rank-2 tensor as a slice.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or `i` is out of range.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= rows {
            return Err(TensorError::AxisOutOfRange {
                axis: i,
                rank: rows,
            });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Mutably borrows row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> Result<&mut [f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= rows {
            return Err(TensorError::AxisOutOfRange {
                axis: i,
                rank: rows,
            });
        }
        Ok(&mut self.data[i * cols..(i + 1) * cols])
    }

    /// Copies a contiguous leading-axis slab `[start, end)` of the first
    /// dimension into a new tensor.
    ///
    /// For a `[N, ...]` tensor this extracts items `start..end` along the
    /// batch axis — the primitive behind mini-batching.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range bounds.
    pub fn slice_first_axis(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dims()[0];
        if start > end || end > n {
            return Err(TensorError::InvalidArgument(format!(
                "slice [{start}, {end}) out of range for first axis of size {n}"
            )));
        }
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * inner..end * inner].to_vec(), &dims)
    }

    /// Concatenates tensors along the first axis.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty or trailing dimensions differ.
    pub fn concat_first_axis(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?;
        let tail = &first.dims()[1..];
        let mut total = 0;
        for p in parts {
            if p.shape.rank() == 0 || &p.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            total += p.dims()[0];
        }
        let mut dims = first.dims().to_vec();
        dims[0] = total;
        let mut data = Vec::with_capacity(Shape::new(&dims).volume());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(data, &dims)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} {:?}", self.shape, &self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 0.0);
        assert_eq!(t.as_slice().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn randn_deterministic_by_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[4, 4], 1.0, &mut r1);
        let b = Tensor::randn(&[4, 4], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_scales_std() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        let var = t.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[3.0, 4.0, 5.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn row_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.row_mut(0).unwrap()[1] = 9.0;
        assert_eq!(t.get(&[0, 1]).unwrap(), 9.0);
    }

    #[test]
    fn slice_first_axis_extracts_batch() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 2, 2]).unwrap();
        let s = t.slice_first_axis(1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.as_slice()[0], 4.0);
        assert!(t.slice_first_axis(2, 4).is_err());
    }

    #[test]
    fn concat_first_axis_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let a = t.slice_first_axis(0, 1).unwrap();
        let b = t.slice_first_axis(1, 3).unwrap();
        let joined = Tensor::concat_first_axis(&[&a, &b]).unwrap();
        assert_eq!(joined, t);
    }

    #[test]
    fn concat_rejects_mismatched_tail() {
        let a = Tensor::zeros(&[1, 3]);
        let b = Tensor::zeros(&[1, 4]);
        assert!(Tensor::concat_first_axis(&[&a, &b]).is_err());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 7.5);
    }
}
