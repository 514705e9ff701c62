use crate::TensorError;

/// The shape of a tensor: a list of dimension sizes, row-major.
///
/// `Shape` owns its dimension list and pre-computes the element count so
/// repeated volume queries are free.
///
/// # Example
///
/// ```
/// use fhdnn_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    volume: usize,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// A zero-length slice denotes a scalar (volume 1).
    pub fn new(dims: &[usize]) -> Self {
        let volume = dims.iter().product();
        Shape {
            dims: dims.to_vec(),
            volume,
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat (row-major) offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if `index` has the wrong rank or any coordinate is
    /// out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, (&d, &s))) in index
            .iter()
            .zip(self.dims.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= d {
                return Err(TensorError::AxisOutOfRange {
                    axis,
                    rank: self.rank(),
                });
            }
            off += i * s;
        }
        Ok(off)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        let volume = dims.iter().product();
        Shape { dims, volume }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.volume(), 60);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[3, 4, 5]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn offset_computation() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn offset_bounds_checked() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
    }

    #[test]
    fn zero_dim_gives_zero_volume() {
        let s = Shape::new(&[4, 0, 2]);
        assert_eq!(s.volume(), 0);
    }
}
