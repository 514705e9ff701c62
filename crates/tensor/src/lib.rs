//! # fhdnn-tensor
//!
//! A small, dependency-light dense tensor library used as the numeric
//! substrate for the FHDnn reproduction (DAC 2022).
//!
//! The library provides a row-major, contiguous, `f32` [`Tensor`] with the
//! operations needed to build and train convolutional neural networks from
//! scratch (the federated-learning CNN baseline) and to implement
//! hyperdimensional random-projection encoders:
//!
//! - construction and initialization ([`Tensor::zeros`], [`Tensor::randn`],
//!   Kaiming/Xavier schemes in [`init`]),
//! - elementwise arithmetic and mapping ([`ops`]),
//! - matrix multiplication and related linear algebra ([`linalg`]),
//! - reductions and argmax ([`reduce`]),
//! - the workspace's one SIMD backend detector ([`simd`]).
//!
//! # Example
//!
//! ```
//! use fhdnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), fhdnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: `linalg` opts back in for the one call of its
// AVX2-compiled micro-kernel (`// SAFETY:`-audited, enforced by
// `fhdnn lint`); the rest of the crate stays unsafe-free.
#![deny(unsafe_code)]

mod error;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod reduce;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
