//! # fhdnn-hdc
//!
//! Hyperdimensional computing (HDC) substrate for the FHDnn reproduction
//! (DAC 2022).
//!
//! HDC represents data as very wide, low-precision vectors whose
//! information content is spread uniformly across dimensions — the
//! *holographic* property the paper leverages for robustness to noise, bit
//! errors and packet loss. This crate implements the paper's HD pipeline:
//!
//! - [`encoder::RandomProjectionEncoder`] — `φ(z) = sign(Φ z)` with `Φ`
//!   rows drawn from the unit sphere (§3.3), plus the Eq. 5 linear
//!   reconstruction that demonstrates information dispersal (Figure 4),
//! - [`model::HdModel`] — class prototypes built by bundling
//!   (`c_k = Σ h_i`), iterative refinement (mispredict ⇒ subtract/add),
//!   cosine-similarity inference, and federated bundling of client models
//!   (§3.4),
//! - [`quantizer`] — the AGC-inspired scale-up/round/scale-down quantizer
//!   that bounds bit-error damage on integer prototypes (§3.5.2),
//! - [`masking`] — partial-information dimension removal (Figure 5),
//! - [`packed`] — bit-packed bipolar hypervectors (1 bit/dim, popcount
//!   similarity) plus the naive `i32` reference path the differential
//!   test suite holds them against,
//! - [`simd`] — runtime-dispatched AVX2/NEON specialisations of the
//!   packed kernels (scalar fallback; `FHDNN_NO_SIMD=1` forces it),
//! - [`ops`] — the classic HD algebra (bind / permute / majority) and
//!   [`id_level`] — the record-based encoder family of the paper's
//!   reference \[10\], for comparison with random projection.
//!
//! # Example
//!
//! ```
//! use fhdnn_hdc::encoder::RandomProjectionEncoder;
//! use fhdnn_hdc::model::HdModel;
//! use fhdnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), fhdnn_hdc::HdcError> {
//! let encoder = RandomProjectionEncoder::new(1024, 16, 42)?;
//! let z = Tensor::ones(&[4, 16]);
//! let h = encoder.encode_batch(&z)?;
//! assert_eq!(h.dims(), &[4, 1024]);
//!
//! let mut model = HdModel::new(3, 1024)?;
//! model.one_shot_train(&h, &[0, 1, 2, 0])?;
//! assert_eq!(model.predict_batch(&h)?.len(), 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: `simd` opts back in for its `std::arch`
// kernels (every block `// SAFETY:`-audited, enforced by `fhdnn lint`);
// the rest of the crate stays unsafe-free.
#![deny(unsafe_code)]

pub mod encoder;
mod error;
pub mod health;
pub mod id_level;
pub mod masking;
pub mod model;
pub mod ops;
pub mod packed;
pub mod quantizer;
#[allow(unsafe_code)]
pub mod simd;

pub use error::HdcError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HdcError>;
