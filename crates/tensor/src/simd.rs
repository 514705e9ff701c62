//! The workspace's one SIMD backend detector.
//!
//! Two kernel families have a specialisation beside their portable form:
//! the GEMM micro-kernel of [`crate::linalg`] (the same safe body compiled
//! a second time for AVX2) and the packed binary-HD kernels of
//! `fhdnn_hdc::simd` (`std::arch` AVX2/NEON). Both ask [`backend`], which
//! decides **once** per process behind a [`std::sync::OnceLock`]:
//!
//! - `FHDNN_NO_SIMD=1` in the environment forces the scalar backend
//!   (the CI matrix runs a full test leg this way);
//! - otherwise `x86_64` uses AVX2 iff `is_x86_feature_detected!` says
//!   the CPU has it;
//! - `aarch64` always uses NEON (a mandatory architecture feature);
//! - everything else falls back to scalar.
//!
//! Every backend computes bit-identical results in both families, so the
//! switch changes speed and nothing else.

use std::sync::OnceLock;

/// Which kernel backend this process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The portable code, as the baseline target compiles it.
    Scalar,
    /// AVX2, present on this CPU.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// NEON.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// The backend of this process: [`Backend::Avx2`] is returned only after
/// runtime detection found the feature, which is what every `unsafe` call
/// of a `#[target_feature]` kernel in the workspace rests on. The first
/// call reads the environment, which allocates when the variable is set;
/// a caller that counts allocations asks once before it starts counting.
#[must_use]
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

fn detect() -> Backend {
    // Miri interprets MIR and has no model for AVX2/NEON intrinsics;
    // the scalar oracle is the only backend it can execute, and it is
    // exactly the backend whose memory behaviour we want audited.
    if cfg!(miri) || force_scalar() {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return Backend::Neon;
    #[cfg(not(target_arch = "aarch64"))]
    Backend::Scalar
}

fn force_scalar() -> bool {
    std::env::var_os("FHDNN_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Name of the active backend (`"avx2"`, `"neon"` or `"scalar"`) —
/// decided once per process, surfaced for logs and the parity suite.
#[must_use]
pub fn active_backend() -> &'static str {
    match backend() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2",
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => "neon",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_reported() {
        assert!(["scalar", "avx2", "neon"].contains(&active_backend()));
    }
}
