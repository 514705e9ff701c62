//! Federated hyperparameters — the paper's `E`, `B`, `C` (§4.2).

use crate::{FedError, Result};

/// Which implementation of the binary-HD learner drives
/// `HdTransport::Binary` rounds.
///
/// Both variants run the *same* integer algorithm — `i32` prototype
/// accumulators, sign-of-prototype similarity, identical tie-breaking —
/// and a campaign under either must be bit-identical to the other
/// (`tests/parity.rs` enforces this at several thread counts). The
/// float (`Float`/`Quantized`) transports are unaffected by this
/// switch: they always use the dense `f32` engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HdExecution {
    /// The naive element-wise `i32` oracle
    /// (`fhdnn_hdc::packed::reference`): no packing, no SIMD — slow on
    /// purpose, kept as the differential baseline.
    Reference,
    /// The bit-packed hot path (`fhdnn_hdc::packed::PackedHdModel`):
    /// 1 bit/dim sign rows, popcount similarity, SIMD kernels, and the
    /// packed words serialized directly onto the wire.
    #[default]
    Packed,
}

impl HdExecution {
    /// Short name for experiment logs and CLI round-tripping.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            HdExecution::Reference => "reference",
            HdExecution::Packed => "packed",
        }
    }
}

/// The federated-learning run configuration.
///
/// Field names follow the paper: `E` local epochs, `B` local batch size,
/// `C` participating-client fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlConfig {
    /// Total number of clients `N`.
    pub num_clients: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Local epochs per round (`E`).
    pub local_epochs: usize,
    /// Local batch size (`B`); 0 means full-batch.
    pub batch_size: usize,
    /// Fraction of clients participating each round (`C`).
    pub client_fraction: f32,
    /// Master seed for client sampling and local shuffling.
    pub seed: u64,
    /// Binary-HD engine selection (see [`HdExecution`]); only consulted
    /// by `HdTransport::Binary` rounds.
    pub execution: HdExecution,
}

impl Default for FlConfig {
    /// The paper's unreliable-network setting: `E = 2`, `B = 10`,
    /// `C = 0.2` (§4.3), at reproduction scale (20 clients, 20 rounds).
    fn default() -> Self {
        FlConfig {
            num_clients: 20,
            rounds: 20,
            local_epochs: 2,
            batch_size: 10,
            client_fraction: 0.2,
            seed: 0,
            execution: HdExecution::default(),
        }
    }
}

impl FlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidArgument`] for zero clients/rounds/epochs
    /// or a fraction outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.num_clients == 0 {
            return Err(FedError::InvalidArgument(
                "num_clients must be positive".into(),
            ));
        }
        if self.rounds == 0 {
            return Err(FedError::InvalidArgument("rounds must be positive".into()));
        }
        if self.local_epochs == 0 {
            return Err(FedError::InvalidArgument(
                "local_epochs must be positive".into(),
            ));
        }
        if self.client_fraction <= 0.0
            || self.client_fraction > 1.0
            || self.client_fraction.is_nan()
        {
            return Err(FedError::InvalidArgument(format!(
                "client_fraction must be in (0, 1], got {}",
                self.client_fraction
            )));
        }
        Ok(())
    }

    /// Number of clients selected each round: `max(1, round(C · N))`.
    pub fn participants_per_round(&self) -> usize {
        ((self.client_fraction * self.num_clients as f32).round() as usize)
            .clamp(1, self.num_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_paper_setting() {
        let c = FlConfig::default();
        c.validate().unwrap();
        assert_eq!(c.local_epochs, 2);
        assert_eq!(c.batch_size, 10);
        assert!((c.client_fraction - 0.2).abs() < 1e-6);
    }

    #[test]
    fn participants_rounding() {
        let mut c = FlConfig {
            num_clients: 10,
            client_fraction: 0.25,
            ..FlConfig::default()
        };
        assert_eq!(c.participants_per_round(), 3);
        c.client_fraction = 0.01;
        assert_eq!(c.participants_per_round(), 1, "at least one participant");
        c.client_fraction = 1.0;
        assert_eq!(c.participants_per_round(), 10);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = FlConfig {
            num_clients: 0,
            ..FlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FlConfig {
            client_fraction: 0.0,
            ..FlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FlConfig {
            client_fraction: 1.5,
            ..FlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FlConfig {
            local_epochs: 0,
            ..FlConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
