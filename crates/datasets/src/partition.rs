//! Federated client partitioning schemes.
//!
//! The paper evaluates both IID and non-IID data distributions over 100
//! clients. This module implements:
//!
//! - [`iid`]: uniform random split,
//! - [`shards`]: the McMahan et al. pathological non-IID split — sort by
//!   label, cut into shards, deal a few shards to each client, so most
//!   clients see only a couple of classes,
//! - [`dirichlet`]: label-distribution skew with concentration `alpha`
//!   (smaller `alpha` ⇒ more skew), the standard modern non-IID benchmark.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Dirichlet, Distribution};

use crate::{DatasetError, Result};

/// How client datasets are drawn from the global pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Uniform random split.
    Iid,
    /// Label-sorted shard split with this many shards per client.
    Shards(usize),
    /// Dirichlet label-skew with concentration alpha.
    Dirichlet(f32),
}

impl Partition {
    /// Splits sample indices among `num_clients` according to the scheme.
    ///
    /// Every sample is assigned to exactly one client.
    ///
    /// # Errors
    ///
    /// Returns an error for zero clients, empty datasets, or infeasible
    /// shard counts.
    pub fn split<R: Rng + ?Sized>(
        &self,
        labels: &[usize],
        num_clients: usize,
        rng: &mut R,
    ) -> Result<Vec<Vec<usize>>> {
        match *self {
            Partition::Iid => iid(labels.len(), num_clients, rng),
            Partition::Shards(spc) => shards(labels, num_clients, spc, rng),
            Partition::Dirichlet(alpha) => dirichlet(labels, num_clients, alpha, rng),
        }
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partition::Iid => write!(f, "iid"),
            Partition::Shards(s) => write!(f, "shards({s})"),
            Partition::Dirichlet(a) => write!(f, "dirichlet({a})"),
        }
    }
}

fn check(n_samples: usize, num_clients: usize) -> Result<()> {
    if num_clients == 0 {
        return Err(DatasetError::InvalidArgument("zero clients".into()));
    }
    if n_samples < num_clients {
        return Err(DatasetError::InvalidArgument(format!(
            "{n_samples} samples cannot cover {num_clients} clients"
        )));
    }
    Ok(())
}

/// Uniform IID split of `n_samples` indices into `num_clients` parts.
///
/// # Errors
///
/// Returns an error for zero clients or too few samples.
pub fn iid<R: Rng + ?Sized>(
    n_samples: usize,
    num_clients: usize,
    rng: &mut R,
) -> Result<Vec<Vec<usize>>> {
    check(n_samples, num_clients)?;
    let mut indices: Vec<usize> = (0..n_samples).collect();
    indices.shuffle(rng);
    let mut out = vec![Vec::new(); num_clients];
    for (i, idx) in indices.into_iter().enumerate() {
        out[i % num_clients].push(idx);
    }
    Ok(out)
}

/// McMahan-style pathological non-IID split: label-sorted shards.
///
/// # Errors
///
/// Returns an error if `shards_per_client == 0` or the shard grid doesn't
/// have enough samples.
pub fn shards<R: Rng + ?Sized>(
    labels: &[usize],
    num_clients: usize,
    shards_per_client: usize,
    rng: &mut R,
) -> Result<Vec<Vec<usize>>> {
    check(labels.len(), num_clients)?;
    if shards_per_client == 0 {
        return Err(DatasetError::InvalidArgument(
            "shards_per_client must be positive".into(),
        ));
    }
    let total_shards = num_clients * shards_per_client;
    if labels.len() < total_shards {
        return Err(DatasetError::InvalidArgument(format!(
            "{} samples cannot fill {total_shards} shards",
            labels.len()
        )));
    }
    // Sort indices by label, cut into equal shards, deal shards randomly.
    let mut by_label: Vec<usize> = (0..labels.len()).collect();
    by_label.sort_by_key(|&i| labels[i]);
    let shard_size = labels.len() / total_shards;
    let mut shard_ids: Vec<usize> = (0..total_shards).collect();
    shard_ids.shuffle(rng);
    let mut out = vec![Vec::new(); num_clients];
    for (pos, shard) in shard_ids.into_iter().enumerate() {
        let client = pos / shards_per_client;
        let start = shard * shard_size;
        // The final shard absorbs the remainder.
        let end = if shard == total_shards - 1 {
            labels.len()
        } else {
            start + shard_size
        };
        out[client].extend_from_slice(&by_label[start..end]);
    }
    Ok(out)
}

/// Dirichlet label-skew split: for each class, the per-client share of its
/// samples is drawn from `Dir(alpha)`.
///
/// # Errors
///
/// Returns an error for non-positive `alpha` or infeasible sizes.
pub fn dirichlet<R: Rng + ?Sized>(
    labels: &[usize],
    num_clients: usize,
    alpha: f32,
    rng: &mut R,
) -> Result<Vec<Vec<usize>>> {
    check(labels.len(), num_clients)?;
    if alpha <= 0.0 || alpha.is_nan() {
        return Err(DatasetError::InvalidArgument(
            "dirichlet alpha must be positive".into(),
        ));
    }
    if num_clients == 1 {
        return Ok(vec![(0..labels.len()).collect()]);
    }
    let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let dir = Dirichlet::new_with_size(alpha, num_clients)
        .map_err(|e| DatasetError::InvalidArgument(format!("dirichlet: {e}")))?;
    let mut out = vec![Vec::new(); num_clients];
    for class in 0..num_classes {
        let mut members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == class).collect();
        members.shuffle(rng);
        let weights: Vec<f32> = dir.sample(rng);
        // Convert weights to cumulative cut points over the member list.
        let mut start = 0usize;
        let mut acc = 0.0f32;
        for (client, &w) in weights.iter().enumerate() {
            acc += w;
            let end = if client == num_clients - 1 {
                members.len()
            } else {
                ((acc * members.len() as f32).round() as usize).min(members.len())
            };
            out[client].extend_from_slice(&members[start..end.max(start)]);
            start = end.max(start);
        }
    }
    Ok(out)
}

/// Mean number of distinct labels per client — a skew diagnostic used in
/// tests and experiment logs (IID ⇒ close to the class count; pathological
/// non-IID ⇒ close to `shards_per_client`).
pub fn mean_labels_per_client(parts: &[Vec<usize>], labels: &[usize]) -> f32 {
    if parts.is_empty() {
        return 0.0;
    }
    let total: usize = parts
        .iter()
        .map(|p| {
            let mut seen: Vec<usize> = p.iter().map(|&i| labels[i]).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        })
        .sum();
    total as f32 / parts.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labels_10_classes(n: usize) -> Vec<usize> {
        (0..n).map(|i| i % 10).collect()
    }

    fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "every sample exactly once");
    }

    #[test]
    fn iid_covers_and_balances() {
        let mut rng = StdRng::seed_from_u64(0);
        let parts = iid(100, 7, &mut rng).unwrap();
        assert_exact_cover(&parts, 100);
        for p in &parts {
            assert!(p.len() == 14 || p.len() == 15);
        }
    }

    #[test]
    fn shards_concentrate_labels() {
        let labels = labels_10_classes(500);
        let mut rng = StdRng::seed_from_u64(1);
        let parts = shards(&labels, 10, 2, &mut rng).unwrap();
        assert_exact_cover(&parts, 500);
        let skewed = mean_labels_per_client(&parts, &labels);
        let mut rng = StdRng::seed_from_u64(1);
        let iid_parts = iid(500, 10, &mut rng).unwrap();
        let uniform = mean_labels_per_client(&iid_parts, &labels);
        assert!(
            skewed < uniform * 0.6,
            "shards {skewed} labels/client vs iid {uniform}"
        );
    }

    #[test]
    fn dirichlet_covers_all_samples() {
        let labels = labels_10_classes(300);
        let mut rng = StdRng::seed_from_u64(2);
        let parts = dirichlet(&labels, 8, 0.3, &mut rng).unwrap();
        assert_exact_cover(&parts, 300);
    }

    #[test]
    fn dirichlet_small_alpha_skews_more() {
        let labels = labels_10_classes(2000);
        let mut rng = StdRng::seed_from_u64(3);
        let skewed = dirichlet(&labels, 10, 0.05, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let smooth = dirichlet(&labels, 10, 100.0, &mut rng).unwrap();
        assert!(
            mean_labels_per_client(&skewed, &labels) < mean_labels_per_client(&smooth, &labels)
        );
    }

    #[test]
    fn partition_enum_dispatch() {
        let labels = labels_10_classes(200);
        let mut rng = StdRng::seed_from_u64(4);
        for p in [
            Partition::Iid,
            Partition::Shards(2),
            Partition::Dirichlet(0.5),
        ] {
            let parts = p.split(&labels, 5, &mut rng).unwrap();
            assert_exact_cover(&parts, 200);
        }
    }

    #[test]
    fn invalid_arguments_rejected() {
        let labels = labels_10_classes(50);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(iid(50, 0, &mut rng).is_err());
        assert!(iid(3, 5, &mut rng).is_err());
        assert!(shards(&labels, 5, 0, &mut rng).is_err());
        assert!(shards(&labels, 30, 2, &mut rng).is_err());
        assert!(dirichlet(&labels, 5, 0.0, &mut rng).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Partition::Iid.to_string(), "iid");
        assert_eq!(Partition::Shards(2).to_string(), "shards(2)");
    }
}
