//! Columnar (struct-of-arrays) timing evaluation.
//!
//! [`ClusterTiming`] stores one heap object per cluster with one
//! [`CoreTiming`] per member — the right shape for building a chip,
//! the wrong shape for sweeping one. Evaluating a whole chip at one
//! operating point (`f_safe` of every cluster, the binding frequency
//! of a selection, the speculative frequency at a `Perr` target) walks
//! those objects and re-inverts the shared slow-tail quantile
//! `z = Φ̄⁻¹(…)` once per cluster per query.
//!
//! [`TimingColumns`] flattens a chip's per-core `(μ, σ)` pairs into
//! two contiguous `Vec<f64>` columns with CSR-style cluster offsets,
//! and hoists the `z` inversion to once per `(Ncp, Perr)` query. A
//! per-cluster frequency query is then a flat pass over
//! `1 / (μ[i] + z·σ[i])`, written so LLVM can autovectorize it.
//!
//! # Bit-identity contract
//!
//! Every query here returns **bit-identical** results to the
//! object-walking path in [`crate::timing`]:
//!
//! * `z_for_perr(ncp, perr)` is a pure function — computing it once
//!   and reusing it across clusters changes nothing;
//! * each element evaluates `1.0 / (μ + z·σ)` with the exact operation
//!   order of `CoreTiming::frequency_at_z` (mul, add, div — never
//!   fused);
//! * reductions are `min`, which is associative and commutative over
//!   the non-NaN values produced here, so lane order cannot change the
//!   result. Sums are *never* reassociated by this module.
//!
//! The golden-artifact suite and `crates/chip/tests/columns_props.rs`
//! pin this contract.

use crate::timing::{ClusterTiming, CoreTiming};

/// Flattened per-core timing of one chip at one supply: SoA columns
/// plus CSR cluster offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingColumns {
    /// Mean critical-path delay per core, ns (all clusters
    /// concatenated in cluster order).
    mu_ns: Vec<f64>,
    /// Path-delay sigma per core, ns.
    sigma_ns: Vec<f64>,
    /// Critical-path count per core.
    ncp: Vec<usize>,
    /// `cluster_ptr[c]..cluster_ptr[c + 1]` is cluster `c`'s core
    /// range within the columns.
    cluster_ptr: Vec<usize>,
    /// The shared critical-path count when every core agrees — the
    /// common case, which enables the one-inversion-per-query hoist.
    uniform_ncp: Option<usize>,
}

impl TimingColumns {
    /// Flattens per-cluster timing objects into columns.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty.
    pub fn from_clusters(clusters: &[ClusterTiming]) -> Self {
        assert!(!clusters.is_empty(), "need at least one cluster");
        let total: usize = clusters.iter().map(|c| c.cores().len()).sum();
        let mut mu_ns = Vec::with_capacity(total);
        let mut sigma_ns = Vec::with_capacity(total);
        let mut ncp = Vec::with_capacity(total);
        let mut cluster_ptr = Vec::with_capacity(clusters.len() + 1);
        cluster_ptr.push(0);
        for cluster in clusters {
            for core in cluster.cores() {
                mu_ns.push(core.mean_delay_ns());
                sigma_ns.push(core.sigma_delay_ns());
                ncp.push(core.critical_paths());
            }
            cluster_ptr.push(mu_ns.len());
        }
        let first = ncp[0];
        let uniform_ncp = ncp.iter().all(|&n| n == first).then_some(first);
        Self {
            mu_ns,
            sigma_ns,
            ncp,
            cluster_ptr,
            uniform_ncp,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.cluster_ptr.len() - 1
    }

    /// Total core count across all clusters.
    pub fn num_cores(&self) -> usize {
        self.mu_ns.len()
    }

    /// The slow-tail quantile shared by every core, when all cores
    /// assume the same critical-path count. This is the expensive half
    /// of a frequency query (`inv_cdf`); callers sweeping many
    /// clusters at one `Perr` hoist it here once.
    pub fn shared_z_for_perr(&self, perr_target: f64) -> Option<f64> {
        self.uniform_ncp
            .map(|ncp| CoreTiming::z_for_perr(ncp, perr_target))
    }

    /// Core range of one cluster.
    #[inline]
    fn cluster_range(&self, cluster: usize) -> std::ops::Range<usize> {
        self.cluster_ptr[cluster]..self.cluster_ptr[cluster + 1]
    }

    /// Minimum member frequency of `cluster` at a pre-hoisted `z` —
    /// bit-identical to folding `CoreTiming::frequency_at_z` over
    /// the members.
    pub fn cluster_frequency_at_z(&self, cluster: usize, z: f64) -> f64 {
        let r = self.cluster_range(cluster);
        min_inv_affine(&self.mu_ns[r.clone()], &self.sigma_ns[r], z)
    }

    /// Frequency at which `cluster`'s slowest member sees per-cycle
    /// error rate `perr_target` — bit-identical to
    /// [`ClusterTiming::frequency_for_perr`].
    pub fn cluster_frequency_for_perr(&self, cluster: usize, perr_target: f64) -> f64 {
        let r = self.cluster_range(cluster);
        let ncp = self.ncp[r.start];
        if self.ncp[r.clone()].iter().all(|&n| n == ncp) {
            let z = CoreTiming::z_for_perr(ncp, perr_target);
            min_inv_affine(&self.mu_ns[r.clone()], &self.sigma_ns[r], z)
        } else {
            // Mixed path counts: per-core inversion, like the legacy
            // slow path.
            let mut f_min = f64::INFINITY;
            for i in r {
                let z = CoreTiming::z_for_perr(self.ncp[i], perr_target);
                let f = 1.0 / (self.mu_ns[i] + z * self.sigma_ns[i]);
                f_min = f_min.min(f);
            }
            f_min
        }
    }

    /// The chip-wide binding frequency at `perr_target`: minimum over
    /// all clusters, with the `z` inversion hoisted to once per call.
    /// Bit-identical to folding `frequency_for_perr` over clusters.
    pub fn min_frequency_for_perr(&self, perr_target: f64) -> f64 {
        self.min_frequency_for_perr_over(0..self.num_clusters(), perr_target)
    }

    /// The binding frequency of a cluster subset at `perr_target`
    /// (iterated in the order given — `min` makes order irrelevant to
    /// the bits, but the contract is easiest to state this way).
    pub fn min_frequency_for_perr_over(
        &self,
        clusters: impl IntoIterator<Item = usize>,
        perr_target: f64,
    ) -> f64 {
        match self.shared_z_for_perr(perr_target) {
            Some(z) => clusters
                .into_iter()
                .map(|c| self.cluster_frequency_at_z(c, z))
                .fold(f64::INFINITY, f64::min),
            None => clusters
                .into_iter()
                .map(|c| self.cluster_frequency_for_perr(c, perr_target))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Index (within the cluster) of the member binding the cluster's
    /// frequency at `perr_target` — the first member attaining the
    /// minimum, matching [`ClusterTiming::slowest_core`]'s strict
    /// `<` first-wins scan.
    pub fn cluster_slowest_core(&self, cluster: usize, perr_target: f64) -> usize {
        let r = self.cluster_range(cluster);
        let mut slowest = 0;
        let mut f_min = f64::INFINITY;
        for (i, idx) in r.enumerate() {
            let z = match self.uniform_ncp {
                // One shared inversion would be hoistable here too, but
                // this query runs once per cluster, not per grid cell.
                Some(ncp) => CoreTiming::z_for_perr(ncp, perr_target),
                None => CoreTiming::z_for_perr(self.ncp[idx], perr_target),
            };
            let f = 1.0 / (self.mu_ns[idx] + z * self.sigma_ns[idx]);
            if f < f_min {
                f_min = f;
                slowest = i;
            }
        }
        slowest
    }
}

/// The elementwise kernel: `min over i of 1 / (mu[i] + z * sigma[i])`,
/// written so LLVM can autovectorize it. Per-element IEEE-754
/// mul/add/div (never fused), and a `min` reduction whose result is
/// an exact element of the input — association order cannot change
/// which value is the minimum.
fn min_inv_affine(mu: &[f64], sigma: &[f64], z: f64) -> f64 {
    debug_assert_eq!(mu.len(), sigma.len());
    mu.iter()
        .zip(sigma)
        .map(|(&m, &s)| 1.0 / (m + z * s))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VariationParams;
    use accordion_vlsi::freq::FreqModel;
    use accordion_vlsi::tech::Technology;

    fn fixture_clusters() -> (Vec<ClusterTiming>, VariationParams) {
        let tech = Technology::node_11nm();
        let fm = FreqModel::calibrate(&tech);
        let p = VariationParams::default();
        // Three clusters of four cores with distinct corners.
        let clusters = (0..3)
            .map(|c| {
                let cores = (0..4)
                    .map(|i| {
                        let dv = -0.02 + 0.013 * (c * 4 + i) as f64;
                        let lm = 0.97 + 0.011 * i as f64;
                        CoreTiming::new(&fm, &p, 0.55, dv, lm)
                    })
                    .collect();
                ClusterTiming::new(cores)
            })
            .collect();
        (clusters, p)
    }

    #[test]
    fn columns_match_object_path_bitwise() {
        let (clusters, params) = fixture_clusters();
        let cols = TimingColumns::from_clusters(&clusters);
        assert_eq!(cols.num_clusters(), 3);
        assert_eq!(cols.num_cores(), 12);
        for perr in [params.perr_safe_target, 1e-9, 1e-6, 0.5] {
            for (c, cluster) in clusters.iter().enumerate() {
                assert_eq!(
                    cols.cluster_frequency_for_perr(c, perr).to_bits(),
                    cluster.frequency_for_perr(perr).to_bits(),
                    "cluster {c} at perr {perr}"
                );
            }
            let legacy_min = clusters
                .iter()
                .map(|t| t.frequency_for_perr(perr))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                cols.min_frequency_for_perr(perr).to_bits(),
                legacy_min.to_bits()
            );
        }
    }

    #[test]
    fn hoisted_z_matches_per_cluster_inversion() {
        let (clusters, _) = fixture_clusters();
        let cols = TimingColumns::from_clusters(&clusters);
        let z = cols.shared_z_for_perr(1e-12).expect("uniform ncp");
        for (c, cluster) in clusters.iter().enumerate() {
            assert_eq!(
                cols.cluster_frequency_at_z(c, z).to_bits(),
                cluster.frequency_for_perr(1e-12).to_bits()
            );
        }
    }

    #[test]
    fn slowest_core_matches_object_path() {
        let (clusters, params) = fixture_clusters();
        let cols = TimingColumns::from_clusters(&clusters);
        for (c, cluster) in clusters.iter().enumerate() {
            let by_cols = cols.cluster_slowest_core(c, params.perr_safe_target);
            let legacy = cluster.slowest_core(&params);
            assert!(
                std::ptr::eq(legacy, &cluster.cores()[by_cols]),
                "cluster {c}: slowest index {by_cols} disagrees"
            );
        }
    }

    #[test]
    fn subset_min_is_order_invariant() {
        let (clusters, _) = fixture_clusters();
        let cols = TimingColumns::from_clusters(&clusters);
        let a = cols.min_frequency_for_perr_over([0usize, 2], 1e-8);
        let b = cols.min_frequency_for_perr_over([2usize, 0], 1e-8);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
