//! Per-chip timing as struct-of-arrays columns.
//!
//! [`TimingColumns`] is the one per-chip timing representation: every
//! core's critical-path delay moments `(μ, σ)` at one supply, in two
//! contiguous `Vec<f64>` columns with CSR-style cluster offsets, plus
//! the chip's one critical-path count `Ncp`. It is derived straight
//! from a chip's variation sample when the chip is generated
//! ([`crate::population`]), and again at any other supply with
//! [`TimingColumns::at_supply`]. The per-path random sigmas depend only
//! on the technology and the variation parameters, so they are computed
//! once per chip, not once per core.
//!
//! The slowest core binds its cluster's frequency (paper Section 6.1).
//! A frequency query inverts the slow-tail quantile `z = Φ̄⁻¹(…)` once
//! per `Perr` and then makes flat passes over `1 / (μ[i] + z·σ[i])`,
//! written so LLVM can autovectorize them. Callers that need single
//! cores read them as [`CoreTiming`]s ([`TimingColumns::cluster_cores`]).
//!
//! # Bit-identity contract
//!
//! Every query returns the same bits as folding the single-core model
//! [`CoreTiming`] over a cluster's members:
//!
//! * each core's `(μ, σ)` comes from the function `CoreTiming::new`
//!   calls, on the same inputs;
//! * `z_for_perr(ncp, perr)` is a pure function, so computing it once
//!   per query instead of once per core changes nothing;
//! * each element evaluates `1.0 / (μ + z·σ)` with the exact operation
//!   order of `CoreTiming::frequency_for_perr` (mul, add, div — never
//!   fused);
//! * reductions are `min`, which is associative and commutative over
//!   the non-NaN values produced here, so lane order cannot change the
//!   result. Sums are *never* reassociated by this module.
//!
//! The unit tests below and `crates/chip/tests/columns_props.rs`
//! compare against fresh `CoreTiming::new` per core at the queried
//! supply; the golden-artifact suite pins the rest.

use crate::params::VariationParams;
use crate::timing::CoreTiming;
use crate::vmap::ChipVariation;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::flight;
use accordion_vlsi::freq::FreqModel;

/// Per-core timing of one chip at one supply: SoA columns plus CSR
/// cluster offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingColumns {
    /// Mean critical-path delay per core, ns (core order, which is
    /// cluster order).
    mu_ns: Vec<f64>,
    /// Path-delay sigma per core, ns.
    sigma_ns: Vec<f64>,
    /// Critical-path count of every core.
    ncp: usize,
    /// `cluster_ptr[c]..cluster_ptr[c + 1]` is cluster `c`'s core
    /// range within the columns.
    cluster_ptr: Vec<usize>,
}

impl TimingColumns {
    /// Derives every core's timing at `vdd_v` from one chip's variation
    /// sample. `core_clusters[i]` is core `i`'s cluster. Cores must be
    /// grouped by cluster in ascending order, as every `SitePlan` lays
    /// them out, so column `i` is core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `core_clusters` is empty, does not have one entry per
    /// core of `variation`, or is not grouped that way.
    pub(crate) fn derive(
        fm: &FreqModel,
        params: &VariationParams,
        vdd_v: f64,
        variation: &ChipVariation,
        core_clusters: &[usize],
    ) -> Self {
        assert!(!core_clusters.is_empty(), "need at least one core");
        assert_eq!(
            core_clusters.len(),
            variation.core_vth_delta_v.len(),
            "one cluster index per core"
        );
        assert!(
            core_clusters[0] == 0
                && core_clusters
                    .windows(2)
                    .all(|w| w[1] == w[0] || w[1] == w[0] + 1),
            "cores must be grouped by cluster in ascending order"
        );
        let mut cluster_ptr = vec![0];
        for (i, w) in core_clusters.windows(2).enumerate() {
            if w[1] != w[0] {
                cluster_ptr.push(i + 1);
            }
        }
        cluster_ptr.push(core_clusters.len());
        Self::with_offsets(fm, params, vdd_v, variation, cluster_ptr)
    }

    /// The same chip re-derived at another supply, reusing this chip's
    /// cluster offsets. `variation` must be the sample these columns
    /// were derived from.
    pub fn at_supply(
        &self,
        fm: &FreqModel,
        params: &VariationParams,
        vdd_v: f64,
        variation: &ChipVariation,
    ) -> Self {
        debug_assert_eq!(variation.core_vth_delta_v.len(), self.num_cores());
        Self::with_offsets(fm, params, vdd_v, variation, self.cluster_ptr.clone())
    }

    fn with_offsets(
        fm: &FreqModel,
        params: &VariationParams,
        vdd_v: f64,
        variation: &ChipVariation,
        cluster_ptr: Vec<usize>,
    ) -> Self {
        let (s_vth, s_leff) = CoreTiming::path_sigmas(fm, params);
        let (mu_ns, sigma_ns) = variation
            .core_vth_delta_v
            .iter()
            .zip(&variation.core_leff_mult)
            .map(|(&dv, &lm)| CoreTiming::delay_moments(fm, vdd_v, dv, lm, s_vth, s_leff))
            .unzip();
        Self {
            mu_ns,
            sigma_ns,
            ncp: params.critical_paths_per_core,
            cluster_ptr,
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

    /// Core range of one cluster.
    #[inline]
    fn cluster_range(&self, cluster: usize) -> std::ops::Range<usize> {
        self.cluster_ptr[cluster]..self.cluster_ptr[cluster + 1]
    }

    /// The members of `cluster` as single-core timing models, in core
    /// order.
    pub fn cluster_cores(&self, cluster: usize) -> impl ExactSizeIterator<Item = CoreTiming> + '_ {
        self.cluster_range(cluster)
            .map(|i| CoreTiming::from_moments(self.mu_ns[i], self.sigma_ns[i], self.ncp))
    }

    /// Minimum member frequency of `cluster` at a pre-computed `z`.
    fn cluster_frequency_at_z(&self, cluster: usize, z: f64) -> f64 {
        let r = self.cluster_range(cluster);
        min_inv_affine(&self.mu_ns[r.clone()], &self.sigma_ns[r], z)
    }

    /// Frequency at which `cluster`'s slowest member sees per-cycle
    /// error rate `perr_target`.
    pub fn cluster_frequency_for_perr(&self, cluster: usize, perr_target: f64) -> f64 {
        self.cluster_frequency_at_z(cluster, CoreTiming::z_for_perr(self.ncp, perr_target))
    }

    /// Safe frequency of `cluster` (its slowest member at
    /// [`VariationParams::perr_safe_target`]), flight-recorded as one
    /// `SafeFreq` event: under a per-cluster track this lands one event
    /// on that cluster's timeline.
    pub fn cluster_safe_f_ghz(&self, cluster: usize, params: &VariationParams) -> f64 {
        let f_ghz = self.cluster_frequency_for_perr(cluster, params.perr_safe_target);
        flight!(SimEvent::SafeFreq { f_ghz });
        f_ghz
    }

    /// The chip-wide binding frequency at `perr_target`: minimum over
    /// all clusters.
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
        let z = CoreTiming::z_for_perr(self.ncp, perr_target);
        clusters
            .into_iter()
            .map(|c| self.cluster_frequency_at_z(c, z))
            .fold(f64::INFINITY, f64::min)
    }

    /// Index (within the cluster) of the member binding the cluster's
    /// frequency at `perr_target`: the first member attaining the
    /// minimum.
    pub fn cluster_slowest_core(&self, cluster: usize, perr_target: f64) -> usize {
        let z = CoreTiming::z_for_perr(self.ncp, perr_target);
        let mut slowest = 0;
        let mut f_min = f64::INFINITY;
        for (i, idx) in self.cluster_range(cluster).enumerate() {
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
    use accordion_vlsi::tech::Technology;

    const CLUSTERS: usize = 3;
    const CORES: usize = 4;

    /// Three clusters of four cores with distinct corners.
    fn fixture() -> (FreqModel, VariationParams, ChipVariation, Vec<usize>) {
        let n = CLUSTERS * CORES;
        let variation = ChipVariation {
            core_vth_delta_v: (0..n).map(|i| -0.02 + 0.013 * i as f64).collect(),
            core_leff_mult: (0..n).map(|i| 0.97 + 0.011 * (i % CORES) as f64).collect(),
            mem_vth_delta_v: Vec::new(),
        };
        (
            FreqModel::calibrate(&Technology::node_11nm()),
            VariationParams::default(),
            variation,
            (0..n).map(|i| i / CORES).collect(),
        )
    }

    /// The oracle: fresh single-core models of `cluster`'s members at
    /// `vdd_v`.
    fn oracle_cores(
        fm: &FreqModel,
        p: &VariationParams,
        v: &ChipVariation,
        cluster: usize,
        vdd_v: f64,
    ) -> Vec<CoreTiming> {
        (cluster * CORES..(cluster + 1) * CORES)
            .map(|i| CoreTiming::new(fm, p, vdd_v, v.core_vth_delta_v[i], v.core_leff_mult[i]))
            .collect()
    }

    fn oracle_frequency(cores: &[CoreTiming], perr: f64) -> f64 {
        cores
            .iter()
            .map(|c| c.frequency_for_perr(perr))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn columns_match_object_path_bitwise() {
        let (fm, p, v, core_clusters) = fixture();
        let ntv = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        for (vdd_v, cols) in [(0.55, ntv.clone()), (0.7, ntv.at_supply(&fm, &p, 0.7, &v))] {
            assert_eq!(cols.num_clusters(), CLUSTERS);
            assert_eq!(cols.num_cores(), CLUSTERS * CORES);
            let oracle: Vec<Vec<CoreTiming>> = (0..CLUSTERS)
                .map(|c| oracle_cores(&fm, &p, &v, c, vdd_v))
                .collect();
            for (c, cores) in oracle.iter().enumerate() {
                assert_eq!(&cols.cluster_cores(c).collect::<Vec<_>>(), cores);
            }
            for perr in [p.perr_safe_target, 1e-9, 1e-6, 0.5] {
                for (c, cores) in oracle.iter().enumerate() {
                    assert_eq!(
                        cols.cluster_frequency_for_perr(c, perr).to_bits(),
                        oracle_frequency(cores, perr).to_bits(),
                        "cluster {c} at vdd {vdd_v}, perr {perr}"
                    );
                }
                let oracle_min = oracle
                    .iter()
                    .map(|cores| oracle_frequency(cores, perr))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(
                    cols.min_frequency_for_perr(perr).to_bits(),
                    oracle_min.to_bits()
                );
            }
        }
    }

    #[test]
    fn rederived_supply_matches_a_fresh_derivation() {
        let (fm, p, v, core_clusters) = fixture();
        let ntv = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        assert_eq!(
            ntv.at_supply(&fm, &p, 0.7, &v),
            TimingColumns::derive(&fm, &p, 0.7, &v, &core_clusters)
        );
    }

    #[test]
    fn hoisted_z_matches_per_cluster_inversion() {
        // One inversion per query over a cluster subset vs one per
        // member core in the oracle.
        let (fm, p, v, core_clusters) = fixture();
        let cols = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        for c in 0..CLUSTERS {
            assert_eq!(
                cols.min_frequency_for_perr_over([c], 1e-12).to_bits(),
                oracle_frequency(&oracle_cores(&fm, &p, &v, c, 0.55), 1e-12).to_bits()
            );
        }
    }

    #[test]
    fn slowest_core_matches_object_path() {
        // The first member attaining the oracle's minimum frequency.
        let (fm, p, v, core_clusters) = fixture();
        let cols = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        for c in 0..CLUSTERS {
            let freqs: Vec<f64> = oracle_cores(&fm, &p, &v, c, 0.55)
                .iter()
                .map(|t| t.safe_frequency_ghz(&p))
                .collect();
            let f_min = freqs.iter().copied().fold(f64::INFINITY, f64::min);
            let first_min = freqs.iter().position(|&f| f == f_min).unwrap();
            assert_eq!(
                cols.cluster_slowest_core(c, p.perr_safe_target),
                first_min,
                "cluster {c}"
            );
        }
    }

    #[test]
    fn cluster_is_bound_by_slowest() {
        let (fm, p, v, core_clusters) = fixture();
        let cols = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        for c in 0..CLUSTERS {
            let slowest = cols
                .cluster_cores(c)
                .nth(cols.cluster_slowest_core(c, p.perr_safe_target))
                .unwrap();
            assert_eq!(
                cols.cluster_safe_f_ghz(c, &p).to_bits(),
                slowest.safe_frequency_ghz(&p).to_bits(),
                "cluster {c}"
            );
        }
    }

    #[test]
    fn subset_min_is_order_invariant() {
        let (fm, p, v, core_clusters) = fixture();
        let cols = TimingColumns::derive(&fm, &p, 0.55, &v, &core_clusters);
        let a = cols.min_frequency_for_perr_over([0usize, 2], 1e-8);
        let b = cols.min_frequency_for_perr_over([2usize, 0], 1e-8);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    #[should_panic(expected = "grouped by cluster")]
    fn interleaved_clusters_are_rejected() {
        let (fm, p, v, _) = fixture();
        let interleaved: Vec<usize> = (0..CLUSTERS * CORES).map(|i| i % CLUSTERS).collect();
        TimingColumns::derive(&fm, &p, 0.55, &v, &interleaved);
    }
}
