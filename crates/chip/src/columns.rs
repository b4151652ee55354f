//! Columnar chip evaluation: precomputed selection order, prefix
//! operating limits, and per-supply timing contexts.
//!
//! The sweep drivers (fig6/fig7 pareto extraction, `/v1/sweep`) ask
//! the same chip thousands of structurally-identical questions: *pick
//! the best `n` clusters, what frequency binds them at this error
//! rate, what does that cost?* The object path answers each question
//! from scratch — [`ClusterSelection::select`] re-sorts all clusters
//! with an efficiency comparator that re-prices power on every
//! comparison, and each frequency query re-inverts the slow-tail
//! quantile per cluster.
//!
//! [`ChipColumns`] hoists everything that depends only on the chip:
//!
//! * per-cluster energy efficiencies, priced **once** (the legacy
//!   comparator evaluated them per comparison — ~2·n·log n power-model
//!   walks per selection);
//! * the efficiency-descending cluster order, sorted **once** — every
//!   selection of `n` clusters is a prefix of it;
//! * prefix-minimum safe frequencies, so `selection_prefix(n)` is two
//!   array reads;
//! * the chip's [`TimingColumns`], so binding-frequency queries are
//!   one quantile inversion plus flat `1/(μ+zσ)` passes.
//!
//! Everything is bit-identical to the object path: efficiencies are
//! pure functions (same bits each evaluation), the stable sort runs
//! the same comparator on the same values (same permutation), and the
//! prefix-min chain is the same `f64::min` fold the legacy selection
//! performs. `crates/chip/tests/columns_props.rs` pins this over
//! random populations and operating points.

use crate::chip::Chip;
use crate::selection::ClusterSelection;
use crate::topology::ClusterId;
use accordion_varius::columns::TimingColumns;

/// Per-chip invariants of the energy-efficiency selection policy,
/// computed once and reused across every (size, cluster-count) cell of
/// a sweep.
#[derive(Debug, Clone)]
pub struct ChipColumns {
    /// Per-core timing at the chip's `VddNTV`.
    timing: TimingColumns,
    /// Clusters in efficiency-descending order: every selection of `n`
    /// is `order[..n]`.
    order: Vec<ClusterId>,
    /// `prefix_safe_f_ghz[n-1]` = binding safe frequency of
    /// `order[..n]`, accumulated with the same `f64::min` fold the
    /// legacy selection uses.
    prefix_safe_f_ghz: Vec<f64>,
}

impl ChipColumns {
    /// Prices and orders the chip's clusters once.
    pub fn build(chip: &Chip) -> Self {
        let total = chip.topology().num_clusters();
        let efficiency: Vec<f64> = (0..total)
            .map(|c| chip.cluster_efficiency(ClusterId(c)))
            .collect();
        let mut order: Vec<ClusterId> = (0..total).map(ClusterId).collect();
        // Same comparator as `ClusterSelection::select`'s
        // EnergyEfficiency arm, on the same (pure-function) values;
        // stable sort ⇒ the same permutation.
        order.sort_by(|a, b| {
            efficiency[b.0]
                .partial_cmp(&efficiency[a.0])
                .expect("efficiencies are finite")
        });
        let mut prefix_safe_f_ghz = Vec::with_capacity(total);
        let mut f_min = f64::INFINITY;
        for &c in &order {
            f_min = f_min.min(chip.cluster_safe_f_ghz(c));
            prefix_safe_f_ghz.push(f_min);
        }
        Self {
            timing: chip.sample().timing.clone(),
            order,
            prefix_safe_f_ghz,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.order.len()
    }

    /// Clusters in efficiency-descending order.
    pub fn efficiency_order(&self) -> &[ClusterId] {
        &self.order
    }

    /// The per-core timing columns at the chip's `VddNTV`.
    pub fn timing(&self) -> &TimingColumns {
        &self.timing
    }

    /// Binding safe frequency of the best `n` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the cluster count.
    pub fn safe_f_ghz(&self, n: usize) -> f64 {
        assert!(n > 0, "selection must be non-empty");
        self.prefix_safe_f_ghz[n - 1]
    }

    /// The energy-efficiency selection of `n` clusters — identical to
    /// `ClusterSelection::select(chip, n, EnergyEfficiency)`, served
    /// from the precomputed order in O(n).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the cluster count.
    pub fn selection_prefix(&self, n: usize) -> ClusterSelection {
        ClusterSelection::from_parts(self.order[..n].to_vec(), self.safe_f_ghz(n))
    }

    /// Binding frequency of the best `n` clusters at per-cycle error
    /// rate `perr` — bit-identical to
    /// [`ClusterSelection::f_for_perr_ghz`] on the same selection,
    /// with the quantile inversion hoisted to once per call.
    pub fn f_for_perr_ghz(&self, n: usize, perr: f64) -> f64 {
        self.timing
            .min_frequency_for_perr_over(self.order[..n].iter().map(|c| c.0), perr)
    }
}

/// One chip's timing context at one supply: the per-core timing
/// columns and the chip-wide safe frequency — everything a sweep can
/// reuse across grid cells that share a `Vdd`.
#[derive(Debug, Clone)]
pub struct OperatingTimings {
    vdd_v: f64,
    columns: TimingColumns,
    f_safe_ghz: f64,
}

impl OperatingTimings {
    /// Derives the chip's timing at `vdd_v`: the chip's own columns
    /// when `vdd_v` is its designated `VddNTV`, otherwise re-derived
    /// from the variation sample at `vdd_v`.
    pub fn at(chip: &Chip, vdd_v: f64) -> Self {
        let params = chip.variation_params();
        let ntv = &chip.sample().timing;
        let columns = if vdd_v == chip.vdd_ntv_v() {
            ntv.clone()
        } else {
            ntv.at_supply(chip.freq_model(), params, vdd_v, &chip.sample().variation)
        };
        // One `SafeFreq` flight event per cluster, once per operating
        // supply instead of once per grid cell.
        let f_safe_ghz = (0..columns.num_clusters())
            .map(|c| columns.cluster_safe_f_ghz(c, params))
            .fold(f64::INFINITY, f64::min);
        Self {
            vdd_v,
            columns,
            f_safe_ghz,
        }
    }

    /// The supply this context was derived at, volts.
    pub fn vdd_v(&self) -> f64 {
        self.vdd_v
    }

    /// Every core's timing at [`Self::vdd_v`].
    pub fn columns(&self) -> &TimingColumns {
        &self.columns
    }

    /// Chip-wide safe frequency: minimum over clusters.
    pub fn f_safe_ghz(&self) -> f64 {
        self.f_safe_ghz
    }

    /// Chip-wide binding frequency at per-cycle error rate `perr`.
    pub fn min_frequency_for_perr(&self, perr: f64) -> f64 {
        self.columns.min_frequency_for_perr(perr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionPolicy;
    use accordion_varius::timing::CoreTiming;

    fn chip() -> Chip {
        Chip::fabricate_small(4).unwrap()
    }

    #[test]
    fn selection_prefix_matches_legacy_select() {
        let chip = chip();
        let cols = ChipColumns::build(&chip);
        for n in 1..=chip.topology().num_clusters() {
            let legacy = ClusterSelection::select(&chip, n, SelectionPolicy::EnergyEfficiency);
            let batched = cols.selection_prefix(n);
            assert_eq!(legacy, batched, "prefix {n}");
            assert_eq!(
                legacy.safe_f_ghz().to_bits(),
                cols.safe_f_ghz(n).to_bits(),
                "safe f bits at {n}"
            );
        }
    }

    #[test]
    fn f_for_perr_matches_legacy_bitwise() {
        let chip = chip();
        let cols = ChipColumns::build(&chip);
        for n in 1..=chip.topology().num_clusters() {
            let legacy = ClusterSelection::select(&chip, n, SelectionPolicy::EnergyEfficiency);
            for perr in [1e-16, 1e-9, 1e-6] {
                assert_eq!(
                    legacy.f_for_perr_ghz(&chip, perr).to_bits(),
                    cols.f_for_perr_ghz(n, perr).to_bits(),
                    "n={n} perr={perr}"
                );
            }
        }
    }

    #[test]
    fn operating_timings_match_legacy_derivation() {
        // The oracle folds fresh single-core models of every cluster's
        // members at the queried supply.
        let chip = chip();
        let params = chip.variation_params();
        let v = &chip.sample().variation;
        let oracle = |vdd_v: f64, perr: f64| {
            (0..chip.topology().num_clusters())
                .flat_map(|c| chip.topology().cores_of(ClusterId(c)))
                .map(|core| {
                    CoreTiming::new(
                        chip.freq_model(),
                        params,
                        vdd_v,
                        v.core_vth_delta_v[core.0],
                        v.core_leff_mult[core.0],
                    )
                    .frequency_for_perr(perr)
                })
                .fold(f64::INFINITY, f64::min)
        };
        for vdd_v in [chip.vdd_ntv_v(), 0.7] {
            let ctx = OperatingTimings::at(&chip, vdd_v);
            assert_eq!(
                ctx.f_safe_ghz().to_bits(),
                oracle(vdd_v, params.perr_safe_target).to_bits()
            );
            for perr in [1e-12, 1e-7] {
                assert_eq!(
                    ctx.min_frequency_for_perr(perr).to_bits(),
                    oracle(vdd_v, perr).to_bits(),
                    "vdd={vdd_v} perr={perr}"
                );
            }
        }
        // At VddNTV the context reuses the chip's own columns.
        let ntv = OperatingTimings::at(&chip, chip.vdd_ntv_v());
        assert_eq!(ntv.columns(), &chip.sample().timing);
    }
}
