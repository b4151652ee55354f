//! Property-based bit-identity proof for the columnar evaluation
//! layer: over random populations (fabrication seeds) and random
//! operating points (cluster-count, `Perr`, supply), every columnar
//! query must return the **same bits** as an independent oracle: fresh
//! single-core `CoreTiming::new` models of each cluster's members at
//! the queried supply, folded with `min`. This is the contract that
//! lets the sweeps read the columns without perturbing a single golden
//! artifact.

use accordion_chip::chip::Chip;
use accordion_chip::columns::{ChipColumns, OperatingTimings};
use accordion_chip::selection::{ClusterSelection, SelectionPolicy};
use accordion_chip::topology::ClusterId;
use accordion_varius::timing::CoreTiming;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small population of distinct fabrication seeds, fabricated once —
/// correlated-sample factorization per chip is too expensive to redo
/// per proptest case.
const POP: usize = 4;

fn population() -> &'static Vec<(Chip, ChipColumns)> {
    static CHIPS: OnceLock<Vec<(Chip, ChipColumns)>> = OnceLock::new();
    CHIPS.get_or_init(|| {
        (0..POP as u64)
            .map(|seed| {
                let chip = Chip::fabricate_small(seed).expect("fabrication");
                let cols = ChipColumns::build(&chip);
                (chip, cols)
            })
            .collect()
    })
}

/// The oracle: `cluster`'s binding frequency at `vdd_v` and `perr`,
/// folded over fresh single-core models of its members.
fn oracle_cluster_f(chip: &Chip, cluster: usize, vdd_v: f64, perr: f64) -> f64 {
    let v = &chip.sample().variation;
    chip.topology()
        .cores_of(ClusterId(cluster))
        .map(|core| {
            CoreTiming::new(
                chip.freq_model(),
                chip.variation_params(),
                vdd_v,
                v.core_vth_delta_v[core.0],
                v.core_leff_mult[core.0],
            )
            .frequency_for_perr(perr)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The oracle's chip-wide binding frequency: minimum over clusters.
fn oracle_chip_f(chip: &Chip, vdd_v: f64, perr: f64) -> f64 {
    (0..chip.topology().num_clusters())
        .map(|c| oracle_cluster_f(chip, c, vdd_v, perr))
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    /// Per-cluster binding frequency: flat columnar pass vs the
    /// per-core oracle at `VddNTV`, bit for bit, across chips and error
    /// targets.
    #[test]
    fn cluster_frequencies_match_object_path(
        chip_idx in 0usize..POP, cluster in 0usize..16, exp in 1i32..17,
    ) {
        let (chip, cols) = &population()[chip_idx];
        let n = chip.topology().num_clusters();
        let c = cluster % n;
        let perr = 10f64.powi(-exp);
        let oracle = oracle_cluster_f(chip, c, chip.vdd_ntv_v(), perr).to_bits();
        prop_assert_eq!(cols.timing().cluster_frequency_for_perr(c, perr).to_bits(), oracle);
        prop_assert_eq!(chip.cluster_f_for_perr_ghz(ClusterId(c), perr).to_bits(), oracle);
    }

    /// Every prefix of the precomputed efficiency order is the legacy
    /// selection: same clusters, same safe-frequency bits.
    #[test]
    fn selection_prefix_matches_legacy_select(chip_idx in 0usize..POP, n in 1usize..16) {
        let (chip, cols) = &population()[chip_idx];
        let n = 1 + (n - 1) % chip.topology().num_clusters();
        let legacy = ClusterSelection::select(chip, n, SelectionPolicy::EnergyEfficiency);
        let batched = cols.selection_prefix(n);
        prop_assert_eq!(&legacy, &batched);
        prop_assert_eq!(legacy.safe_f_ghz().to_bits(), cols.safe_f_ghz(n).to_bits());
    }

    /// Speculative binding frequency of the best-`n` prefix: hoisted
    /// quantile inversion vs per-cluster re-inversion.
    #[test]
    fn prefix_f_for_perr_matches_selection(
        chip_idx in 0usize..POP, n in 1usize..16, exp in 1i32..17,
    ) {
        let (chip, cols) = &population()[chip_idx];
        let n = 1 + (n - 1) % chip.topology().num_clusters();
        let perr = 10f64.powi(-exp);
        let legacy = ClusterSelection::select(chip, n, SelectionPolicy::EnergyEfficiency);
        prop_assert_eq!(
            cols.f_for_perr_ghz(n, perr).to_bits(),
            legacy.f_for_perr_ghz(chip, perr).to_bits(),
        );
    }

    /// A per-supply timing context agrees with the per-core oracle at
    /// the same supply — at the designated `VddNTV` (the reuse branch)
    /// and at re-derived supplies alike.
    #[test]
    fn operating_timings_match_object_fold(
        chip_idx in 0usize..POP, vdd_mv in 460u32..801, exp in 1i32..17, ntv in 0u8..2,
    ) {
        let (chip, _) = &population()[chip_idx];
        let vdd_v = if ntv == 1 { chip.vdd_ntv_v() } else { f64::from(vdd_mv) / 1000.0 };
        let perr = 10f64.powi(-exp);
        let ctx = OperatingTimings::at(chip, vdd_v);
        prop_assert_eq!(
            ctx.min_frequency_for_perr(perr).to_bits(),
            oracle_chip_f(chip, vdd_v, perr).to_bits()
        );
        let safe = chip.variation_params().perr_safe_target;
        prop_assert_eq!(ctx.f_safe_ghz().to_bits(), oracle_chip_f(chip, vdd_v, safe).to_bits());
    }
}
