//! Figure 5: impact of parametric variation on the evaluation chip.
//!
//! * **5a** — histogram of per-cluster `VddMIN` for one representative
//!   chip (paper: values span ≈0.46–0.58 V; the maximum becomes the
//!   chip's `VddNTV`).
//! * **5b** — per-cycle timing error rate versus frequency, one curve
//!   per cluster (the slowest core of each of the 36 clusters), at the
//!   designated `VddNTV`.

use crate::chip0;
use crate::output::{f, sci, TextTable};
use accordion_stats::histogram::Histogram;
use accordion_varius::params::VariationParams;

/// Builds the Figure 5a histogram from the representative chip.
pub fn fig5a_histogram() -> Histogram {
    let chip = chip0();
    let mut h = Histogram::new(0.44, 0.64, 10);
    h.extend(chip.cluster_vddmin_v().iter().copied());
    h
}

/// Renders Figure 5a.
pub fn fig5a_report() -> String {
    let chip = chip0();
    let h = fig5a_histogram();
    let mut t = TextTable::new(["VddMIN bin (V)", "clusters"]);
    for (center, count) in h.iter() {
        let (lo, hi) = (center - 0.01, center + 0.01);
        t.row([format!("{lo:.2}-{hi:.2}"), count.to_string()]);
    }
    format!(
        "Figure 5a — per-cluster VddMIN histogram (chip 0)\nchip VddNTV = {:.3} V\n{}",
        chip.vdd_ntv_v(),
        t.render()
    )
}

/// The Figure 5b curves: for each cluster, `(f_ghz, perr)` samples of
/// the slowest core's error-rate curve at `VddNTV`, read from the
/// chip's timing columns.
pub fn fig5b_curves() -> Vec<Vec<(f64, f64)>> {
    let chip = chip0();
    let timing = &chip.sample().timing;
    let params = VariationParams::default();
    let n = chip.topology().num_clusters();
    // One task per cluster curve; cluster order is preserved.
    accordion_pool::par_map_indexed(n, |c| {
        let slowest = timing
            .cluster_cores(c)
            .nth(timing.cluster_slowest_core(c, params.perr_safe_target))
            .expect("the slowest member is a member");
        let mut curve = Vec::new();
        let mut f_ghz = 0.05;
        while f_ghz <= 1.5001 {
            curve.push((f_ghz, slowest.perr(f_ghz)));
            f_ghz += 0.05;
        }
        curve
    })
}

/// Per-cluster safe frequencies at `VddNTV` — the slowdown summary the
/// paper derives from Figure 5b.
pub fn cluster_safe_frequencies() -> Vec<f64> {
    let chip = chip0();
    let n = chip.topology().num_clusters();
    (0..n)
        .map(|c| chip.cluster_safe_f_ghz(accordion_chip::topology::ClusterId(c)))
        .collect()
}

/// Renders Figure 5b (one sampled row per cluster for readability,
/// plus the full CSV available via [`fig5b_csv`]).
pub fn fig5b_report() -> String {
    let fs = cluster_safe_frequencies();
    let mut t = TextTable::new(["cluster", "safe f (GHz)", "Perr@0.8GHz", "Perr@1.0GHz"]);
    let curves = fig5b_curves();
    for (c, curve) in curves.iter().enumerate() {
        let p08 = curve
            .iter()
            .find(|(f, _)| (*f - 0.8).abs() < 1e-9)
            .unwrap()
            .1;
        let p10 = curve
            .iter()
            .find(|(f, _)| (*f - 1.0).abs() < 1e-9)
            .unwrap()
            .1;
        t.row([c.to_string(), f(fs[c]), sci(p08), sci(p10)]);
    }
    let lo = fs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = fs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "Figure 5b — per-cluster timing-error-rate curves at VddNTV\n\
         safe-f range across clusters: {lo:.3}-{hi:.3} GHz \
         (slowdown {:.2}-{:.2}x vs the 1 GHz NTV nominal)\n{}",
        1.0 - hi,
        1.0 - lo,
        t.render()
    )
}

/// Full Figure 5b data as CSV (`f_ghz` column plus one per cluster).
pub fn fig5b_csv() -> String {
    let curves = fig5b_curves();
    let mut header = vec!["f_ghz".to_string()];
    header.extend((0..curves.len()).map(|c| format!("cluster{c}")));
    let mut t = TextTable::new(header);
    for i in 0..curves[0].len() {
        let mut row = vec![f(curves[0][i].0)];
        row.extend(curves.iter().map(|c| sci(c[i].1)));
        t.row(row);
    }
    t.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_band_matches_paper() {
        let chip = chip0();
        let vs = chip.cluster_vddmin_v();
        let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Paper: 0.46–0.58 V; our calibration sits within ±0.04 V.
        assert!(lo > 0.44 && lo < 0.56, "lo={lo}");
        assert!(hi > 0.54 && hi < 0.66, "hi={hi}");
        assert_eq!(fig5a_histogram().count(), 36);
    }

    #[test]
    fn fig5b_curves_rise_to_one() {
        for curve in fig5b_curves() {
            let last = curve.last().unwrap();
            assert!(last.1 > 0.999, "Perr must saturate by 1.5 GHz");
            for w in curve.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-15, "Perr monotone in f");
            }
        }
    }

    #[test]
    fn majority_of_clusters_below_nominal_at_low_perr() {
        // Paper: at Perr in [1e-16, 1e-12] the majority of cores
        // cannot operate at the 1 GHz NTV nominal.
        let fs = cluster_safe_frequencies();
        let below = fs.iter().filter(|f| **f < 1.0).count();
        assert!(below * 2 > fs.len(), "{below}/36 clusters below nominal");
    }

    #[test]
    fn safe_f_spread_is_wide() {
        let fs = cluster_safe_frequencies();
        let lo = fs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = fs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi / lo > 1.5, "spread {hi}/{lo}");
    }

    #[test]
    fn csv_has_37_columns() {
        let csv = fig5b_csv();
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 37);
    }
}
