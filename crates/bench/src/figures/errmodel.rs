//! Section 6.2 error-model validation.
//!
//! The paper validates Drop as a close-to-worst-case error model by
//! corrupting per-thread end results under several modes (stuck-at,
//! random flip, inversion) and, for canneal, by inverting the
//! annealing accept decision. For canneal they report: decision
//! inversion degrades quality to 77 % (quarter of threads infected)
//! and 69 % (half), where Drop retains 98 % and 96 %.

use crate::output::{f, TextTable};
use accordion_apps::app::RmsApp;
use accordion_apps::canneal::{Canneal, CannealErrorMode};
use accordion_apps::config::RunConfig;
use accordion_apps::hotspot::Hotspot;
use accordion_sim::fault::{uniform_drop_mask, CorruptionMode};

/// The canneal decision-inversion experiment rows:
/// `(fraction, drop_quality, inversion_quality)`, each quality relative
/// to one error-free run at the same knob.
pub fn canneal_rows() -> Vec<(f64, f64, f64)> {
    let app = Canneal::paper_default();
    let threads = 64;
    let cfg = RunConfig::default_run(threads);
    let knob = app.default_knob();
    let clean = app.run_with_error_mode(
        knob,
        &cfg,
        CannealErrorMode::DropSwaps,
        &vec![false; threads],
    );
    let quality_under = |mode, fraction| {
        let infected = uniform_drop_mask(threads, fraction);
        let bad = app.run_with_error_mode(knob, &cfg, mode, &infected);
        app.quality(&bad, &clean)
    };
    accordion_pool::par_map(vec![0.25, 0.5], |fr| {
        (
            fr,
            quality_under(CannealErrorMode::DropSwaps, fr),
            quality_under(CannealErrorMode::InvertDecision, fr),
        )
    })
}

/// Generic end-result corruption sweep on hotspot: quality relative to
/// the clean run under every [`CorruptionMode`], a quarter of threads
/// infected.
pub fn corruption_sweep() -> Vec<(CorruptionMode, f64)> {
    let app = Hotspot::paper_default();
    let threads = 64;
    let knob = app.default_knob();
    let clean = app.run(knob, &RunConfig::default_run(threads));
    accordion_pool::par_map(CorruptionMode::ALL.to_vec(), |mode| {
        let cfg = RunConfig::with_corruption(threads, 0.25, mode);
        let out = app.run(knob, &cfg);
        (mode, app.quality(&out, &clean))
    })
}

/// Corruption sweep across every benchmark: quality relative to the
/// clean run for each end-result corruption mode, a quarter of
/// threads infected.
pub fn corruption_matrix() -> Vec<(String, Vec<(CorruptionMode, f64)>)> {
    accordion_pool::par_map(accordion_apps::app::all_apps(), |app| {
        let threads = 16; // reduced thread count keeps the sweep fast
        let knob = app.default_knob();
        let clean = app.run(knob, &RunConfig::default_run(threads));
        let rows = CorruptionMode::ALL
            .iter()
            .map(|&mode| {
                let cfg = RunConfig::with_corruption(threads, 0.25, mode);
                let out = app.run(knob, &cfg);
                (mode, app.quality(&out, &clean))
            })
            .collect();
        (app.name().to_string(), rows)
    })
}

/// Renders the error-model validation report.
pub fn errmodel_report() -> String {
    let mut t = TextTable::new(["infected", "Drop quality", "decision-inversion quality"]);
    for (fr, drop_q, inv_q) in canneal_rows() {
        t.row([format!("{}", fr), f(drop_q), f(inv_q)]);
    }
    let mut t2 = TextTable::new(["corruption mode", "hotspot quality vs clean"]);
    for (mode, q) in corruption_sweep() {
        t2.row([format!("{mode:?}"), f(q)]);
    }
    let mut t3 = TextTable::new(["benchmark", "mode", "quality vs clean"]);
    for (app, rows) in corruption_matrix() {
        for (mode, q) in rows {
            t3.row([app.clone(), format!("{mode:?}"), f(q)]);
        }
    }
    format!(
        "Error-model validation (Section 6.2)\n\n\
         canneal decision corruption (paper: inversion 0.77/0.69 vs Drop 0.98/0.96):\n{}\n\
         generic end-result corruption on hotspot, 1/4 of threads infected:\n{}\n\
         corruption matrix across all benchmarks (1/4 infected):\n{}",
        t.render(),
        t2.render(),
        t3.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_worse_than_drop_at_both_fractions() {
        for (fr, drop_q, inv_q) in canneal_rows() {
            assert!(
                inv_q < drop_q,
                "at fraction {fr}: inversion {inv_q} must undercut drop {drop_q}"
            );
        }
    }

    #[test]
    fn drop_quality_stays_high_for_canneal() {
        // Paper: Drop retains 98 % / 96 % for canneal.
        for (fr, drop_q, _) in canneal_rows() {
            assert!(drop_q > 0.85, "Drop at {fr} should stay high, got {drop_q}");
        }
    }

    #[test]
    fn corruption_generally_does_not_fall_below_drop() {
        // Paper: "corruption under these error modes generally does
        // not fall below the corruption under Drop" — i.e., Drop is a
        // close-to-worst-case model. Low-order-bit stuck-at modes are
        // the benign exception (they barely perturb an f64 mantissa),
        // so the assertion is on the majority and on the aggressive
        // modes specifically.
        let sweep = corruption_sweep();
        let drop_q = sweep
            .iter()
            .find(|(m, _)| *m == CorruptionMode::Drop)
            .unwrap()
            .1;
        let at_or_below = sweep.iter().filter(|(_, q)| *q <= drop_q + 0.15).count();
        assert!(
            at_or_below * 3 >= sweep.len() * 2,
            "most corruption modes should hurt at least as much as Drop: {at_or_below}/{}",
            sweep.len()
        );
        for aggressive in [
            CorruptionMode::StuckAt0All,
            CorruptionMode::StuckAt1All,
            CorruptionMode::StuckAt1High,
            CorruptionMode::FlipRandom,
            CorruptionMode::Invert,
        ] {
            let q = sweep.iter().find(|(m, _)| *m == aggressive).unwrap().1;
            assert!(
                q <= drop_q + 0.15,
                "{aggressive:?} quality {q} should not beat Drop {drop_q}"
            );
        }
    }
}
