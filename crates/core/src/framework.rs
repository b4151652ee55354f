//! The user-facing Accordion framework.

use crate::baseline::StvBaseline;
use crate::mode::{FrequencyPolicy, Mode};
use crate::pareto::{ParetoExtractor, ParetoFront, ParetoPoint};
use accordion_apps::app::RmsApp;
use accordion_apps::harness::FrontSet;
use accordion_chip::chip::Chip;
use accordion_sim::exec::ExecModel;
use std::sync::OnceLock;

/// Accordion: one benchmark bound to one fabricated chip.
///
/// Construction measures the benchmark's quality fronts (the paper's
/// Figure 2/4 sweeps, served from the process-wide
/// [`FrontSet::measured`] cache) and computes the STV baseline; the
/// instance then answers operating-point questions: the
/// iso-execution-time fronts of Figures 6/7 and constrained mode
/// planning. The fronts are extracted once and cached — `plan`,
/// `speculative_f_gain_range` and `best_efficiency` all read the same
/// extraction.
pub struct Accordion {
    chip: Chip,
    app: Box<dyn RmsApp>,
    fronts: FrontSet,
    baseline: StvBaseline,
    iso_fronts: OnceLock<Vec<ParetoFront>>,
}

impl Accordion {
    /// Binds `app` to `chip`, measuring its quality fronts.
    pub fn new(chip: Chip, app: Box<dyn RmsApp>) -> Self {
        let fronts = FrontSet::measured(app.as_ref()).as_ref().clone();
        let baseline = StvBaseline::compute(&chip, app.as_ref(), &ExecModel::paper_default());
        Self {
            chip,
            app,
            fronts,
            baseline,
            iso_fronts: OnceLock::new(),
        }
    }

    /// The fabricated chip.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The bound benchmark.
    pub fn app(&self) -> &dyn RmsApp {
        self.app.as_ref()
    }

    /// The measured quality fronts.
    pub fn fronts(&self) -> &FrontSet {
        &self.fronts
    }

    /// The STV baseline.
    pub fn baseline(&self) -> &StvBaseline {
        &self.baseline
    }

    /// Extracts the four iso-execution-time pareto fronts
    /// (Figures 6/7). Extraction runs once per instance; subsequent
    /// calls clone the cached fronts.
    pub fn iso_time_fronts(&self) -> Vec<ParetoFront> {
        self.iso_fronts
            .get_or_init(|| {
                ParetoExtractor::new(&self.chip, self.app.as_ref(), &self.fronts).extract()
            })
            .clone()
    }

    /// Picks the most energy-efficient iso-time operating point whose
    /// quality stays at or above `quality_min` (normalized to the STV
    /// default) and whose power fits the budget. Returns `None` when
    /// no mode satisfies the constraint.
    pub fn plan(&self, quality_min: f64) -> Option<ParetoPoint> {
        self.iso_time_fronts()
            .into_iter()
            .flat_map(|f| f.points)
            .filter(|p| p.quality_norm >= quality_min && !p.power_limited)
            .max_by(|a, b| {
                a.eff_norm
                    .partial_cmp(&b.eff_norm)
                    .expect("efficiencies are finite")
            })
    }

    /// The speculative frequency gain over safe operation, as a
    /// fraction, across all speculative front points (the paper
    /// reports 8–41 % across chips). Returns `(min, max)` or `None`
    /// if no speculative point exists.
    pub fn speculative_f_gain_range(&self) -> Option<(f64, f64)> {
        let gains: Vec<f64> = self
            .iso_time_fronts()
            .into_iter()
            .filter(|f| f.flavor.policy == FrequencyPolicy::Speculative)
            .flat_map(|f| f.points)
            .map(|p| p.f_ntv_ghz / p.f_safe_ghz - 1.0)
            .collect();
        if gains.is_empty() {
            return None;
        }
        let lo = gains.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((lo, hi))
    }

    /// Best energy-efficiency ratio over STV among budget-respecting
    /// points of `flavor`.
    pub fn best_efficiency(&self, flavor: Mode) -> Option<f64> {
        self.iso_time_fronts()
            .into_iter()
            .find(|f| f.flavor == flavor)
            .and_then(|f| {
                f.points
                    .into_iter()
                    .filter(|p| !p.power_limited)
                    .map(|p| p.eff_norm)
                    .fold(None, |acc: Option<f64>, x| {
                        Some(acc.map_or(x, |a| a.max(x)))
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_apps::srad::Srad;
    use std::sync::OnceLock;

    fn accordion() -> &'static Accordion {
        static CACHE: OnceLock<Accordion> = OnceLock::new();
        CACHE.get_or_init(|| {
            let chip = Chip::fabricate_default(0).unwrap();
            Accordion::new(chip, Box::new(Srad::paper_default()))
        })
    }

    #[test]
    fn planning_respects_quality_floor() {
        let acc = accordion();
        if let Some(p) = acc.plan(0.9) {
            assert!(p.quality_norm >= 0.9);
            assert!(!p.power_limited);
        }
        // An impossible floor yields no plan.
        assert!(acc.plan(10.0).is_none());
    }

    #[test]
    fn lower_quality_floor_never_reduces_efficiency() {
        let acc = accordion();
        let strict = acc.plan(0.95).map(|p| p.eff_norm).unwrap_or(0.0);
        let loose = acc.plan(0.5).map(|p| p.eff_norm).unwrap_or(0.0);
        assert!(loose >= strict);
    }

    #[test]
    fn speculative_gain_in_plausible_band() {
        let acc = accordion();
        let (lo, hi) = acc.speculative_f_gain_range().expect("spec points exist");
        assert!(lo >= 0.0, "gain cannot be negative, lo={lo}");
        assert!(hi <= 1.0, "gain above 100% implausible, hi={hi}");
        assert!(hi > 0.02, "some speculative gain expected, hi={hi}");
    }

    #[test]
    fn headline_efficiency_beats_stv() {
        let acc = accordion();
        let best = Mode::FIGURE_MODES
            .iter()
            .filter_map(|&m| acc.best_efficiency(m))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 1.0, "best efficiency ratio {best}");
    }
}
