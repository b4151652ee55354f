//! Quality-versus-problem-size measurement harness (Figures 2 and 4).
//!
//! For each benchmark the harness sweeps the Accordion input under
//! three scenarios — `Default`, `Drop 1/4`, `Drop 1/2` (Section 6.2) —
//! computing quality against a hyper-accurate reference execution and
//! normalizing both axes to the default Accordion input, exactly as
//! the paper's figures do.
//!
//! A [`FrontSet`] is the one measurement of an app: the fronts of
//! Figures 2 and 4, the Table 3 characterization and the end-to-end
//! validation all read it instead of re-running the sweep. Measuring
//! one runs the hyper-accurate reference, then every (scenario, knob)
//! kernel run of the three fronts in parallel on the
//! [`accordion_pool`] workers; the default input's quality is the
//! Default front's point at the default knob, not a run of its own.

use crate::app::RmsApp;
use crate::config::RunConfig;
use accordion_pool::Memo;
use accordion_stats::interp::PiecewiseLinear;
use std::sync::{Arc, LazyLock};

/// Execution scenario of a front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// All parallel tasks contribute.
    Default,
    /// A uniform fraction of threads is dropped.
    Drop(f64),
}

impl Scenario {
    /// The paper's three scenarios.
    pub const PAPER: [Scenario; 3] = [Scenario::Default, Scenario::Drop(0.25), Scenario::Drop(0.5)];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Scenario::Default => "Default".to_string(),
            Scenario::Drop(f) if (*f - 0.25).abs() < 1e-9 => "Drop 1/4".to_string(),
            Scenario::Drop(f) if (*f - 0.5).abs() < 1e-9 => "Drop 1/2".to_string(),
            Scenario::Drop(f) => format!("Drop {f:.2}"),
        }
    }

    fn config(&self, threads: usize) -> RunConfig {
        match self {
            Scenario::Default => RunConfig::default_run(threads),
            Scenario::Drop(f) => RunConfig::with_drop(threads, *f),
        }
    }
}

/// One measured point of a front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontPoint {
    /// Accordion input value.
    pub knob: f64,
    /// Problem size normalized to the default input's.
    pub size_norm: f64,
    /// Quality against the hyper-accurate reference, un-normalized.
    pub quality: f64,
    /// Quality normalized to the default input's error-free quality.
    pub quality_norm: f64,
}

/// A quality-versus-problem-size front for one benchmark/scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityFront {
    /// Benchmark name.
    pub app: String,
    /// Scenario the front was measured under.
    pub scenario: Scenario,
    /// Measured points, ordered by increasing problem size.
    pub points: Vec<FrontPoint>,
}

impl QualityFront {
    /// A piecewise-linear interpolant `size_norm → quality_norm`, used
    /// by the Accordion framework to estimate quality at arbitrary
    /// problem sizes.
    pub fn interpolator(&self) -> PiecewiseLinear {
        PiecewiseLinear::from_samples(
            self.points
                .iter()
                .map(|p| (p.size_norm, p.quality_norm))
                .collect(),
        )
        .expect("fronts have at least one point")
    }
}

/// All three paper scenarios measured against one shared
/// hyper-accurate reference.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontSet {
    /// Benchmark name.
    pub app: String,
    /// Quality of the default input under Default execution (floored
    /// at 1e-9): the divisor of every `quality_norm`.
    pub default_quality: f64,
    /// One front per scenario, in [`Scenario::PAPER`] order.
    pub fronts: Vec<QualityFront>,
}

/// The hyper-accurate reference execution every quality of `app` is
/// measured against (Section 6.2): the hyper knob under Default
/// execution at the app's profiling thread count.
pub fn reference_output(app: &dyn RmsApp) -> Vec<f64> {
    app.run(
        app.hyper_knob(),
        &RunConfig::default_run(app.profile_threads()),
    )
}

impl FrontSet {
    /// Measures the paper's three scenarios for `app`.
    ///
    /// Quality is computed against the hyper-accurate execution
    /// outcome and normalized to the quality at the default Accordion
    /// input under Default execution (Section 6.2); problem size is
    /// normalized to the default input's.
    pub fn measure(app: &dyn RmsApp) -> Self {
        Self::measure_scenarios(app, &Scenario::PAPER)
    }

    /// [`Self::measure`], served from a process-wide cache keyed by
    /// benchmark name (`apps.front_cache`, 16 entries). Front
    /// measurement runs the real kernels — seconds of work that
    /// dominates multi-artifact runs when repeated — and is a pure
    /// function of the app (the kernels are internally seeded), so
    /// every caller can share one measurement. Distinct benchmarks
    /// measure concurrently; concurrent callers of one benchmark wait
    /// for its single measurement.
    pub fn measured(app: &dyn RmsApp) -> Arc<Self> {
        static CACHE: LazyLock<Memo<String, Arc<FrontSet>>> =
            LazyLock::new(|| Memo::new("apps.front_cache", 16));
        CACHE.get_or_insert_with(app.name(), || Arc::new(Self::measure(app)))
    }

    /// Measures an explicit scenario list.
    ///
    /// The hyper-accurate reference runs first; then every (scenario,
    /// knob) pair runs as one task of the ordered
    /// [`accordion_pool::par_map`], keeping only its quality against
    /// the shared reference, so at most [`accordion_pool::jobs`] kernel
    /// outputs are alive at once and the set is the same at any job
    /// count. The default quality is the Default sweep's point at the
    /// default knob; the default knob runs on its own only when no
    /// sweep covers it.
    pub fn measure_scenarios(app: &dyn RmsApp, scenarios: &[Scenario]) -> Self {
        let threads = app.profile_threads();
        let reference = reference_output(app);
        let sweep = app.knob_sweep();
        let mut runs: Vec<(Scenario, f64)> = scenarios
            .iter()
            .flat_map(|&scenario| sweep.iter().map(move |&knob| (scenario, knob)))
            .collect();
        let default_run = (Scenario::Default, app.default_knob());
        let default_at = runs
            .iter()
            .position(|&r| r == default_run)
            .unwrap_or_else(|| {
                runs.push(default_run);
                runs.len() - 1
            });
        let qualities = accordion_pool::par_map(runs, |(scenario, knob)| {
            app.quality(&app.run(knob, &scenario.config(threads)), &reference)
        });
        let q_default = qualities[default_at].max(1e-9);
        let size_default = app.problem_size(app.default_knob());

        let fronts = scenarios
            .iter()
            .zip(qualities.chunks(sweep.len()))
            .map(|(&scenario, qualities)| QualityFront {
                app: app.name().to_string(),
                scenario,
                points: sweep
                    .iter()
                    .zip(qualities)
                    .map(|(&knob, &quality)| FrontPoint {
                        knob,
                        size_norm: app.problem_size(knob) / size_default,
                        quality,
                        quality_norm: quality / q_default,
                    })
                    .collect(),
            })
            .collect();

        Self {
            app: app.name().to_string(),
            default_quality: q_default,
            fronts,
        }
    }

    /// The front for a given scenario, if measured.
    pub fn front(&self, scenario: Scenario) -> Option<&QualityFront> {
        self.fronts.iter().find(|f| f.scenario == scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotspot::Hotspot;

    fn fronts() -> FrontSet {
        FrontSet::measure(&Hotspot::paper_default())
    }

    #[test]
    fn default_front_passes_through_unity() {
        let set = fronts();
        let f = set.front(Scenario::Default).unwrap();
        // The default knob (size_norm = 1) must have quality_norm = 1.
        let interp = f.interpolator();
        assert!((interp.eval(1.0) - 1.0).abs() < 0.02);
    }

    #[test]
    fn quality_increases_with_problem_size_under_default() {
        let set = fronts();
        let f = set.front(Scenario::Default).unwrap();
        let first = f.points.first().unwrap().quality_norm;
        let last = f.points.last().unwrap().quality_norm;
        assert!(last > first);
    }

    #[test]
    fn drop_fronts_sit_below_default() {
        let set = fronts();
        let d0 = set.front(Scenario::Default).unwrap();
        let d4 = set.front(Scenario::Drop(0.25)).unwrap();
        let d2 = set.front(Scenario::Drop(0.5)).unwrap();
        // Compare at each sweep point.
        let mut below_4 = 0;
        let mut below_2 = 0;
        for ((a, b), c) in d0.points.iter().zip(&d4.points).zip(&d2.points) {
            if b.quality_norm <= a.quality_norm + 1e-9 {
                below_4 += 1;
            }
            if c.quality_norm <= b.quality_norm + 1e-9 {
                below_2 += 1;
            }
        }
        // Allow occasional nondeterministic-looking crossings as the
        // paper itself observes for bodytrack, but the trend must hold.
        assert!(
            below_4 >= d0.points.len() - 1,
            "Drop 1/4 must sit below Default"
        );
        assert!(
            below_2 >= d0.points.len() - 2,
            "Drop 1/2 must sit below Drop 1/4"
        );
    }

    #[test]
    fn default_knob_runs_on_its_own_without_a_default_sweep() {
        let full = fronts();
        let drop_only =
            FrontSet::measure_scenarios(&Hotspot::paper_default(), &[Scenario::Drop(0.25)]);
        assert_eq!(
            drop_only.default_quality.to_bits(),
            full.default_quality.to_bits()
        );
        assert_eq!(
            format!("{:?}", drop_only.fronts),
            format!("{:?}", [full.front(Scenario::Drop(0.25)).unwrap()])
        );
    }

    #[test]
    fn scenario_labels() {
        assert_eq!(Scenario::Default.label(), "Default");
        assert_eq!(Scenario::Drop(0.25).label(), "Drop 1/4");
        assert_eq!(Scenario::Drop(0.5).label(), "Drop 1/2");
    }
}
