//! Table 3 characterization: how problem size and quality depend on
//! the Accordion input.
//!
//! The paper classifies each dependence as *linear* or *complex*.
//! We recover the classification empirically: problem size is judged
//! by its power-law exponent against the knob (|slope| ≈ 1 → linear);
//! quality, which saturates rather than following a power law, is
//! judged by how well a straight line in (knob, quality) explains the
//! sweep. Both fits read the measured Default front; nothing here runs
//! a kernel.

use crate::app::RmsApp;
use crate::harness::{FrontSet, Scenario};
use accordion_stats::fit::{line_fit, power_fit};

/// Dependence type of a quantity on the Accordion input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dependence {
    /// Power-law exponent ≈ 1.
    Linear,
    /// Anything else (super-/sub-linear, non-monotone-in-knob, …).
    Complex,
}

impl std::fmt::Display for Dependence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dependence::Linear => write!(f, "linear"),
            Dependence::Complex => write!(f, "complex"),
        }
    }
}

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationRow {
    /// Benchmark name.
    pub app: String,
    /// Accordion input name.
    pub knob: String,
    /// Fitted log-log slope of problem size vs knob.
    pub size_exponent: f64,
    /// Classified size dependence.
    pub size_dependence: Dependence,
    /// R-squared of the straight-line fit of quality vs knob.
    pub quality_r2: f64,
    /// Classified quality dependence.
    pub quality_dependence: Dependence,
}

/// Problem-size classification: power-law exponent of size vs knob;
/// |exponent| ≈ 1 is linear.
fn classify_size(exponent: f64) -> Dependence {
    if (exponent.abs() - 1.0).abs() <= 0.25 {
        Dependence::Linear
    } else {
        Dependence::Complex
    }
}

/// Quality classification: quality saturates rather than following a
/// power law, so "linear" means a straight line in (knob, quality)
/// explains the sweep well; anything the line misses badly — flat,
/// wiggly or strongly convex responses — is complex.
fn classify_quality(r2: f64) -> Dependence {
    if r2 >= 0.75 {
        Dependence::Linear
    } else {
        Dependence::Complex
    }
}

/// Characterizes one benchmark over its knob sweep: a fit over the
/// Default front of [`FrontSet::measured`], whose raw qualities are
/// the sweep's qualities against the hyper-accurate reference.
pub fn characterize(app: &dyn RmsApp) -> CharacterizationRow {
    let set = FrontSet::measured(app);
    let front = set
        .front(Scenario::Default)
        .expect("measured fronts include Default");
    let knobs: Vec<f64> = front.points.iter().map(|p| p.knob).collect();
    let quality: Vec<f64> = front.points.iter().map(|p| p.quality).collect();
    fit(app, &knobs, &quality)
}

/// Fits and classifies size and quality over a knob sweep.
fn fit(app: &dyn RmsApp, knobs: &[f64], quality: &[f64]) -> CharacterizationRow {
    let sizes: Vec<f64> = knobs.iter().map(|&k| app.problem_size(k)).collect();
    let size_exponent = power_fit(knobs, &sizes).slope;
    let quality_r2 = line_fit(knobs, quality).r_squared;
    CharacterizationRow {
        app: app.name().to_string(),
        knob: app.knob_name().to_string(),
        size_exponent,
        size_dependence: classify_size(size_exponent),
        quality_r2,
        quality_dependence: classify_quality(quality_r2),
    }
}

/// Characterizes every registered benchmark (the Table 3
/// reproduction).
pub fn characterize_all() -> Vec<CharacterizationRow> {
    crate::all_apps()
        .iter()
        .map(|a| characterize(a.as_ref()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canneal::Canneal;
    use crate::config::RunConfig;
    use crate::hotspot::Hotspot;
    use crate::x264::X264;

    /// The kernel-running characterization the front-reading one
    /// replaced: its own hyper reference and Default knob sweep.
    fn characterize_by_rerunning(app: &dyn RmsApp) -> CharacterizationRow {
        let threads = app.profile_threads();
        let reference = app.run(app.hyper_knob(), &RunConfig::default_run(threads));
        let cfg = RunConfig::default_run(threads);

        let knobs = app.knob_sweep();
        let quality: Vec<f64> = knobs
            .iter()
            .map(|&k| app.quality(&app.run(k, &cfg), &reference))
            .collect();
        fit(app, &knobs, &quality)
    }

    #[test]
    fn front_fit_matches_rerunning_the_sweep_bit_for_bit() {
        let apps: [&dyn RmsApp; 3] = [
            &Canneal::paper_default(),
            &Hotspot::paper_default(),
            &X264::paper_default(),
        ];
        for app in apps {
            let (row, oracle) = (characterize(app), characterize_by_rerunning(app));
            assert_eq!(row, oracle, "{}", app.name());
            // `==` equates 0.0 and -0.0; the fits must agree in bits.
            assert_eq!(row.size_exponent.to_bits(), oracle.size_exponent.to_bits());
            assert_eq!(row.quality_r2.to_bits(), oracle.quality_r2.to_bits());
        }
    }

    #[test]
    fn canneal_size_is_linear_in_swaps() {
        let row = characterize(&Canneal::paper_default());
        assert_eq!(row.size_dependence, Dependence::Linear, "{row:?}");
    }

    #[test]
    fn hotspot_size_is_linear_in_iterations() {
        let row = characterize(&Hotspot::paper_default());
        assert_eq!(row.size_dependence, Dependence::Linear, "{row:?}");
    }

    #[test]
    fn x264_size_is_complex_in_qp() {
        // Table 3 marks x264's problem-size dependence complex.
        let row = characterize(&X264::paper_default());
        assert_eq!(row.size_dependence, Dependence::Complex, "{row:?}");
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify_size(1.0), Dependence::Linear);
        assert_eq!(classify_size(-1.1), Dependence::Linear);
        assert_eq!(classify_size(2.0), Dependence::Complex);
        assert_eq!(classify_size(0.2), Dependence::Complex);
        assert_eq!(classify_quality(0.95), Dependence::Linear);
        assert_eq!(classify_quality(0.4), Dependence::Complex);
    }
}
