//! End-to-end validation of the speculative quality model.
//!
//! The iso-time machinery *estimates* speculative quality by reading
//! the measured Drop fronts (Section 6.3's methodology). This module
//! closes the loop without interpolation: it takes a speculative
//! operating point, drives the CC/DC protocol simulation at the
//! point's error rate, converts the per-DC outcomes (abandoned →
//! dropped, completed-infected → corrupted end results) into a kernel
//! run configuration, executes the *real* kernel under it, and
//! compares the measured quality against the front-based estimate.
//! The measured quality is normalized by the same [`FrontSet`] the
//! estimate reads, so the point's kernel and its hyper reference are
//! the only runs here.
//!
//! The error-rate bridge: a thread of `e` cycles is infected with
//! probability `1 − (1 − Perr)^e`. The paper's shorthand `Perr = 1/e`
//! infects ≈63 % of threads; to validate a Drop-`x` quality level the
//! consistent rate is `Perr = −ln(1 − x)/e`, which this module uses.

use crate::pareto::ParetoPoint;
use crate::quality::QualityModel;
use accordion_apps::app::RmsApp;
use accordion_apps::config::RunConfig;
use accordion_apps::harness::{reference_output, FrontSet, Scenario};
use accordion_sim::ccdc::{run_round, CcDcConfig, DcOutcome};
use accordion_sim::exec::ExecModel;
use accordion_stats::rng::SeedStream;

/// Outcome of validating one speculative operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointValidation {
    /// Quality the framework's interpolated model predicts.
    pub estimated_quality: f64,
    /// Quality measured by running the kernel under protocol-derived
    /// error masks.
    pub measured_quality: f64,
    /// Fraction of threads the protocol abandoned (perceived Drop).
    pub dropped_fraction: f64,
    /// Fraction of threads that terminated infected (corrupted data).
    pub infected_fraction: f64,
    /// The per-cycle error rate used in the protocol simulation.
    pub perr_per_cycle: f64,
}

impl PointValidation {
    /// Absolute estimation error of the quality model.
    pub fn estimation_error(&self) -> f64 {
        (self.estimated_quality - self.measured_quality).abs()
    }
}

/// Validates a speculative `point` of `app` by protocol simulation +
/// real kernel execution. `fronts` is the app's measurement: its Drop
/// fronts give the estimate and its default quality normalizes the
/// measured one, so only the hyper reference and the point's own
/// kernel run here.
///
/// # Panics
///
/// Panics if the point carries no error rate (a Safe point).
pub fn validate_point(
    app: &dyn RmsApp,
    fronts: &FrontSet,
    point: &ParetoPoint,
    seed: u64,
) -> PointValidation {
    let quality = QualityModel::from_front_set(fronts);
    validate_with(app, &quality, point, seed, |knob, cfg| {
        let reference = reference_output(app);
        app.quality(&app.run(knob, cfg), &reference) / fronts.default_quality
    })
}

/// [`validate_point`]'s body; `measure` runs the kernel at a knob
/// under the protocol-derived configuration and returns its
/// normalized quality.
fn validate_with(
    app: &dyn RmsApp,
    quality: &QualityModel,
    point: &ParetoPoint,
    seed: u64,
    measure: impl FnOnce(f64, &RunConfig) -> f64,
) -> PointValidation {
    assert!(point.perr > 0.0, "validation needs a speculative point");
    let threads = app.profile_threads();
    let exec = ExecModel::paper_default();

    // Per-thread cycle count at the point's operating conditions,
    // full input scale.
    let w = app
        .full_scale_workload(app.default_knob())
        .scaled(point.size_norm);
    let e_cycles = exec.thread_cycles(&w, w.work_units / point.n_ntv as f64, point.f_ntv_ghz);

    // The Drop level the quality model reads for speculation sets the
    // target infection fraction; derive the consistent per-cycle rate.
    let drop_fraction = match quality.speculative_scenario() {
        Scenario::Drop(f) => f,
        Scenario::Default => 0.25,
    };
    let perr = -f64::ln_1p(-drop_fraction) / e_cycles;

    // Drive the CC/DC protocol: one DC per application thread.
    let cfg = CcDcConfig {
        num_dcs: threads,
        work_cycles: e_cycles.min(1e15) as u64,
        perr_per_cycle: perr.min(1.0),
        // The paper's exhaustive manifestation split (Section 6.2):
        // some infections hang (watchdog → Drop), the rest terminate
        // with corrupted results.
        hang_fraction: 0.5,
        watchdog_timeout_cycles: (2.0 * e_cycles).min(1e15) as u64,
        max_restarts: 0,
        merge_cycles_per_dc: 1_000,
    };
    let mut rng = SeedStream::new(seed).stream("validate", 0);
    let report = run_round(&cfg, &mut rng);

    // Protocol outcomes → kernel error masks.
    let mut drop_mask = vec![false; threads];
    let mut infected = vec![false; threads];
    for (t, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            DcOutcome::Abandoned => drop_mask[t] = true,
            DcOutcome::CompletedInfected => infected[t] = true,
            DcOutcome::Completed => {}
        }
    }
    let dropped_fraction = drop_mask.iter().filter(|&&d| d).count() as f64 / threads as f64;
    let infected_fraction = infected.iter().filter(|&&i| i).count() as f64 / threads as f64;

    // CC quality-limit enforcement (Section 6.2): corrupted
    // terminations whose results would blow the preset degradation
    // limit are treated exactly like hangs — as Drop. Random bit
    // flips on raw f64 end results essentially always trip the limit,
    // so the CC folds the infected set into the dropped set. (The
    // paper's bins: (i) no termination and (ii) excessive degradation
    // both surface as Drop; (iii) tolerable degradation is, by the
    // validated assumption, no worse than Drop.)
    let mut effective_drop = drop_mask.clone();
    for (d, &i) in effective_drop.iter_mut().zip(&infected) {
        *d = *d || i;
    }
    let run_cfg = RunConfig {
        threads,
        drop_mask: effective_drop,
        corruption: None,
        ..RunConfig::default_run(threads)
    };

    // Execute the real kernel at the point's problem size; quality is
    // computed exactly as the fronts were: against the hyper-accurate
    // reference, normalized to the default-input error-free quality.
    let measured_quality = measure(knob_for_size(app, point.size_norm), &run_cfg);

    PointValidation {
        estimated_quality: quality.quality_speculative(point.size_norm),
        measured_quality,
        dropped_fraction,
        infected_fraction,
        perr_per_cycle: perr,
    }
}

/// Finds the knob whose problem size is closest to `size_norm` × the
/// default size (kernels take knobs, not sizes).
///
/// Probing stops at the first exact match: the strict `<` keeps the
/// first knob of least error, and nothing beats an error of zero.
fn knob_for_size(app: &dyn RmsApp, size_norm: f64) -> f64 {
    let target = size_norm * app.problem_size(app.default_knob());
    // Search the sweep plus a dense interpolation between neighbours.
    let sweep = app.knob_sweep();
    let mut best = (f64::INFINITY, app.default_knob());
    for w in sweep.windows(2) {
        for step in 0..=8 {
            let k = w[0] + (w[1] - w[0]) * step as f64 / 8.0;
            let err = (app.problem_size(k) - target).abs();
            if err == 0.0 {
                return k;
            }
            if err < best.0 {
                best = (err, k);
            }
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{FrequencyPolicy, Mode, ProblemScaling};
    use crate::pareto::ParetoExtractor;
    use accordion_apps::hotspot::Hotspot;
    use accordion_chip::chip::Chip;
    use std::sync::OnceLock;

    struct Fx {
        app: Hotspot,
        set: FrontSet,
        quality: QualityModel,
        point: ParetoPoint,
    }

    fn fx() -> &'static Fx {
        static FX: OnceLock<Fx> = OnceLock::new();
        FX.get_or_init(|| {
            let chip = Chip::fabricate_default(0).expect("chip");
            let app = Hotspot::paper_default();
            let set = FrontSet::measure(&app);
            let quality = QualityModel::from_front_set(&set);
            let extractor = ParetoExtractor::new(&chip, &app, &set);
            let point = extractor
                .solve_point(
                    Mode {
                        scaling: ProblemScaling::Still,
                        policy: FrequencyPolicy::Speculative,
                    },
                    1.0,
                )
                .expect("speculative Still point");
            Fx {
                app,
                set,
                quality,
                point,
            }
        })
    }

    #[test]
    fn protocol_produces_the_targeted_error_level() {
        let v = validate_point(&fx().app, &fx().set, &fx().point, 7);
        let total_affected = v.dropped_fraction + v.infected_fraction;
        let target = match fx().quality.speculative_scenario() {
            Scenario::Drop(f) => f,
            Scenario::Default => 0.25,
        };
        assert!(
            (total_affected - target).abs() < 0.15,
            "affected {total_affected} vs target {target}"
        );
    }

    #[test]
    fn quality_model_estimate_is_honest() {
        // The interpolated estimate should sit within a modest band of
        // the measured end-to-end quality — it models hangs as Drop
        // and ignores corrupted-termination, which the paper argues
        // (and our corruption sweep confirms) behaves no better.
        let v = validate_point(&fx().app, &fx().set, &fx().point, 11);
        assert!(
            v.estimation_error() < 0.25,
            "estimate {} vs measured {}",
            v.estimated_quality,
            v.measured_quality
        );
    }

    #[test]
    fn validation_is_reproducible() {
        let a = validate_point(&fx().app, &fx().set, &fx().point, 3);
        let b = validate_point(&fx().app, &fx().set, &fx().point, 3);
        assert_eq!(a, b);
    }

    /// The three-run normalization `validate_point` replaced: its own
    /// hyper reference and default-input run, normalized locally.
    fn validate_by_rerunning(fx: &Fx, seed: u64) -> PointValidation {
        let app = &fx.app;
        validate_with(app, &fx.quality, &fx.point, seed, |knob, cfg| {
            let threads = app.profile_threads();
            let reference = app.run(app.hyper_knob(), &RunConfig::default_run(threads));
            let default_out = app.run(app.default_knob(), &RunConfig::default_run(threads));
            let q_default = app.quality(&default_out, &reference).max(1e-9);
            let out = app.run(knob, cfg);
            app.quality(&out, &reference) / q_default
        })
    }

    #[test]
    fn front_normalization_matches_the_three_run_oracle_bit_for_bit() {
        for seed in [7, 11] {
            let v = validate_point(&fx().app, &fx().set, &fx().point, seed);
            let oracle = validate_by_rerunning(fx(), seed);
            assert_eq!(v, oracle, "seed {seed}");
            // `==` equates 0.0 and -0.0; the qualities must agree in bits.
            assert_eq!(
                v.measured_quality.to_bits(),
                oracle.measured_quality.to_bits()
            );
            assert_eq!(
                v.estimated_quality.to_bits(),
                oracle.estimated_quality.to_bits()
            );
        }
    }

    /// [`knob_for_size`] without the early return: every probe of
    /// every sweep window.
    fn knob_for_size_by_full_scan(app: &dyn RmsApp, size_norm: f64) -> f64 {
        let target = size_norm * app.problem_size(app.default_knob());
        let mut best = (f64::INFINITY, app.default_knob());
        for w in app.knob_sweep().windows(2) {
            for step in 0..=8 {
                let k = w[0] + (w[1] - w[0]) * step as f64 / 8.0;
                let err = (app.problem_size(k) - target).abs();
                if err < best.0 {
                    best = (err, k);
                }
            }
        }
        best.1
    }

    #[test]
    fn knob_search_matches_the_full_scan_for_every_paper_app() {
        for app in accordion_apps::app::all_apps() {
            let app = app.as_ref();
            let size_default = app.problem_size(app.default_knob());
            let sizes = app
                .knob_sweep()
                .into_iter()
                .map(|k| app.problem_size(k) / size_default);
            for size_norm in std::iter::once(1.0).chain(sizes) {
                assert_eq!(
                    knob_for_size(app, size_norm).to_bits(),
                    knob_for_size_by_full_scan(app, size_norm).to_bits(),
                    "{} at size_norm {size_norm}",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn knob_search_recovers_default_size() {
        let app = Hotspot::paper_default();
        let k = knob_for_size(&app, 1.0);
        let size = app.problem_size(k) / app.problem_size(app.default_knob());
        assert!((size - 1.0).abs() < 0.05, "size {size}");
    }

    #[test]
    #[should_panic(expected = "speculative point")]
    fn safe_points_rejected() {
        let mut p = fx().point.clone();
        p.perr = 0.0;
        validate_point(&fx().app, &fx().set, &p, 0);
    }
}
