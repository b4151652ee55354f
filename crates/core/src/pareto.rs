//! Iso-execution-time pareto-front extraction (Figures 6 and 7).
//!
//! Each point on a front characterizes a distinct problem size and
//! answers: how must `N_NTV` and `f_NTV` be set for the NTV execution
//! time to converge to the STV execution time? Cores are allocated at
//! cluster granularity, picking the most energy-efficient clusters
//! first; all engaged cores run at the frequency of the slowest
//! selected cluster (Safe) or at the speculative frequency whose
//! per-cycle error rate matches one error per thread execution
//! (Speculative, Section 6.3).

use crate::baseline::StvBaseline;
use crate::mode::{FrequencyPolicy, Mode, ProblemScaling};
use crate::quality::QualityModel;
use accordion_apps::app::RmsApp;
use accordion_apps::harness::{FrontSet, Scenario};
use accordion_chip::chip::Chip;
use accordion_chip::columns::ChipColumns;
use accordion_chip::selection::ClusterSelection;
use accordion_sim::exec::ExecModel;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{flight, span};

/// Relative tolerance around `size_norm = 1` that counts as Still.
const STILL_TOL: f64 = 0.02;

/// Cap on the speculative per-cycle error rate. Accordion keeps
/// checkpoint-recovery as a safety net whose cost is negligible only
/// while errors stay rare (Section 4.1); beyond roughly one error per
/// million cycles the recovery machinery would dominate, so the
/// operating-point search refuses to speculate harder than this.
const PERR_SPECULATIVE_CAP: f64 = 1e-6;

/// One iso-execution-time operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The mode this point operates in.
    pub mode: Mode,
    /// Problem size normalized to the STV default.
    pub size_norm: f64,
    /// Selected cluster count.
    pub clusters: usize,
    /// Engaged NTV core count.
    pub n_ntv: usize,
    /// `N_NTV / N_STV`.
    pub n_ratio: f64,
    /// Operating frequency in GHz.
    pub f_ntv_ghz: f64,
    /// Binding safe frequency of the selection in GHz.
    pub f_safe_ghz: f64,
    /// Per-cycle timing-error rate (0 under Safe).
    pub perr: f64,
    /// Achieved execution time in seconds (≤ the STV baseline).
    pub exec_time_s: f64,
    /// Chip power of the selection in watts.
    pub power_w: f64,
    /// `Power_NTV / Power_STV`.
    pub power_norm: f64,
    /// Energy efficiency in MIPS/W.
    pub mips_per_w: f64,
    /// `(MIPS/W)_NTV / (MIPS/W)_STV`.
    pub eff_norm: f64,
    /// Output quality normalized to the STV default execution.
    pub quality_norm: f64,
    /// Whether this point exceeds the chip power budget (the paper's
    /// power-limited Expand points).
    pub power_limited: bool,
}

/// An iso-execution-time pareto front for one mode family.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    /// Benchmark name.
    pub app: String,
    /// Mode family (Safe/Spec × Compress/Expand).
    pub flavor: Mode,
    /// Points ordered by increasing problem size.
    pub points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// Serializes the front as CSV (one row per operating point), for
    /// plotting outside the harness.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "app,mode,size_norm,clusters,n_ntv,n_ratio,f_ntv_ghz,f_safe_ghz,perr,\
             exec_time_s,power_w,power_norm,mips_per_w,eff_norm,quality_norm,power_limited\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                self.app,
                self.flavor,
                p.size_norm,
                p.clusters,
                p.n_ntv,
                p.n_ratio,
                p.f_ntv_ghz,
                p.f_safe_ghz,
                p.perr,
                p.exec_time_s,
                p.power_w,
                p.power_norm,
                p.mips_per_w,
                p.eff_norm,
                p.quality_norm,
                p.power_limited,
            ));
        }
        out
    }
}

/// Extracts the four Figure 6/7 fronts for one benchmark on one chip.
pub struct ParetoExtractor<'a> {
    chip: &'a Chip,
    /// Columnar per-chip invariants: efficiency order, prefix safe
    /// frequencies, timing columns — built once, reused by every
    /// (flavor, size, cluster-count) cell.
    cols: ChipColumns,
    app: &'a dyn RmsApp,
    exec: ExecModel,
    baseline: StvBaseline,
    quality: QualityModel,
    sizes: Vec<f64>,
}

impl<'a> ParetoExtractor<'a> {
    /// Builds an extractor from a pre-measured front set.
    pub fn new(chip: &'a Chip, app: &'a dyn RmsApp, fronts: &FrontSet) -> Self {
        let exec = ExecModel::paper_default();
        let baseline = StvBaseline::compute(chip, app, &exec);
        let quality = QualityModel::from_front_set(fronts);
        let mut sizes: Vec<f64> = fronts
            .front(Scenario::Default)
            .expect("Default front")
            .points
            .iter()
            .map(|p| p.size_norm)
            .collect();
        // The Still point (the fronts' intersection) must be present.
        if !sizes.iter().any(|s| (s - 1.0).abs() <= STILL_TOL) {
            sizes.push(1.0);
        }
        sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
        // Densify: the quality model interpolates between measured
        // points, so intermediate problem sizes are sound — and the
        // feasible Expand window can be narrower than the measured
        // sweep's spacing.
        let mut dense = Vec::with_capacity(sizes.len() * 3);
        for w in sizes.windows(2) {
            dense.push(w[0]);
            let ratio = w[1] / w[0];
            if ratio > 1.1 {
                let steps = (ratio.ln() / 1.08f64.ln()).ceil() as usize;
                for k in 1..steps {
                    dense.push(w[0] * ratio.powf(k as f64 / steps as f64));
                }
            }
        }
        dense.push(*sizes.last().expect("non-empty"));
        let sizes = dense;
        Self {
            chip,
            cols: ChipColumns::build(chip),
            app,
            exec,
            baseline,
            quality,
            sizes,
        }
    }

    /// The STV baseline the fronts are normalized to.
    pub fn baseline(&self) -> &StvBaseline {
        &self.baseline
    }

    /// Extracts all four mode-family fronts.
    pub fn extract(&self) -> Vec<ParetoFront> {
        Mode::FIGURE_MODES
            .iter()
            .map(|&flavor| self.extract_flavor(flavor))
            .collect()
    }

    fn extract_flavor(&self, flavor: Mode) -> ParetoFront {
        let _span = span!("sweep.extract_flavor");
        let cells: Vec<f64> = self
            .sizes
            .iter()
            .copied()
            .filter(|&s| match flavor.scaling {
                ProblemScaling::Compress => s <= 1.0 + STILL_TOL,
                ProblemScaling::Expand => s >= 1.0 - STILL_TOL,
                ProblemScaling::Still => (s - 1.0).abs() <= STILL_TOL,
            })
            .collect();
        let n_cells = cells.len() as u64;
        let points: Vec<ParetoPoint> = cells
            .into_iter()
            .filter_map(|s| self.solve_point(flavor, s))
            .collect();
        flight!(SimEvent::SweepFrontRetire {
            policy: match flavor.policy {
                FrequencyPolicy::Safe => "safe",
                FrequencyPolicy::Speculative => "speculative",
            },
            scaling: match flavor.scaling {
                ProblemScaling::Compress => "compress",
                ProblemScaling::Expand => "expand",
                ProblemScaling::Still => "still",
            },
            cells: n_cells,
            points: points.len() as u64,
        });
        ParetoFront {
            app: self.app.name().to_string(),
            flavor,
            points,
        }
    }

    /// Finds the minimal cluster count achieving iso-execution time at
    /// problem size `size_norm` under `flavor`'s frequency policy.
    /// Returns `None` when no cluster count suffices (N-limited).
    ///
    /// Cluster counts walk precomputed prefixes of the efficiency
    /// order — no sorting, no per-candidate selection materialization
    /// (the `ClusterSelection` is only assembled for the accepted
    /// count), one quantile inversion per frequency query.
    pub fn solve_point(&self, flavor: Mode, size_norm: f64) -> Option<ParetoPoint> {
        let _span = span!("sweep.cell.batched");
        let topo = self.chip.topology();
        let w = self.baseline.workload.scaled(size_norm);
        let size_milli = (size_norm * 1000.0).round() as u64;
        for clusters in 1..=topo.num_clusters() {
            let n_ntv = clusters * topo.cores_per_cluster;
            let f_safe = self.cols.safe_f_ghz(clusters);
            let (f, perr) = match flavor.policy {
                FrequencyPolicy::Safe => (f_safe, 0.0),
                FrequencyPolicy::Speculative => {
                    self.speculative_frequency(clusters, &w, n_ntv, f_safe)
                }
            };
            let time = self.exec.execution_time_s(&w, n_ntv, f);
            if time <= self.baseline.exec_time_s * (1.0 + 1e-9) {
                let sel = self.cols.selection_prefix(clusters);
                flight!(SimEvent::SweepCellSolve {
                    probed: clusters as u64,
                    clusters: clusters as u64,
                    size_milli,
                });
                return Some(
                    self.make_point(flavor, size_norm, sel, n_ntv, f, f_safe, perr, time, &w),
                );
            }
        }
        flight!(SimEvent::SweepCellSolve {
            probed: topo.num_clusters() as u64,
            clusters: 0,
            size_milli,
        });
        None
    }

    /// Fixed-point solve of the speculative frequency: the error rate
    /// is dictated by the execution time per infected thread —
    /// `Perr = 1/e` for `e`-cycle threads (Section 6.3) — while the
    /// thread length itself depends on the frequency through the CPI.
    /// Each binding-frequency query is one hoisted quantile inversion
    /// over the columnar prefix.
    fn speculative_frequency(
        &self,
        clusters: usize,
        w: &accordion_sim::workload::Workload,
        n_ntv: usize,
        f_safe: f64,
    ) -> (f64, f64) {
        let mut f = f_safe;
        let mut perr = 0.0;
        for _ in 0..3 {
            let cycles = self.exec.thread_cycles(w, w.work_units / n_ntv as f64, f);
            perr = (1.0 / cycles.max(1.0)).min(PERR_SPECULATIVE_CAP);
            f = self.cols.f_for_perr_ghz(clusters, perr).max(f_safe);
        }
        (f, perr)
    }

    #[allow(clippy::too_many_arguments)]
    fn make_point(
        &self,
        flavor: Mode,
        size_norm: f64,
        sel: ClusterSelection,
        n_ntv: usize,
        f: f64,
        f_safe: f64,
        perr: f64,
        time: f64,
        w: &accordion_sim::workload::Workload,
    ) -> ParetoPoint {
        let power_w = sel.power_w(self.chip, f);
        let mips = self.exec.total_mips(w, n_ntv, f);
        let mips_per_w = mips / power_w;
        let quality_norm = match flavor.policy {
            FrequencyPolicy::Safe => self.quality.quality_safe(size_norm),
            FrequencyPolicy::Speculative => self.quality.quality_speculative(size_norm),
        };
        ParetoPoint {
            mode: Mode {
                scaling: Mode::classify_scaling(size_norm, STILL_TOL),
                policy: flavor.policy,
            },
            size_norm,
            clusters: sel.len(),
            n_ntv,
            n_ratio: n_ntv as f64 / self.baseline.n_stv as f64,
            f_ntv_ghz: f,
            f_safe_ghz: f_safe,
            perr,
            exec_time_s: time,
            power_w,
            power_norm: power_w / self.baseline.power_w,
            mips_per_w,
            eff_norm: mips_per_w / self.baseline.mips_per_w(),
            quality_norm,
            power_limited: power_w > self.chip.power_model().budget_w(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_apps::hotspot::Hotspot;
    use accordion_chip::selection::SelectionPolicy;
    use std::sync::OnceLock;

    /// The object-path oracle for [`ParetoExtractor::solve_point`]:
    /// every cell re-sorts the clusters and re-walks the per-cluster
    /// timing objects. Slow, but built only from the selection and
    /// timing primitives the columnar engine must reproduce.
    impl ParetoExtractor<'_> {
        fn solve_point_scalar(&self, flavor: Mode, size_norm: f64) -> Option<ParetoPoint> {
            let topo = self.chip.topology();
            let w = self.baseline.workload.scaled(size_norm);
            for clusters in 1..=topo.num_clusters() {
                let sel = ClusterSelection::select(
                    self.chip,
                    clusters,
                    SelectionPolicy::EnergyEfficiency,
                );
                let n_ntv = sel.num_cores(self.chip);
                let f_safe = sel.safe_f_ghz();
                let (f, perr) = match flavor.policy {
                    FrequencyPolicy::Safe => (f_safe, 0.0),
                    FrequencyPolicy::Speculative => {
                        self.speculative_frequency_scalar(&sel, &w, n_ntv, f_safe)
                    }
                };
                let time = self.exec.execution_time_s(&w, n_ntv, f);
                if time <= self.baseline.exec_time_s * (1.0 + 1e-9) {
                    return Some(
                        self.make_point(flavor, size_norm, sel, n_ntv, f, f_safe, perr, time, &w),
                    );
                }
            }
            None
        }

        /// The speculative fixed point of `speculative_frequency`,
        /// querying the selection object instead of the columns.
        fn speculative_frequency_scalar(
            &self,
            sel: &ClusterSelection,
            w: &accordion_sim::workload::Workload,
            n_ntv: usize,
            f_safe: f64,
        ) -> (f64, f64) {
            let mut f = f_safe;
            let mut perr = 0.0;
            for _ in 0..3 {
                let cycles = self.exec.thread_cycles(w, w.work_units / n_ntv as f64, f);
                perr = (1.0 / cycles.max(1.0)).min(PERR_SPECULATIVE_CAP);
                f = sel.f_for_perr_ghz(self.chip, perr).max(f_safe);
            }
            (f, perr)
        }
    }

    fn fronts() -> &'static (Chip, Hotspot, Vec<ParetoFront>) {
        static CACHE: OnceLock<(Chip, Hotspot, Vec<ParetoFront>)> = OnceLock::new();
        CACHE.get_or_init(|| {
            let chip = Chip::fabricate_default(0).unwrap();
            let app = Hotspot::paper_default();
            let set = FrontSet::measure(&app);
            let fronts = ParetoExtractor::new(&chip, &app, &set).extract();
            (chip, app, fronts)
        })
    }

    fn front(flavor: Mode) -> &'static ParetoFront {
        fronts().2.iter().find(|f| f.flavor == flavor).unwrap()
    }

    #[test]
    fn all_four_flavors_have_points() {
        for flavor in Mode::FIGURE_MODES {
            assert!(
                !front(flavor).points.is_empty(),
                "{flavor} front must not be empty"
            );
        }
    }

    /// Every cell the fronts are built from, solved by the columnar
    /// engine and by the object-path oracle: same points, same bits
    /// (`Debug` formatting of `f64` round-trips bits).
    #[test]
    fn batched_engine_matches_scalar() {
        let (chip, app, _) = fronts();
        let set = FrontSet::measure(app);
        let extractor = ParetoExtractor::new(chip, app, &set);
        for flavor in Mode::FIGURE_MODES {
            for &s in &extractor.sizes {
                assert_eq!(
                    format!("{:?}", extractor.solve_point(flavor, s)),
                    format!("{:?}", extractor.solve_point_scalar(flavor, s)),
                    "{flavor} at size {s}"
                );
            }
        }
    }

    #[test]
    fn iso_time_holds_everywhere() {
        let (chip, app, fronts) = fronts();
        let set = FrontSet::measure(app);
        let extractor = ParetoExtractor::new(chip, app, &set);
        let t0 = extractor.baseline().exec_time_s;
        for f in fronts {
            for p in &f.points {
                assert!(
                    p.exec_time_s <= t0 * (1.0 + 1e-6),
                    "{}: point at size {} misses iso-time",
                    f.flavor,
                    p.size_norm
                );
            }
        }
    }

    #[test]
    fn core_count_grows_with_problem_size() {
        for flavor in Mode::FIGURE_MODES {
            let pts = &front(flavor).points;
            for w in pts.windows(2) {
                assert!(
                    w[1].n_ntv >= w[0].n_ntv,
                    "{flavor}: larger problems need at least as many cores"
                );
            }
        }
    }

    #[test]
    fn compress_uses_fewer_cores_than_expand() {
        // Paper: Safe Compress achieves iso-time at lower core counts
        // than Safe Expand.
        let c_max = front(Mode::FIGURE_MODES[0]).points.last().unwrap().n_ntv;
        let e_max = front(Mode::FIGURE_MODES[2]).points.last().unwrap().n_ntv;
        assert!(c_max <= e_max);
    }

    #[test]
    fn speculative_frequency_at_least_safe() {
        for flavor in [Mode::FIGURE_MODES[1], Mode::FIGURE_MODES[3]] {
            for p in &front(flavor).points {
                assert!(p.f_ntv_ghz >= p.f_safe_ghz - 1e-12);
                assert!(p.perr > 0.0, "speculative points carry errors");
            }
        }
    }

    #[test]
    fn speculative_needs_no_more_cores_than_safe() {
        // Higher speculative f ⇒ the same size is feasible at ≤ cores.
        let safe = &front(Mode::FIGURE_MODES[2]).points;
        let spec = &front(Mode::FIGURE_MODES[3]).points;
        for (s, p) in safe.iter().zip(spec) {
            assert_eq!(s.size_norm, p.size_norm);
            assert!(p.n_ntv <= s.n_ntv);
        }
    }

    #[test]
    fn efficiency_beats_stv_at_moderate_core_counts() {
        // The headline claim: NTV iso-time operation is more energy
        // efficient than STV (up to <2× per Section 6.3).
        let best = fronts()
            .2
            .iter()
            .flat_map(|f| &f.points)
            .map(|p| p.eff_norm)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 1.0, "best eff_norm {best} must beat STV");
        assert!(best < 2.5, "eff_norm {best} implausibly high");
    }

    #[test]
    fn csv_export_round_trips_row_count() {
        let front = front(Mode::FIGURE_MODES[0]);
        let csv = front.to_csv();
        assert_eq!(csv.lines().count(), 1 + front.points.len());
        assert!(csv.lines().next().unwrap().starts_with("app,mode,"));
        assert!(csv.contains("hotspot"));
    }

    #[test]
    fn quality_tracks_problem_size_on_fronts() {
        let pts = &front(Mode::FIGURE_MODES[2]).points; // Safe Expand
        for w in pts.windows(2) {
            assert!(w[1].quality_norm >= w[0].quality_norm - 1e-9);
        }
    }
}
