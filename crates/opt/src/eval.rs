//! Candidate evaluation: one [`Candidate`] in, one fully-priced
//! [`OperatingPoint`] out — deterministic, memoized, and cheap to
//! repeat.
//!
//! Two caches make the search fast without touching its bytes:
//!
//! * a **per-supply timing-context cache** — [`OperatingTimings`]
//!   derivation (per-core critical-path statistics at a given `Vdd`)
//!   is the expensive part of an evaluation, and candidates that
//!   differ only in cluster count, size or guardband share one: a
//!   mutated neighbour often does, and iso bisections at different
//!   cluster counts share their bracket ends and first midpoints.
//!   Contexts are keyed by integer millivolts and kept in a small
//!   per-evaluator [`Memo`] (`opt.ctx_cache`, LRU); `OperatingTimings::at`
//!   is a pure function of `(chip, vdd)`, so eviction can never change
//!   a result, and parallel candidates at one supply derive it once.
//! * a **candidate memo** — the NSGA-II loop revisits operating points
//!   constantly (elitism keeps parents around; mutation often lands on
//!   a previous candidate). The per-evaluator [`Memo`]
//!   (`opt.eval_cache`) makes a repeat evaluation a hash lookup. It is
//!   unbounded: the evaluator lives for one request, and without
//!   eviction its miss count is the number of distinct candidates at
//!   any worker count, so the report's `evals` / `cache_hits` are a
//!   pure function of the request.
//!
//! The chip itself comes from the process-wide
//! [`accordion_chip::popcache`], and the quality fronts from the
//! process-wide [`FrontSet`](accordion_apps::harness::FrontSet)
//! measurement cache — a second `optimize` call in the same process
//! (or served worker) skips fabrication and kernel measurement
//! entirely.

use crate::space::{Candidate, Constraints};
use accordion::baseline::StvBaseline;
use accordion::quality::QualityModel;
use accordion_apps::app::all_apps;
use accordion_chip::chip::Chip;
use accordion_chip::columns::{ChipColumns, OperatingTimings};
use accordion_chip::popcache;
use accordion_chip::topology::Topology;
use accordion_pool::Memo;
use accordion_sim::exec::ExecModel;
use std::sync::Arc;

/// Timing contexts kept live per evaluator (LRU). Smaller than a
/// request's working set: a paper-topology `explore` request visits
/// about 134 supplies and derives about 152 contexts (its iso
/// extraction alone 80 and 90), so some are derived again after
/// eviction. The bound keeps a long NSGA-II run over the full 900 mV
/// range from hoarding hundreds of contexts.
const CTX_CAPACITY: usize = 32;

/// One evaluated candidate with everything the objectives, the
/// constraints and the report need.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The candidate knobs this point was evaluated at.
    pub candidate: Candidate,
    /// Safe (error-free) frequency of the engaged prefix, GHz.
    pub f_safe_ghz: f64,
    /// Operating frequency (= safe frequency for Safe candidates), GHz.
    pub f_run_ghz: f64,
    /// Per-core-cycle timing-error rate; `0.0` for Safe candidates.
    pub perr: f64,
    /// Execution time of the scaled workload, seconds.
    pub time_s: f64,
    /// Chip power of the engaged prefix at the operating point, watts.
    pub power_w: f64,
    /// Aggregate throughput, MIPS.
    pub mips: f64,
    /// Output quality (normalized to the STV default run).
    pub quality: f64,
}

impl OperatingPoint {
    /// Energy efficiency in MIPS per watt.
    pub fn mips_per_w(&self) -> f64 {
        self.mips / self.power_w
    }

    /// The minimization objectives `[power, time, quality deficit]`.
    /// Lower is better in every coordinate, which keeps the dominance
    /// code sign-free.
    pub fn objectives(&self) -> [f64; 3] {
        [self.power_w, self.time_s, 1.0 - self.quality]
    }

    /// Total constraint violation under `cons` (`0.0` = feasible).
    pub fn violation(&self, cons: &Constraints) -> f64 {
        cons.violation(self.power_w, self.time_s, self.quality)
    }
}

/// Deterministic, cached candidate evaluator for one `(chip, app)`
/// binding.
pub struct Evaluator {
    chip: Arc<Chip>,
    cols: ChipColumns,
    quality: QualityModel,
    exec: ExecModel,
    baseline: StvBaseline,
    /// Per-supply timing contexts, keyed by millivolts.
    ctxs: Memo<u32, Arc<OperatingTimings>>,
    /// Evaluated candidates.
    points: Memo<Candidate, OperatingPoint>,
}

impl Evaluator {
    /// Binds an evaluator to chip `chip_index` of the
    /// `(topo, pop_seed, chips)` population (via the process-wide
    /// popcache, which fabricates that chip alone) and benchmark `app`
    /// (quality fronts via the process-wide measurement cache).
    ///
    /// # Errors
    ///
    /// A human-readable message when the app is unknown, the chip
    /// index is out of range, or fabrication fails.
    pub fn new(
        topo: Topology,
        pop_seed: u64,
        chips: usize,
        chip_index: usize,
        app: &str,
    ) -> Result<Self, String> {
        let app = all_apps()
            .into_iter()
            .find(|a| a.name() == app)
            .ok_or_else(|| {
                let known: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
                format!("unknown app {app:?}; known: {}", known.join(", "))
            })?;
        if chip_index >= chips {
            return Err(format!(
                "chip index {chip_index} outside population of {chips}"
            ));
        }
        let (chip, _) = popcache::chip(topo, pop_seed, chip_index)
            .map_err(|e| format!("variation sampler: {e:?}"))?;
        let cols = ChipColumns::build(&chip);
        let quality = QualityModel::measure(app.as_ref());
        let exec = ExecModel::paper_default();
        let baseline = StvBaseline::compute(&chip, app.as_ref(), &exec);
        Ok(Self {
            chip,
            cols,
            quality,
            exec,
            baseline,
            ctxs: Memo::new("opt.ctx_cache", CTX_CAPACITY),
            points: Memo::new("opt.eval_cache", usize::MAX),
        })
    }

    /// The chip candidates are evaluated on.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The STV reference execution everything is normalized to.
    pub fn baseline(&self) -> &StvBaseline {
        &self.baseline
    }

    /// The benchmark's interpolated quality model.
    pub fn quality(&self) -> &QualityModel {
        &self.quality
    }

    /// The chip's cluster count (upper bound for the cluster knob).
    pub fn max_clusters(&self) -> u32 {
        self.cols.num_clusters() as u32
    }

    /// `(fresh evaluations, memo hits, ctx hits, ctx misses)` so far.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let (points, ctx) = (self.points.stats(), self.ctxs.stats());
        (points.misses, points.hits, ctx.hits, ctx.misses)
    }

    /// The per-supply timing context for `vdd_mv`, derived at most
    /// once while it stays in the LRU window. The derivation runs
    /// outside the memo's lock, so a 288-core context does not
    /// serialize the worker pool.
    fn ctx(&self, vdd_mv: u32) -> Arc<OperatingTimings> {
        self.ctxs.get_or_insert_with(&vdd_mv, || {
            Arc::new(OperatingTimings::at(
                self.chip(),
                f64::from(vdd_mv) / 1000.0,
            ))
        })
    }

    /// Evaluates one candidate, bypassing the memo. Pure function of
    /// `(chip, candidate)` — no wall clock, no RNG.
    fn eval_uncached(&self, c: Candidate) -> OperatingPoint {
        let chip = self.chip();
        let ctx = self.ctx(c.vdd_mv);
        let n = (c.clusters as usize).clamp(1, self.cols.num_clusters());
        // The engaged clusters are the first `n` of the chip's
        // NTV-efficiency order — the same prefix rule the pareto
        // extractor and the batched sweep engine use.
        let prefix = || self.cols.efficiency_order()[..n].iter().map(|cl| cl.0);
        let params = chip.variation_params();
        let f_safe = ctx
            .columns()
            .min_frequency_for_perr_over(prefix(), params.perr_safe_target);
        let (f_run, perr) = match c.perr_target() {
            // Speculation can only raise the binding frequency; `max`
            // guards the degenerate case where the relaxed target is
            // still below the safe one.
            Some(p) => (
                ctx.columns()
                    .min_frequency_for_perr_over(prefix(), p)
                    .max(f_safe),
                p,
            ),
            None => (f_safe, 0.0),
        };

        let size = c.size();
        let w = self.baseline.workload.scaled(size);
        let n_cores = n * chip.topology().cores_per_cluster;
        let time_s = self.exec.execution_time_s(&w, n_cores, f_run);
        let mips = self.exec.total_mips(&w, n_cores, f_run);
        // The engaged prefix's power, summed in efficiency order.
        let engaged = self.cols.efficiency_order()[..n].iter().copied();
        let power_w = chip.power_at_w(engaged, c.vdd_v(), f_run);

        let (lo, hi) = self.quality.size_domain();
        let s = size.clamp(lo, hi);
        let quality = if c.is_safe() {
            self.quality.quality_safe(s)
        } else {
            self.quality.quality_speculative(s)
        };

        OperatingPoint {
            candidate: c,
            f_safe_ghz: f_safe,
            f_run_ghz: f_run,
            perr,
            time_s,
            power_w,
            mips,
            quality,
        }
    }

    /// Evaluates one candidate through the memo.
    pub fn point(&self, c: Candidate) -> OperatingPoint {
        self.points.get_or_insert_with(&c, || self.eval_uncached(c))
    }

    /// Evaluates a batch over `workers` pool threads (ordered parallel
    /// map — byte-identical at any worker count). A candidate repeated
    /// within the batch is evaluated once; its other lookups hit or
    /// join. Results are in input order.
    pub fn batch(&self, cands: &[Candidate], workers: usize) -> Vec<OperatingPoint> {
        accordion_pool::par_map_with(workers, cands.to_vec(), |c| self.point(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GB_SAFE_CENTI;
    use std::sync::OnceLock;

    fn eval() -> &'static Evaluator {
        static EVAL: OnceLock<Evaluator> = OnceLock::new();
        EVAL.get_or_init(|| {
            Evaluator::new(Topology::small(), 7001, 2, 0, "hotspot").expect("evaluator")
        })
    }

    fn cand(vdd_mv: u32, clusters: u32, size_milli: u32, gb_centi: u32) -> Candidate {
        Candidate {
            vdd_mv,
            clusters,
            size_milli,
            gb_centi,
        }
    }

    #[test]
    fn rejects_bad_bindings() {
        assert!(Evaluator::new(Topology::small(), 1, 2, 0, "nope").is_err());
        assert!(Evaluator::new(Topology::small(), 1, 2, 5, "hotspot").is_err());
    }

    #[test]
    fn point_is_physical_and_memoized() {
        let e = eval();
        let c = cand(550, 2, 1000, GB_SAFE_CENTI);
        let p = e.point(c);
        assert!(p.f_safe_ghz > 0.05 && p.f_safe_ghz < 4.0, "{p:?}");
        assert_eq!(p.f_run_ghz, p.f_safe_ghz, "safe mode runs at f_safe");
        assert_eq!(p.perr, 0.0);
        assert!(p.power_w > 0.0 && p.time_s > 0.0 && p.quality > 0.5);
        let again = e.point(c);
        assert_eq!(p, again);
        let (_, hits, _, _) = e.stats();
        assert!(hits >= 1, "second lookup must hit the memo");
    }

    #[test]
    fn speculation_buys_frequency_and_costs_quality() {
        let e = eval();
        let safe = e.point(cand(500, 2, 1000, GB_SAFE_CENTI));
        let spec = e.point(cand(500, 2, 1000, 600));
        assert!(spec.f_run_ghz > safe.f_run_ghz, "{spec:?} vs {safe:?}");
        assert!(spec.quality <= safe.quality + 1e-12);
        assert!(spec.time_s < safe.time_s);
    }

    #[test]
    fn higher_vdd_clocks_faster_and_draws_more() {
        let e = eval();
        let lo = e.point(cand(450, 2, 1000, GB_SAFE_CENTI));
        let hi = e.point(cand(900, 2, 1000, GB_SAFE_CENTI));
        assert!(hi.f_safe_ghz > lo.f_safe_ghz);
        assert!(hi.power_w > lo.power_w);
        assert!(hi.time_s < lo.time_s);
    }

    #[test]
    fn batch_matches_pointwise_and_reuses_contexts() {
        let e = Evaluator::new(Topology::small(), 7002, 2, 1, "hotspot").expect("evaluator");
        let cands: Vec<Candidate> = (0..12u32)
            .map(|i| cand(500 + (i % 3) * 50, 1 + i % 2, 800 + i * 10, GB_SAFE_CENTI))
            .collect();
        let seq: Vec<OperatingPoint> = cands.iter().map(|&c| e.eval_uncached(c)).collect();
        let batched = e.batch(&cands, 4);
        assert_eq!(seq, batched);
        let (_, _, ctx_hits, ctx_misses) = e.stats();
        assert_eq!(ctx_misses, 3, "three distinct supplies derive contexts");
        assert!(ctx_hits > ctx_misses, "adjacent candidates reuse contexts");
    }

    #[test]
    fn batch_evaluates_each_distinct_candidate_once() {
        // Six distinct candidates, each repeated, interleaved so that
        // repeats land on different workers.
        let distinct: Vec<Candidate> = (0..6u32)
            .map(|i| cand(500 + (i % 2) * 100, 1 + i % 2, 900 + i * 20, GB_SAFE_CENTI))
            .collect();
        let cands: Vec<Candidate> = (0..20).map(|i| distinct[(i * 5) % 6]).collect();
        for workers in [1, 4] {
            let e = Evaluator::new(Topology::small(), 7003, 2, 0, "hotspot").expect("evaluator");
            let expected: Vec<OperatingPoint> = cands.iter().map(|&c| e.eval_uncached(c)).collect();
            assert_eq!(e.batch(&cands, workers), expected, "{workers} workers");
            let (evals, hits, _, _) = e.stats();
            assert_eq!(evals, 6, "{workers} workers: one evaluation per candidate");
            assert_eq!(hits, 14, "{workers} workers: every repeat hits");
        }
    }
}
