//! Iso-metric front extraction: the curves the paper's figures are
//! read along, computed directly instead of eyeballed off a sweep.
//!
//! Each curve fixes one metric and asks, per engaged-cluster count,
//! what supply (or problem size) hits it:
//!
//! * **iso-power** — the highest supply whose chip power stays within
//!   the target: the "spend the whole budget" frontier.
//! * **iso-time** — the lowest supply that still meets the target
//!   execution time: the paper's iso-execution-time discipline.
//! * **iso-quality** — the smallest problem size whose Safe quality
//!   reaches the target, then per cluster count the lowest supply
//!   matching the STV baseline's execution time at that size.
//!
//! All three metrics are monotone in the bisected knob (power and
//! speed rise with `Vdd`, quality rises with problem size), so a
//! bracket check plus integer-millivolt bisection finds each curve
//! point exactly — and deterministically, no float-tolerance loops.
//! Every probe goes through the [`Evaluator`]'s memo and per-supply
//! context cache. A repeated probe is a hash lookup, but a new supply
//! derives a timing context, and bisections at different cluster
//! counts mostly visit different supplies: on the paper topology (6
//! cluster steps, up to 18 bisections) an extraction makes about 200
//! probes over about 80 supplies and derives about 90 contexts, some
//! again after LRU eviction. So the size bisection, whose probes all
//! share the top supply's context, runs first, and then the
//! per-cluster-count bisections, which are independent of each other,
//! run through one ordered pool map ([`extract_with`]).

use crate::eval::{Evaluator, OperatingPoint};
use crate::space::{Candidate, KnobSpace};
use accordion_telemetry::span;

/// Targets for the three curves. [`IsoTargets::paper_default`] derives
/// them from the chip and baseline the evaluator is bound to.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoTargets {
    /// iso-power target in watts.
    pub power_w: f64,
    /// iso-time target in seconds.
    pub time_s: f64,
    /// iso-quality target (normalized output quality).
    pub quality: f64,
}

impl IsoTargets {
    /// The paper's framing: the chip's power budget, the STV
    /// baseline's execution time, and 99 % output quality.
    pub fn paper_default(eval: &Evaluator) -> Self {
        Self {
            power_w: eval.chip().power_model().budget_w(),
            time_s: eval.baseline().exec_time_s,
            quality: 0.99,
        }
    }
}

/// The three extracted curves, one evaluated point per feasible
/// cluster count (cluster counts with no in-range solution are
/// skipped, which is what bounds each curve's extent).
#[derive(Debug, Clone)]
pub struct IsoFronts {
    /// The targets the curves were extracted at.
    pub targets: IsoTargets,
    /// Iso-power curve: highest in-budget supply per cluster count.
    pub iso_power: Vec<OperatingPoint>,
    /// Iso-time curve: lowest deadline-meeting supply per cluster
    /// count.
    pub iso_time: Vec<OperatingPoint>,
    /// Iso-quality curve: per cluster count, the lowest supply running
    /// the quality-hitting problem size in the baseline's time.
    pub iso_quality: Vec<OperatingPoint>,
    /// The problem size (parts-per-thousand) the iso-quality curve
    /// runs at; `None` when no in-range size reaches the target.
    pub quality_size_milli: Option<u32>,
}

/// Largest value in `[lo, hi]` satisfying `test`, assuming `test` is
/// monotone true-then-false over the range; `None` when even `lo`
/// fails (no bracket).
fn bisect_last_true(lo: u32, hi: u32, mut test: impl FnMut(u32) -> bool) -> Option<u32> {
    if !test(lo) {
        return None;
    }
    if test(hi) {
        return Some(hi);
    }
    let (mut lo, mut hi) = (lo, hi); // invariant: test(lo) && !test(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if test(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Smallest value in `[lo, hi]` satisfying `test`, assuming `test` is
/// monotone false-then-true; `None` when even `hi` fails.
fn bisect_first_true(lo: u32, hi: u32, mut test: impl FnMut(u32) -> bool) -> Option<u32> {
    if test(lo) {
        return Some(lo);
    }
    if !test(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi); // invariant: !test(lo) && test(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if test(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// A Safe-mode probe candidate at `(vdd_mv, clusters, size_milli)`,
/// clamped into the space.
fn probe(space: &KnobSpace, vdd_mv: u32, clusters: u32, size_milli: u32) -> Candidate {
    space.clamp(Candidate {
        vdd_mv,
        clusters,
        size_milli,
        gb_centi: space.gb_centi.1,
    })
}

/// One per-cluster-count bisection of a curve.
#[derive(Debug, Clone, Copy)]
enum Search {
    /// The highest supply whose power stays within the target (power
    /// rises with `Vdd`).
    LastWithinPower { size_milli: u32, power_w: f64 },
    /// The lowest supply meeting a deadline (speed rises with `Vdd`).
    FirstMeetingDeadline { size_milli: u32, time_s: f64 },
}

impl Search {
    /// The curve point at `clusters`, or `None` when no supply in the
    /// space qualifies.
    fn run(self, eval: &Evaluator, space: &KnobSpace, clusters: u32) -> Option<OperatingPoint> {
        let (vlo, vhi) = space.vdd_mv;
        let at = |mv: u32, size_milli: u32| eval.point(probe(space, mv, clusters, size_milli));
        match self {
            Search::LastWithinPower {
                size_milli,
                power_w,
            } => bisect_last_true(vlo, vhi, |mv| at(mv, size_milli).power_w <= power_w)
                .map(|mv| at(mv, size_milli)),
            Search::FirstMeetingDeadline { size_milli, time_s } => {
                bisect_first_true(vlo, vhi, |mv| at(mv, size_milli).time_s <= time_s)
                    .map(|mv| at(mv, size_milli))
            }
        }
    }
}

/// [`extract_with`] over [`accordion_pool::jobs`] workers.
pub fn extract(eval: &Evaluator, space: &KnobSpace, targets: &IsoTargets) -> IsoFronts {
    extract_with(eval, space, targets, accordion_pool::jobs())
}

/// Extracts all three curves, running the per-cluster-count
/// bisections over `workers` pool threads. Probes route through
/// `eval`'s memo and per-supply context cache; the whole extraction is
/// a pure function of `(evaluator binding, space, targets)`, the same
/// at any `workers`, and so are the memo's evaluation and hit counts.
pub fn extract_with(
    eval: &Evaluator,
    space: &KnobSpace,
    targets: &IsoTargets,
    workers: usize,
) -> IsoFronts {
    let _span = span!("opt.iso");
    let cluster_steps = space.cluster_steps();
    let default_size = 1000u32.clamp(space.size_milli.0, space.size_milli.1);

    // Iso-quality: quality rises with problem size (the paper's core
    // observation), so first find the smallest quality-hitting size.
    // Every probe sits at the top supply, so they share one context.
    let (slo, shi) = space.size_milli;
    let vhi = space.vdd_mv.1;
    let n_probe = *cluster_steps.last().expect("cluster steps non-empty");
    let quality_size_milli = bisect_first_true(slo, shi, |sm| {
        eval.point(probe(space, vhi, n_probe, sm)).quality >= targets.quality
    });

    // Iso-power and iso-time at the default size; iso-quality runs the
    // iso-time discipline at the quality-hitting size against the STV
    // baseline's execution time.
    let mut searches = vec![
        Search::LastWithinPower {
            size_milli: default_size,
            power_w: targets.power_w,
        },
        Search::FirstMeetingDeadline {
            size_milli: default_size,
            time_s: targets.time_s,
        },
    ];
    if let Some(sm) = quality_size_milli {
        searches.push(Search::FirstMeetingDeadline {
            size_milli: sm,
            time_s: eval.baseline().exec_time_s,
        });
    }
    // Each (curve, cluster count) bisection is independent of the
    // others: one ordered map runs them all.
    let tasks: Vec<(Search, u32)> = searches
        .iter()
        .flat_map(|&search| cluster_steps.iter().map(move |&n| (search, n)))
        .collect();
    let found =
        accordion_pool::par_map_with(workers, tasks, |(search, n)| search.run(eval, space, n));
    let mut curves = found
        .chunks(cluster_steps.len())
        .map(|curve| curve.iter().flatten().cloned().collect::<Vec<_>>());

    IsoFronts {
        targets: targets.clone(),
        iso_power: curves.next().expect("iso-power curve"),
        iso_time: curves.next().expect("iso-time curve"),
        iso_quality: curves.next().unwrap_or_default(),
        quality_size_milli,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_chip::topology::Topology;
    use std::sync::OnceLock;

    fn eval() -> &'static Evaluator {
        static EVAL: OnceLock<Evaluator> = OnceLock::new();
        EVAL.get_or_init(|| {
            Evaluator::new(Topology::small(), 7003, 2, 0, "hotspot").expect("evaluator")
        })
    }

    #[test]
    fn bisections_find_exact_boundaries() {
        assert_eq!(bisect_last_true(0, 100, |v| v <= 37), Some(37));
        assert_eq!(bisect_last_true(0, 100, |v| v <= 100), Some(100));
        assert_eq!(bisect_last_true(10, 100, |v| v <= 5), None);
        assert_eq!(bisect_first_true(0, 100, |v| v >= 37), Some(37));
        assert_eq!(bisect_first_true(5, 100, |v| v >= 5), Some(5));
        assert_eq!(bisect_first_true(0, 100, |v| v >= 200), None);
    }

    #[test]
    fn curves_hit_their_targets() {
        let e = eval();
        let space = KnobSpace::full(e.max_clusters());
        let targets = IsoTargets::paper_default(e);
        let fronts = extract(e, &space, &targets);
        assert!(!fronts.iso_power.is_empty(), "budget admits some supply");
        for p in &fronts.iso_power {
            assert!(p.power_w <= targets.power_w, "{p:?}");
            // One millivolt more must break the budget (or be the rail).
            let c = p.candidate;
            if c.vdd_mv < space.vdd_mv.1 {
                let over = e.point(Candidate {
                    vdd_mv: c.vdd_mv + 1,
                    ..c
                });
                assert!(over.power_w > targets.power_w, "not the boundary: {c:?}");
            }
        }
        for p in &fronts.iso_time {
            assert!(p.time_s <= targets.time_s, "{p:?}");
        }
        for p in &fronts.iso_quality {
            assert!(p.quality >= targets.quality - 1e-9, "{p:?}");
            assert!(p.time_s <= e.baseline().exec_time_s, "{p:?}");
        }
    }

    #[test]
    fn workers_change_neither_the_fronts_nor_the_memo_counts() {
        let run = |workers: usize| {
            let e = Evaluator::new(Topology::small(), 7004, 2, 1, "hotspot").expect("evaluator");
            let space = KnobSpace::full(e.max_clusters());
            let fronts = extract_with(&e, &space, &IsoTargets::paper_default(&e), workers);
            let (evals, hits, _, _) = e.stats();
            (fronts, evals, hits)
        };
        let (one, evals_one, hits_one) = run(1);
        let (eight, evals_eight, hits_eight) = run(8);
        assert_eq!(one.iso_power, eight.iso_power);
        assert_eq!(one.iso_time, eight.iso_time);
        assert_eq!(one.iso_quality, eight.iso_quality);
        assert_eq!(one.quality_size_milli, eight.quality_size_milli);
        assert!(!one.iso_power.is_empty(), "budget admits some supply");
        assert_eq!((evals_one, hits_one), (evals_eight, hits_eight));
    }

    #[test]
    fn extraction_is_deterministic_and_cached() {
        let e = eval();
        let space = KnobSpace::full(e.max_clusters());
        let targets = IsoTargets::paper_default(e);
        let a = extract(e, &space, &targets);
        let (evals_after_first, _, _, _) = e.stats();
        let b = extract(e, &space, &targets);
        let (evals_after_second, _, _, _) = e.stats();
        assert_eq!(a.iso_power, b.iso_power);
        assert_eq!(a.iso_time, b.iso_time);
        assert_eq!(a.iso_quality, b.iso_quality);
        assert_eq!(
            evals_after_first, evals_after_second,
            "a repeated extraction must be all memo hits"
        );
    }
}
