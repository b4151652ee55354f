//! The optimizer's JSON report: one deterministic document shared by
//! `repro optimize` (stdout) and `POST /v1/optimize` (response body).
//!
//! The report is a pure function of the request — no wall-clock, no
//! host identity — so identical requests render byte-identical bodies
//! at any `--jobs` setting. That is what lets the served route coalesce
//! duplicate optimize requests and what the determinism tests pin.

use crate::eval::{Evaluator, OperatingPoint};
use crate::iso::{self, IsoFronts, IsoTargets};
use crate::nsga::{self, front_dominates_grid, OptConfig, OptOutcome};
use accordion_chip::topology::Topology;
use accordion_telemetry::json::Json;

/// A complete optimize request: the evaluator binding plus the search
/// configuration and report options.
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// Benchmark name (one of `all_apps()`).
    pub app: String,
    /// Chip topology.
    pub topo: Topology,
    /// Population seed (popcache key together with `topo`/`chip`).
    pub pop_seed: u64,
    /// Population size; only bounds `chip`.
    pub chips: usize,
    /// Which chip of the population to optimize for.
    pub chip: usize,
    /// The search configuration (seed, sizes, space, constraints).
    pub cfg: OptConfig,
    /// Whether to extract the iso-metric curves into the report.
    pub iso: bool,
    /// Evaluate a `steps`-per-knob lattice through the same evaluator
    /// and record whether the front dominates-or-ties every grid point.
    pub grid_check: Option<u32>,
}

/// The result of the equivalent-sweep dominance check.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCheck {
    /// Steps per continuous knob of the checked lattice.
    pub steps: u32,
    /// Lattice points evaluated.
    pub points: usize,
    /// Whether every lattice point is dominated-or-tied by the front.
    pub dominated: bool,
}

/// Runs the whole pipeline for one request: bind the evaluator, run
/// the NSGA-II search, extract the iso-metric curves, run the grid
/// check, render the report.
///
/// # Errors
///
/// A human-readable message (a `400` on the served route) when the
/// evaluator binding is invalid.
pub fn optimize_report(req: &OptimizeRequest, workers: usize) -> Result<Json, String> {
    let eval = Evaluator::new(req.topo, req.pop_seed, req.chips, req.chip, &req.app)?;
    // The cluster knob is bounded by the chip the request landed on.
    let mut cfg = req.cfg.clone();
    cfg.space.clusters.1 = cfg.space.clusters.1.min(eval.max_clusters()).max(1);
    cfg.space.clusters.0 = cfg.space.clusters.0.clamp(1, cfg.space.clusters.1);

    let outcome = nsga::optimize(&eval, &cfg, workers);
    let iso = if req.iso {
        let targets = IsoTargets::paper_default(&eval);
        Some(iso::extract_with(&eval, &cfg.space, &targets, workers))
    } else {
        None
    };
    let grid_check = req.grid_check.map(|steps| {
        let grid = cfg.space.scout_grid(steps);
        let points = eval.batch(&grid, workers);
        GridCheck {
            steps,
            points: grid.len(),
            dominated: front_dominates_grid(&outcome.front, &points, &cfg.constraints),
        }
    });

    Ok(render(
        req,
        &cfg,
        &eval,
        &outcome,
        iso.as_ref(),
        grid_check.as_ref(),
    ))
}

/// One operating point as the report renders it everywhere (front,
/// champions, iso curves).
fn point_json(p: &OperatingPoint, eval: &Evaluator, cfg: &OptConfig) -> Json {
    let c = p.candidate;
    let b = eval.baseline();
    Json::obj(vec![
        ("vdd_mv", Json::Num(f64::from(c.vdd_mv))),
        ("clusters", Json::Num(f64::from(c.clusters))),
        ("size", Json::Num(c.size())),
        ("guardband", Json::Num(c.guardband())),
        (
            "mode",
            Json::str(if c.is_safe() { "safe" } else { "speculative" }),
        ),
        ("f_safe_ghz", Json::Num(p.f_safe_ghz)),
        ("f_run_ghz", Json::Num(p.f_run_ghz)),
        ("perr", Json::Num(p.perr)),
        ("time_s", Json::Num(p.time_s)),
        ("power_w", Json::Num(p.power_w)),
        ("mips", Json::Num(p.mips)),
        ("mips_per_w", Json::Num(p.mips_per_w())),
        ("quality", Json::Num(p.quality)),
        ("speedup_vs_stv", Json::Num(b.exec_time_s / p.time_s)),
        (
            "efficiency_vs_stv",
            Json::Num(p.mips_per_w() / b.mips_per_w()),
        ),
        ("feasible", Json::Bool(p.violation(&cfg.constraints) == 0.0)),
        ("violation", Json::Num(p.violation(&cfg.constraints))),
    ])
}

/// The feasible front point minimizing `key` (front order — candidate
/// order — breaks ties); falls back to the whole front when nothing
/// is feasible.
fn champion<'a>(
    front: &'a [OperatingPoint],
    cfg: &OptConfig,
    key: impl Fn(&OperatingPoint) -> f64,
) -> Option<&'a OperatingPoint> {
    let feasible: Vec<&OperatingPoint> = front
        .iter()
        .filter(|p| p.violation(&cfg.constraints) == 0.0)
        .collect();
    let pool: Vec<&OperatingPoint> = if feasible.is_empty() {
        front.iter().collect()
    } else {
        feasible
    };
    pool.into_iter().min_by(|a, b| {
        key(a)
            .total_cmp(&key(b))
            .then(a.candidate.cmp(&b.candidate))
    })
}

fn render(
    req: &OptimizeRequest,
    cfg: &OptConfig,
    eval: &Evaluator,
    outcome: &OptOutcome,
    iso: Option<&IsoFronts>,
    grid_check: Option<&GridCheck>,
) -> Json {
    let b = eval.baseline();
    let points =
        |pts: &[OperatingPoint]| Json::Arr(pts.iter().map(|p| point_json(p, eval, cfg)).collect());
    let (evals, memo_hits, _, _) = eval.stats();
    let ratio = if evals + memo_hits > 0 {
        memo_hits as f64 / (evals + memo_hits) as f64
    } else {
        0.0
    };

    let mut doc = vec![
        (
            "request",
            Json::obj(vec![
                ("app", Json::str(&req.app)),
                (
                    "topo",
                    Json::str(if req.topo == Topology::small() {
                        "small"
                    } else {
                        "default"
                    }),
                ),
                ("pop_seed", Json::Num(req.pop_seed as f64)),
                ("chips", Json::Num(req.chips as f64)),
                ("chip", Json::Num(req.chip as f64)),
                ("seed", Json::Num(cfg.seed as f64)),
                ("population", Json::Num(cfg.population as f64)),
                ("generations", Json::Num(cfg.generations as f64)),
                ("scout_steps", Json::Num(f64::from(cfg.scout_steps))),
                ("knobs", cfg.space.to_json()),
                ("constraints", cfg.constraints.to_json()),
            ]),
        ),
        (
            "baseline",
            Json::obj(vec![
                ("n_stv", Json::Num(b.n_stv as f64)),
                ("f_stv_ghz", Json::Num(b.f_stv_ghz)),
                ("time_s", Json::Num(b.exec_time_s)),
                ("power_w", Json::Num(b.power_w)),
                ("mips_per_w", Json::Num(b.mips_per_w())),
            ]),
        ),
        ("front", points(&outcome.front)),
        (
            "best",
            Json::obj(vec![
                (
                    "min_power",
                    champion(&outcome.front, cfg, |p| p.power_w)
                        .map_or(Json::Null, |p| point_json(p, eval, cfg)),
                ),
                (
                    "min_time",
                    champion(&outcome.front, cfg, |p| p.time_s)
                        .map_or(Json::Null, |p| point_json(p, eval, cfg)),
                ),
                (
                    "max_quality",
                    champion(&outcome.front, cfg, |p| -p.quality)
                        .map_or(Json::Null, |p| point_json(p, eval, cfg)),
                ),
                (
                    "max_mips_per_w",
                    champion(&outcome.front, cfg, |p| -p.mips_per_w())
                        .map_or(Json::Null, |p| point_json(p, eval, cfg)),
                ),
            ]),
        ),
        (
            "search",
            Json::obj(vec![
                ("archive", Json::Num(outcome.archive_len as f64)),
                ("evals", Json::Num(evals as f64)),
                ("cache_hits", Json::Num(memo_hits as f64)),
                ("cache_hit_ratio", Json::Num(ratio)),
                (
                    "generations",
                    Json::Arr(
                        outcome
                            .generations
                            .iter()
                            .map(|g| {
                                Json::obj(vec![
                                    ("generation", Json::Num(g.generation as f64)),
                                    ("evals", Json::Num(g.evals as f64)),
                                    ("cache_hits", Json::Num(g.cache_hits as f64)),
                                    ("front", Json::Num(g.front as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ];
    if let Some(iso) = iso {
        doc.push((
            "iso",
            Json::obj(vec![
                (
                    "targets",
                    Json::obj(vec![
                        ("power_w", Json::Num(iso.targets.power_w)),
                        ("time_s", Json::Num(iso.targets.time_s)),
                        ("quality", Json::Num(iso.targets.quality)),
                    ]),
                ),
                (
                    "quality_size",
                    iso.quality_size_milli
                        .map_or(Json::Null, |sm| Json::Num(f64::from(sm) / 1000.0)),
                ),
                ("iso_power", points(&iso.iso_power)),
                ("iso_time", points(&iso.iso_time)),
                ("iso_quality", points(&iso.iso_quality)),
            ]),
        ));
    }
    if let Some(gc) = grid_check {
        doc.push((
            "grid_check",
            Json::obj(vec![
                ("steps", Json::Num(f64::from(gc.steps))),
                ("points", Json::Num(gc.points as f64)),
                ("dominated", Json::Bool(gc.dominated)),
            ]),
        ));
    }
    Json::obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Constraints, KnobSpace};

    fn request() -> OptimizeRequest {
        OptimizeRequest {
            app: "hotspot".to_string(),
            topo: Topology::small(),
            pop_seed: 7004,
            chips: 2,
            chip: 0,
            cfg: OptConfig {
                seed: 42,
                population: 8,
                generations: 2,
                scout_steps: 3,
                space: KnobSpace::full(64),
                constraints: Constraints {
                    quality_floor: Some(0.9),
                    power_budget_w: None,
                    time_budget_s: None,
                },
            },
            iso: true,
            grid_check: Some(3),
        }
    }

    #[test]
    fn report_has_the_contract_fields_and_a_dominating_front() {
        let doc = optimize_report(&request(), 2).expect("report");
        for key in [
            "request",
            "baseline",
            "front",
            "best",
            "search",
            "iso",
            "grid_check",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let front = match doc.get("front") {
            Some(Json::Arr(items)) => items,
            other => panic!("front not an array: {other:?}"),
        };
        assert!(!front.is_empty());
        assert_eq!(
            doc.get("grid_check").and_then(|g| g.get("dominated")),
            Some(&Json::Bool(true)),
            "front must dominate the seeded grid by construction"
        );
        // The cluster knob was clamped to the chip's actual clusters.
        let hi = doc
            .get("request")
            .and_then(|r| r.get("knobs"))
            .and_then(|k| k.get("clusters"))
            .and_then(|c| match c {
                Json::Arr(v) => v[1].as_f64(),
                _ => None,
            })
            .unwrap();
        assert!(hi <= 4.0, "small topo has 4 clusters, got {hi}");
    }

    #[test]
    fn unknown_app_is_a_client_error() {
        let mut req = request();
        req.app = "nope".to_string();
        let err = optimize_report(&req, 1).unwrap_err();
        assert!(err.contains("unknown app"), "{err}");
    }
}
