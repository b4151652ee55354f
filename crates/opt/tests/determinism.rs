//! The optimizer's determinism contract, end to end: the same request
//! renders byte-identical reports at any worker count and across
//! repeated runs in one process (warm caches change timing, never
//! bytes), and the reported front dominates-or-ties the seeded scout
//! grid — the "equivalent sweep" acceptance check.

use accordion_chip::topology::Topology;
use accordion_opt::nsga::OptConfig;
use accordion_opt::report::{optimize_report, OptimizeRequest};
use accordion_opt::space::{Constraints, KnobSpace};
use accordion_telemetry::json::{self, Json};

fn request(seed: u64) -> OptimizeRequest {
    OptimizeRequest {
        app: "hotspot".to_string(),
        topo: Topology::small(),
        pop_seed: 7100,
        chips: 2,
        chip: 0,
        cfg: OptConfig {
            seed,
            population: 12,
            generations: 3,
            scout_steps: 3,
            space: KnobSpace::full(4),
            constraints: Constraints {
                quality_floor: Some(0.9),
                power_budget_w: Some(50.0),
                time_budget_s: None,
            },
        },
        iso: true,
        grid_check: Some(3),
    }
}

#[test]
fn same_seed_same_bytes_at_any_worker_count() {
    let a = optimize_report(&request(7), 1).expect("report").render();
    let b = optimize_report(&request(7), 8).expect("report").render();
    assert_eq!(a, b, "workers must never change the bytes");
    // A third run in the same (now cache-warm) process: popcache,
    // quality fronts and sampler caches are hot, bytes unchanged.
    let c = optimize_report(&request(7), 4).expect("report").render();
    assert_eq!(a, c, "warm caches must never change the bytes");
}

/// The paper's 36-cluster chip: 6 cluster steps, so iso extraction
/// runs up to 18 bisections, the shape of a designer's request.
fn paper_request() -> OptimizeRequest {
    OptimizeRequest {
        topo: Topology::paper_default(),
        chips: 8,
        chip: 3,
        cfg: OptConfig {
            population: 8,
            generations: 2,
            space: KnobSpace::full(36),
            ..request(7).cfg
        },
        ..request(7)
    }
}

#[test]
fn paper_topology_reports_are_byte_identical_at_any_worker_count() {
    let a = optimize_report(&paper_request(), 1).expect("report");
    let iso = a.get("iso").expect("iso section");
    for curve in ["iso_power", "iso_time", "iso_quality"] {
        assert!(
            matches!(iso.get(curve), Some(Json::Arr(points)) if !points.is_empty()),
            "{curve} has points"
        );
    }
    let a = a.render();
    for workers in [2, 8] {
        let b = optimize_report(&paper_request(), workers)
            .expect("report")
            .render();
        assert_eq!(a, b, "{workers} workers must not change the bytes");
    }
}

#[test]
fn front_dominates_the_seeded_grid_and_respects_constraints() {
    let doc = optimize_report(&request(11), 4).expect("report");
    assert_eq!(
        doc.get("grid_check").and_then(|g| g.get("dominated")),
        Some(&Json::Bool(true)),
        "front must dominate-or-tie every scout-grid point"
    );
    let front = match doc.get("front") {
        Some(Json::Arr(items)) => items,
        other => panic!("front missing: {other:?}"),
    };
    assert!(!front.is_empty());
    // Feasible front points actually meet the declared constraints.
    let mut feasible = 0;
    for p in front {
        if p.get("feasible") == Some(&Json::Bool(true)) {
            feasible += 1;
            let q = p.get("quality").and_then(Json::as_f64).unwrap();
            let w = p.get("power_w").and_then(Json::as_f64).unwrap();
            assert!(q >= 0.9, "feasible point below quality floor: {q}");
            assert!(w <= 50.0, "feasible point over power budget: {w}");
        }
    }
    assert!(feasible > 0, "the feasible region is reachable");
}

#[test]
fn report_parses_and_carries_search_accounting() {
    let rendered = optimize_report(&request(3), 2).expect("report").render();
    let doc = json::parse(&rendered).expect("report is valid JSON");
    let search = doc.get("search").expect("search section");
    let evals = search.get("evals").and_then(Json::as_f64).unwrap();
    let hits = search.get("cache_hits").and_then(Json::as_f64).unwrap();
    assert!(evals > 0.0);
    assert!(hits > 0.0, "elitism must produce memo hits");
    let gens = match search.get("generations") {
        Some(Json::Arr(items)) => items,
        other => panic!("generations missing: {other:?}"),
    };
    // Scout grid + 3 breeding generations.
    assert_eq!(gens.len(), 4);
    assert_eq!(
        gens[0].get("generation").and_then(Json::as_f64),
        Some(0.0),
        "generation 0 is the scout grid"
    );
}

#[test]
fn different_seeds_may_search_differently_but_both_dominate_the_grid() {
    for seed in [5, 6] {
        let doc = optimize_report(&request(seed), 2).expect("report");
        assert_eq!(
            doc.get("grid_check").and_then(|g| g.get("dominated")),
            Some(&Json::Bool(true)),
            "seed {seed}"
        );
    }
}
