//! The simulation engine behind `/v1/simulate`, `/v1/sweep` and
//! `/v1/optimize`.
//!
//! One query answers the paper's central question for one operating
//! point: *given this chip instance at this supply, what frequency can
//! it speculatively run at, what does the CC/DC protocol perceive, and
//! what quality/energy does the application end up with?* The engine
//! stitches the existing layers together — nothing here forks the
//! simulation path, so a query returns exactly what the batch
//! artifacts compute for the same parameters:
//!
//! 1. **chip** — [`accordion_chip::popcache`] returns chip `chip` of
//!    the `(topology, seed)` population, fabricated at most once while
//!    resident and without its `chips - 1` siblings;
//! 2. **timing** — one [`OperatingTimings`] context per supply: the
//!    chip's own per-cluster timing (at its designated `VddNTV`) or
//!    re-derived at a requested supply, flattened to columnar form so
//!    frequency queries are flat array passes; a sweep derives the
//!    context once per `Vdd` row and shares it across the grid;
//! 3. **protocol** — [`run_app`] drives the CC/DC rounds at the
//!    speculative error rate, yielding drop/watchdog outcomes;
//! 4. **quality** — per-app [`QualityModel`]s (measured once per
//!    process, cached) interpolate the Figure 2/4 fronts;
//! 5. **energy** — the chip power model prices the active cores at the
//!    operating point.
//!
//! Every response is rendered with the deterministic
//! [`accordion_telemetry::json`] renderer, so identical queries return
//! byte-identical bodies at any worker count.

use accordion::quality::QualityModel;
use accordion_apps::app::all_apps;
use accordion_chip::chip::Chip;
use accordion_chip::columns::OperatingTimings;
use accordion_chip::popcache;
use accordion_chip::topology::{ClusterId, Topology};
use accordion_pool::Memo;
use accordion_sim::exec::ExecModel;
use accordion_sim::phases::{iterative_app, run_app};
use accordion_stats::rng::SeedStream;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::json::Json;
use accordion_telemetry::{counter, flight, flight_track, span};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

/// Upper bound on `chips` per query, and so on the chip index; a query
/// fabricates only the chip it reads, whatever its population size.
const MAX_CHIPS: usize = 100;
/// Upper bound on a sweep's grid size.
const MAX_GRID: usize = 1024;

/// A validated simulation query.
#[derive(Debug, Clone)]
pub struct SimQuery {
    /// Benchmark name (one of `all_apps()`).
    pub app: String,
    /// Chip topology: the paper's 288-core chip or the small test one.
    pub topo: Topology,
    /// Problem size, normalized to the benchmark default.
    pub size: f64,
    /// Supply override in millivolts; `None` uses the chip's `VddNTV`.
    pub vdd_mv: Option<f64>,
    /// Population seed (cache key together with `topo`/`chip`).
    pub pop_seed: u64,
    /// Protocol-simulation seed.
    pub seed: u64,
    /// Population size; only bounds `chip`.
    pub chips: usize,
    /// Which chip of the population to query.
    pub chip: usize,
    /// Data cores driven by the CC/DC protocol simulation.
    pub dcs: usize,
    /// Data/control phase iterations of the protocol run.
    pub iterations: usize,
    /// Target Drop fraction that sets the speculative error rate.
    pub drop_target: f64,
}

impl SimQuery {
    /// Parses and validates a query from a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the `400` body) when the JSON
    /// is malformed, a field has the wrong type, or a value is out of
    /// its documented range.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let app = doc
            .get("app")
            .and_then(Json::as_str)
            .ok_or("missing required string field \"app\"")?
            .to_string();
        if !all_apps().iter().any(|a| a.name() == app) {
            let known: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
            return Err(format!("unknown app {app:?}; known: {}", known.join(", ")));
        }
        let topo = match doc.get("topo").and_then(Json::as_str).unwrap_or("default") {
            "default" => Topology::paper_default(),
            "small" => Topology::small(),
            other => return Err(format!("unknown topo {other:?}; use default or small")),
        };
        let size = size_in_range(num_field(doc, "size", 1.0)?)?;
        let vdd_mv = match doc.get("vdd_mv") {
            None | Some(Json::Null) => None,
            Some(v) => Some(vdd_in_range(v.as_f64().ok_or("vdd_mv must be a number")?)?),
        };
        let pop_seed = int_field(doc, "pop_seed", 2014.0)? as u64;
        let seed = int_field(doc, "seed", 0.0)? as u64;
        let chips = int_field(doc, "chips", 8.0)? as usize;
        if chips == 0 || chips > MAX_CHIPS {
            return Err(format!("chips {chips} outside [1, {MAX_CHIPS}]"));
        }
        let chip = int_field(doc, "chip", 0.0)? as usize;
        if chip >= chips {
            return Err(format!("chip index {chip} outside population of {chips}"));
        }
        let dcs = int_field(doc, "dcs", 16.0)? as usize;
        if dcs == 0 || dcs > 1024 {
            return Err(format!("dcs {dcs} outside [1, 1024]"));
        }
        let iterations = int_field(doc, "iterations", 3.0)? as usize;
        if iterations == 0 || iterations > 64 {
            return Err(format!("iterations {iterations} outside [1, 64]"));
        }
        let drop_target = num_field(doc, "drop_target", 0.25)?;
        if !(0.0..1.0).contains(&drop_target) || drop_target == 0.0 {
            return Err(format!("drop_target {drop_target} outside (0, 1)"));
        }
        Ok(Self {
            app,
            topo,
            size,
            vdd_mv,
            pop_seed,
            seed,
            chips,
            chip,
            dcs,
            iterations,
            drop_target,
        })
    }
}

/// The bound on `size`, for `/v1/simulate` and every sweep axis value.
fn size_in_range(size: f64) -> Result<f64, String> {
    if (0.01..=100.0).contains(&size) {
        Ok(size)
    } else {
        Err(format!("size {size} outside [0.01, 100]"))
    }
}

/// The bound on `vdd_mv`, for `/v1/simulate` and every sweep axis value.
fn vdd_in_range(mv: f64) -> Result<f64, String> {
    if (300.0..=1200.0).contains(&mv) {
        Ok(mv)
    } else {
        Err(format!("vdd_mv {mv} outside [300, 1200]"))
    }
}

fn num_field(doc: &Json, key: &str, default: f64) -> Result<f64, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("{key} must be a number")),
    }
}

/// The largest integer a JSON number (an `f64`) holds exactly, 2^53.
/// Above it, distinct integers in a request would parse to one value.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn int_field(doc: &Json, key: &str, default: f64) -> Result<f64, String> {
    let v = num_field(doc, key, default)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{key} must be a non-negative integer"));
    }
    if v > MAX_EXACT_INT {
        return Err(format!("{key} must be at most 2^53 = 9007199254740992"));
    }
    Ok(v)
}

/// Errors a valid query can still hit while executing.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// Client-side problem discovered during execution → 400.
    Bad(String),
    /// Internal model failure (e.g. correlation factorization) → 500.
    Internal(String),
}

/// Per-app quality models, measured once per process
/// (`served.quality_cache`). Front measurement runs the real kernels
/// (seconds of work), which is exactly the state a long-lived service
/// exists to amortize. Measurement runs outside the memo's lock: a
/// cold canneal query does not block a warm hotspot one.
fn quality_for(app_name: &str) -> Arc<QualityModel> {
    static MODELS: LazyLock<Memo<String, Arc<QualityModel>>> =
        LazyLock::new(|| Memo::new("served.quality_cache", 16));
    MODELS.get_or_insert_with(app_name, || {
        let app = all_apps()
            .into_iter()
            .find(|a| a.name() == app_name)
            .expect("validated app name");
        Arc::new(QualityModel::measure(app.as_ref()))
    })
}

/// Answers one simulation query. See the module docs for the pipeline.
///
/// # Errors
///
/// [`EngineError::Bad`] for client mistakes surfacing late,
/// [`EngineError::Internal`] for model failures.
pub fn simulate(q: &SimQuery) -> Result<Json, EngineError> {
    let chip = cached_chip(q)?;
    let vdd_v = q.vdd_mv.map_or(chip.vdd_ntv_v(), |mv| mv / 1000.0);
    let ctx = OperatingTimings::at(&chip, vdd_v);
    simulate_at(q, &chip, &ctx)
}

/// The query's chip from [`popcache::chip`], noting the lookup in the
/// request's access-log line and as the `serve.cache` flight stage.
fn cached_chip(q: &SimQuery) -> Result<Arc<Chip>, EngineError> {
    let cache_started = Instant::now();
    let (chip, cache_hit) = popcache::chip(q.topo, q.pop_seed, q.chip)
        .map_err(|e| EngineError::Internal(format!("variation sampler: {e:?}")))?;
    crate::obs::note_cache(cache_hit);
    let cache_us = cache_started.elapsed().as_micros() as u64;
    accordion_telemetry::event::advance_sim(cache_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.cache",
        us: cache_us,
    });
    Ok(chip)
}

/// The per-point core of [`simulate`]: everything downstream of the
/// chip lookup and per-supply timing derivation, so a sweep can
/// hoist both and share one [`OperatingTimings`] across every grid
/// cell at the same `Vdd`. `ctx` must have been derived from `chip`
/// at the query's operating supply.
fn simulate_at(q: &SimQuery, chip: &Chip, ctx: &OperatingTimings) -> Result<Json, EngineError> {
    let _span = span!("served.engine.simulate");
    counter!("served.engine.simulations").inc();
    let quality = quality_for(&q.app);
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == q.app)
        .expect("validated app name");

    // Per-cluster timing at the operating supply, from the hoisted
    // context: chip-wide safe frequency and the columnar binding-
    // frequency query (both bit-identical to the per-cluster object
    // walk they replaced).
    let vdd_v = ctx.vdd_v();
    let f_safe = ctx.f_safe_ghz();

    // Workload → per-thread cycles → speculative error rate. The
    // error-rate bridge is the validation module's: the Drop-x level
    // the quality model reads corresponds to Perr = −ln(1−x)/e.
    let exec = ExecModel::paper_default();
    let w = app.full_scale_workload(app.default_knob()).scaled(q.size);
    let n_cores = chip.topology().num_cores();
    let e_cycles = exec.thread_cycles(&w, w.work_units / n_cores as f64, f_safe);
    let perr = (-f64::ln_1p(-q.drop_target) / e_cycles).clamp(1e-300, 0.999_999);
    let f_run = ctx.min_frequency_for_perr(perr);

    // Protocol outcome at the speculative rate.
    let work = (e_cycles / q.iterations as f64).clamp(1.0, 1e15) as u64;
    let phases = iterative_app(q.iterations, work, 10_000);
    let run = run_app(&phases, q.dcs, perr, SeedStream::new(q.seed));

    // Quality from the measured fronts, clamped to their domain.
    let (lo, hi) = quality.size_domain();
    let s = q.size.clamp(lo, hi);

    // Energy: active cores plus uncore across the whole chip, at the
    // operating supply and speculative frequency.
    let clusters = (0..chip.topology().num_clusters()).map(ClusterId);
    let power_w = chip.power_at_w(clusters, vdd_v, f_run);
    let time_s = e_cycles / (f_run * 1e9);

    Ok(Json::obj(vec![
        (
            "request",
            Json::obj(vec![
                ("app", Json::str(&q.app)),
                (
                    "topo",
                    Json::str(if q.topo == Topology::small() {
                        "small"
                    } else {
                        "default"
                    }),
                ),
                ("size", Json::Num(q.size)),
                ("vdd_mv", Json::Num(vdd_v * 1000.0)),
                ("pop_seed", Json::Num(q.pop_seed as f64)),
                ("seed", Json::Num(q.seed as f64)),
                ("chips", Json::Num(q.chips as f64)),
                ("chip", Json::Num(q.chip as f64)),
                ("dcs", Json::Num(q.dcs as f64)),
                ("iterations", Json::Num(q.iterations as f64)),
                ("drop_target", Json::Num(q.drop_target)),
            ]),
        ),
        (
            "frequency",
            Json::obj(vec![
                ("f_safe_ghz", Json::Num(f_safe)),
                ("f_run_ghz", Json::Num(f_run)),
                ("speculative_gain", Json::Num(f_run / f_safe)),
                ("perr_per_cycle", Json::Num(perr)),
            ]),
        ),
        (
            "quality",
            Json::obj(vec![
                ("safe", Json::Num(quality.quality_safe(s))),
                ("speculative", Json::Num(quality.quality_speculative(s))),
                (
                    "scenario",
                    Json::str(quality.speculative_scenario().label()),
                ),
            ]),
        ),
        (
            "outcome",
            Json::obj(vec![
                ("drop_fraction", Json::Num(run.overall_drop_fraction)),
                ("watchdog_fires", Json::Num(f64::from(run.watchdog_fires))),
                ("makespan_cycles", Json::Num(run.makespan_cycles as f64)),
                ("rounds", Json::Num(run.rounds.len() as f64)),
            ]),
        ),
        (
            "energy",
            Json::obj(vec![
                ("power_w", Json::Num(power_w)),
                ("time_s", Json::Num(time_s)),
                ("energy_j", Json::Num(power_w * time_s)),
            ]),
        ),
    ]))
}

/// Parses and runs a `/v1/sweep` body: the same fields as
/// `/v1/simulate` except `vdd_mv` and `size` may be arrays (a number
/// is a one-point axis); the cross product becomes the grid, executed
/// as one ordered parallel map over `workers` pool threads.
///
/// # Errors
///
/// [`EngineError::Bad`] on malformed input or an oversized grid;
/// [`EngineError::Internal`] on model failures in any grid point.
pub fn sweep(doc: &Json, workers: usize) -> Result<Json, EngineError> {
    let _span = span!("served.engine.sweep");
    let vdds: Vec<Option<f64>> = match axis(doc, "vdd_mv")? {
        Some(mvs) => mvs.into_iter().map(Some).collect(),
        None => vec![None],
    };
    let sizes = axis(doc, "size")?.unwrap_or_else(|| vec![1.0]);
    if vdds.is_empty() || sizes.is_empty() {
        return Err(EngineError::Bad(
            "vdd_mv/size arrays must be non-empty".into(),
        ));
    }
    if vdds.len() * sizes.len() > MAX_GRID {
        return Err(EngineError::Bad(format!(
            "grid of {} points exceeds the {MAX_GRID}-point cap",
            vdds.len() * sizes.len()
        )));
    }

    // Validate once with scalar placeholders, then stamp out the grid.
    let mut scalar = doc.clone();
    set_field(&mut scalar, "vdd_mv", vdds[0].map_or(Json::Null, Json::Num));
    set_field(&mut scalar, "size", Json::Num(sizes[0]));
    let base = SimQuery::from_json(&scalar).map_err(EngineError::Bad)?;
    for &mv in vdds.iter().flatten() {
        vdd_in_range(mv).map_err(EngineError::Bad)?;
    }
    for &size in &sizes {
        size_in_range(size).map_err(EngineError::Bad)?;
    }

    // Warm the shared state sequentially (chip + quality fronts) so
    // the fan-out below is pure per-point work.
    let _ = quality_for(&base.app);
    let chip = cached_chip(&base)?;

    // Incremental sweep: one per-supply timing context per distinct
    // `Vdd` (grid rows), derived once here and shared by every size
    // cell in the row. A G-cell grid does O(rows) timing setup, not G.
    let ctxs: Vec<OperatingTimings> = vdds
        .iter()
        .map(|&vdd| {
            let vdd_v = vdd.map_or(chip.vdd_ntv_v(), |mv| mv / 1000.0);
            OperatingTimings::at(&chip, vdd_v)
        })
        .collect();

    let mut grid: Vec<SimQuery> = Vec::with_capacity(vdds.len() * sizes.len());
    for &vdd in &vdds {
        for &size in &sizes {
            grid.push(SimQuery {
                vdd_mv: vdd,
                size,
                ..base.clone()
            });
        }
    }
    counter!("served.engine.sweep_points").add(grid.len() as u64);
    // Fan out over the pool. Each point enters its own flight track
    // under the request's, which the pool carries to its workers, so a
    // Chrome trace shows per-request span trees (`req00000012/point7`)
    // at any worker count. Grid order is vdd-major, so point `i` reads
    // row `i / sizes.len()`'s hoisted context.
    let fanout_started = Instant::now();
    let points = accordion_pool::par_map_indexed_with(workers, grid.len(), |i| {
        let _t = flight_track!("point{}", i);
        simulate_at(&grid[i], &chip, &ctxs[i / sizes.len()])
    });
    let fanout_us = fanout_started.elapsed().as_micros() as u64;
    accordion_telemetry::event::advance_sim(fanout_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.fanout",
        us: fanout_us,
    });
    let mut rendered = Vec::with_capacity(points.len());
    for p in points {
        rendered.push(p?);
    }
    Ok(Json::obj(vec![
        ("count", Json::Num(rendered.len() as f64)),
        ("grid", Json::Arr(rendered)),
    ]))
}

/// One sweep axis: an array of numbers, or a number as a one-point
/// axis. `None` when the field is absent or null; anything else gets
/// the message `/v1/simulate` gives for the field.
fn axis(doc: &Json, key: &str) -> Result<Option<Vec<f64>>, EngineError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_f64().ok_or(format!("{key} entries must be numbers")))
            .collect::<Result<_, _>>()
            .map(Some),
        Some(v) => v
            .as_f64()
            .map(|x| Some(vec![x]))
            .ok_or(format!("{key} must be a number")),
    }
    .map_err(EngineError::Bad)
}

fn set_field(doc: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = doc {
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            pairs.push((key.to_string(), value));
        }
    }
}

// ---------------------------------------------------------------------------
// `/v1/optimize`: the operating-point optimizer behind the service.
// ---------------------------------------------------------------------------

/// Upper bound on the optimizer's per-generation population.
const MAX_OPT_POPULATION: usize = 128;
/// Upper bound on breeding generations per request.
const MAX_OPT_GENERATIONS: usize = 64;

fn bool_field(doc: &Json, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key} must be a boolean")),
    }
}

/// Parses and validates a `/v1/optimize` body into an
/// [`accordion_opt::OptimizeRequest`]; bounds keep one request's work
/// finite. `repro optimize` fills a body from its flags and validates
/// it here too, so the CLI and the route accept the same requests and
/// reject the rest with the same messages.
///
/// # Errors
///
/// A human-readable message (the `400` body) when the JSON is
/// malformed, a field has the wrong type, or a value is out of range.
pub fn optimize_request_from_json(doc: &Json) -> Result<accordion_opt::OptimizeRequest, String> {
    use accordion_opt::{Constraints, KnobSpace, OptConfig};
    let app = doc
        .get("app")
        .and_then(Json::as_str)
        .ok_or("missing required string field \"app\"")?
        .to_string();
    if !all_apps().iter().any(|a| a.name() == app) {
        let known: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
        return Err(format!("unknown app {app:?}; known: {}", known.join(", ")));
    }
    let topo = match doc.get("topo").and_then(Json::as_str).unwrap_or("default") {
        "default" => Topology::paper_default(),
        "small" => Topology::small(),
        other => return Err(format!("unknown topo {other:?}; use default or small")),
    };
    let pop_seed = int_field(doc, "pop_seed", 2014.0)? as u64;
    let chips = int_field(doc, "chips", 8.0)? as usize;
    if chips == 0 || chips > MAX_CHIPS {
        return Err(format!("chips {chips} outside [1, {MAX_CHIPS}]"));
    }
    let chip = int_field(doc, "chip", 0.0)? as usize;
    if chip >= chips {
        return Err(format!("chip index {chip} outside population of {chips}"));
    }
    let seed = int_field(doc, "seed", 0.0)? as u64;
    let population = int_field(doc, "population", 24.0)? as usize;
    if !(4..=MAX_OPT_POPULATION).contains(&population) {
        return Err(format!(
            "population {population} outside [4, {MAX_OPT_POPULATION}]"
        ));
    }
    let generations = int_field(doc, "generations", 8.0)? as usize;
    if generations == 0 || generations > MAX_OPT_GENERATIONS {
        return Err(format!(
            "generations {generations} outside [1, {MAX_OPT_GENERATIONS}]"
        ));
    }
    let scout_steps = int_field(doc, "scout_steps", 3.0)? as u32;
    if !(2..=6).contains(&scout_steps) {
        return Err(format!("scout_steps {scout_steps} outside [2, 6]"));
    }
    let quality_floor = match doc.get("quality_floor") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let q = v.as_f64().ok_or("quality_floor must be a number")?;
            if !(0.0..=1.0).contains(&q) {
                return Err(format!("quality_floor {q} outside [0, 1]"));
            }
            Some(q)
        }
    };
    let power_budget_w = match doc.get("power_budget_w") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let w = v.as_f64().ok_or("power_budget_w must be a number")?;
            if w <= 0.0 || !w.is_finite() {
                return Err(format!("power_budget_w {w} must be positive"));
            }
            Some(w)
        }
    };
    let time_budget_s = match doc.get("time_budget_s") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let t = v.as_f64().ok_or("time_budget_s must be a number")?;
            if t <= 0.0 || !t.is_finite() {
                return Err(format!("time_budget_s {t} must be positive"));
            }
            Some(t)
        }
    };
    let iso = bool_field(doc, "iso", false)?;
    let grid_check = match doc.get("grid_check") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let steps = v
                .as_f64()
                .filter(|s| s.fract() == 0.0 && (2.0..=6.0).contains(s))
                .ok_or("grid_check must be an integer in [2, 6]")?;
            Some(steps as u32)
        }
    };
    // The cluster-knob ceiling is clamped to the chip's actual cluster
    // count inside `optimize_report`; 64 just has to exceed it.
    Ok(accordion_opt::OptimizeRequest {
        app,
        topo,
        pop_seed,
        chips,
        chip,
        cfg: OptConfig {
            seed,
            population,
            generations,
            scout_steps,
            space: KnobSpace::full(64),
            constraints: Constraints {
                quality_floor,
                power_budget_w,
                time_budget_s,
            },
        },
        iso,
        grid_check,
    })
}

/// Parses and runs a `/v1/optimize` body: knob-space search via the
/// seeded NSGA-II loop in `accordion-opt`, sharing the process-wide
/// chip/quality caches with the other routes. The report is a
/// pure function of the request document (see `accordion_opt::report`),
/// which is what lets the server memoize it by request body.
///
/// # Errors
///
/// [`EngineError::Bad`] on malformed input, [`EngineError::Internal`]
/// on model failures (e.g. the variation sampler).
pub fn optimize(doc: &Json, workers: usize) -> Result<Json, EngineError> {
    let _span = span!("served.engine.optimize");
    let req = optimize_request_from_json(doc).map_err(EngineError::Bad)?;
    counter!("served.engine.optimizations").inc();
    accordion_opt::optimize_report(&req, workers).map_err(|msg| {
        // Binding errors surfacing past our validation are model-side.
        if msg.starts_with("variation sampler") {
            EngineError::Internal(msg)
        } else {
            EngineError::Bad(msg)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_telemetry::json;

    fn query(body: &str) -> SimQuery {
        SimQuery::from_json(&json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn defaults_fill_in() {
        let q = query(r#"{"app": "hotspot"}"#);
        assert_eq!(q.chips, 8);
        assert_eq!(q.chip, 0);
        assert_eq!(q.topo, Topology::paper_default());
        assert_eq!(q.vdd_mv, None);
        assert_eq!(q.drop_target, 0.25);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        for body in [
            r#"{}"#,
            r#"{"app": "nope"}"#,
            r#"{"app": "hotspot", "chips": 0}"#,
            r#"{"app": "hotspot", "chip": 8}"#,
            r#"{"app": "hotspot", "vdd_mv": 90}"#,
            r#"{"app": "hotspot", "drop_target": 1.5}"#,
            r#"{"app": "hotspot", "size": "big"}"#,
            r#"{"app": "hotspot", "topo": "mega"}"#,
        ] {
            let doc = json::parse(body).unwrap();
            assert!(SimQuery::from_json(&doc).is_err(), "{body}");
        }
    }

    #[test]
    fn sweep_rejects_bad_axes_like_simulate() {
        for body in [
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "size": "big"}"#,
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "vdd_mv": true}"#,
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "vdd_mv": {"mv": 600}}"#,
        ] {
            let doc = json::parse(body).unwrap();
            let simulate_msg = SimQuery::from_json(&doc).unwrap_err();
            match sweep(&doc, 1) {
                Err(EngineError::Bad(msg)) => assert_eq!(msg, simulate_msg, "{body}"),
                other => panic!("{body}: expected a 400, got {other:?}"),
            }
        }
        for body in [
            r#"{"app": "hotspot", "size": ["big"]}"#,
            r#"{"app": "hotspot", "vdd_mv": []}"#,
            r#"{"app": "hotspot", "vdd_mv": 90}"#,
            r#"{"app": "hotspot", "size": 500}"#,
        ] {
            let doc = json::parse(body).unwrap();
            assert!(matches!(sweep(&doc, 1), Err(EngineError::Bad(_))), "{body}");
        }
    }

    #[test]
    fn simulate_is_deterministic_and_sane() {
        let mut q = query(r#"{"app": "hotspot", "topo": "small", "chips": 2}"#);
        q.pop_seed = 9101;
        let a = simulate(&q).unwrap().render();
        let b = simulate(&q).unwrap().render();
        assert_eq!(a, b);
        let doc = json::parse(&a).unwrap();
        let f_safe = doc
            .get("frequency")
            .and_then(|f| f.get("f_safe_ghz"))
            .and_then(Json::as_f64)
            .unwrap();
        let f_run = doc
            .get("frequency")
            .and_then(|f| f.get("f_run_ghz"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(f_safe > 0.1 && f_safe < 1.0, "f_safe {f_safe}");
        assert!(f_run > f_safe, "speculation must buy frequency");
        let power = doc
            .get("energy")
            .and_then(|e| e.get("power_w"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(power > 0.0 && power < 200.0, "power {power}");
    }

    #[test]
    fn a_cold_chip_renders_as_in_its_whole_population() {
        // A cold query fabricates chip 99 alone; its bytes must not
        // change once the whole population is resident, and must be
        // those of chip 99 of a directly fabricated population.
        let q = query(
            r#"{"app": "hotspot", "topo": "small", "chips": 100, "chip": 99, "pop_seed": 9105}"#,
        );
        let alone = simulate(&q).unwrap().render();
        assert_eq!(popcache::population(q.topo, 9105, 100).unwrap().len(), 100);
        assert_eq!(simulate(&q).unwrap().render(), alone);
        let direct = Chip::fabricate_population(
            q.topo,
            &accordion_varius::params::VariationParams::default(),
            SeedStream::new(9105),
            0,
            100,
        )
        .unwrap();
        let ctx = OperatingTimings::at(&direct[99], direct[99].vdd_ntv_v());
        assert_eq!(simulate_at(&q, &direct[99], &ctx).unwrap().render(), alone);
    }

    #[test]
    fn vdd_override_changes_frequencies() {
        let mut q = query(r#"{"app": "hotspot", "topo": "small", "chips": 2}"#);
        q.pop_seed = 9102;
        let ntv = simulate(&q).unwrap();
        q.vdd_mv = Some(700.0);
        let boosted = simulate(&q).unwrap();
        let f = |doc: &Json| {
            doc.get("frequency")
                .and_then(|f| f.get("f_safe_ghz"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(f(&boosted) > f(&ntv), "higher Vdd must clock faster");
    }

    #[test]
    fn optimize_request_validation() {
        let ok = json::parse(r#"{"app": "hotspot", "topo": "small", "chips": 2}"#).unwrap();
        let req = optimize_request_from_json(&ok).unwrap();
        assert_eq!(req.cfg.population, 24);
        assert_eq!(req.cfg.generations, 8);
        assert!(!req.iso);
        assert!(req.grid_check.is_none());
        for body in [
            r#"{}"#,
            r#"{"app": "nope"}"#,
            r#"{"app": "hotspot", "population": 2}"#,
            r#"{"app": "hotspot", "generations": 0}"#,
            r#"{"app": "hotspot", "generations": 65}"#,
            r#"{"app": "hotspot", "scout_steps": 9}"#,
            r#"{"app": "hotspot", "quality_floor": 1.5}"#,
            r#"{"app": "hotspot", "power_budget_w": -1}"#,
            r#"{"app": "hotspot", "iso": "yes"}"#,
            r#"{"app": "hotspot", "grid_check": 10}"#,
        ] {
            let doc = json::parse(body).unwrap();
            assert!(optimize_request_from_json(&doc).is_err(), "{body}");
        }
    }

    #[test]
    fn optimize_is_deterministic() {
        let doc = json::parse(
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9104,
                "seed": 5, "population": 8, "generations": 2, "scout_steps": 2,
                "quality_floor": 0.9, "grid_check": 2}"#,
        )
        .unwrap();
        let a = optimize(&doc, 2).unwrap().render();
        let b = optimize(&doc, 1).unwrap().render();
        assert_eq!(a, b, "worker count must never change the bytes");
        let parsed = json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("grid_check").and_then(|g| g.get("dominated")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn sweep_matches_pointwise_simulate() {
        for app in ["hotspot", "x264"] {
            let doc = json::parse(&format!(
                r#"{{"app": "{app}", "topo": "small", "chips": 2, "pop_seed": 9103,
                    "size": [0.5, 1.0], "vdd_mv": [550, 600]}}"#
            ))
            .unwrap();
            let grid = sweep(&doc, 2).unwrap();
            assert_eq!(grid.get("count").and_then(Json::as_f64), Some(4.0));
            let Some(Json::Arr(items)) = grid.get("grid") else {
                panic!("grid missing");
            };
            // Grid order is the vdd-major cross product; each entry
            // equals the scalar endpoint's answer for the same
            // parameters.
            let mut q = query(&format!(
                r#"{{"app": "{app}", "topo": "small", "chips": 2, "pop_seed": 9103}}"#
            ));
            let points = [(550.0, 0.5), (550.0, 1.0), (600.0, 0.5), (600.0, 1.0)];
            for (item, (vdd_mv, size)) in items.iter().zip(points) {
                q.vdd_mv = Some(vdd_mv);
                q.size = size;
                assert_eq!(
                    simulate(&q).unwrap().render(),
                    item.render(),
                    "{app} at {vdd_mv} mV, size {size}"
                );
            }
        }
        // A number is a one-point axis: the sweep answers exactly what
        // `/v1/simulate` answers for the same body.
        let body = r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9103,
            "vdd_mv": 700, "size": 0.5}"#;
        let doc = json::parse(body).unwrap();
        let grid = sweep(&doc, 2).unwrap();
        assert_eq!(
            grid.get("grid").map(Json::render),
            Some(Json::Arr(vec![simulate(&query(body)).unwrap()]).render())
        );
    }
}
