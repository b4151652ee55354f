//! `repro profile`: the protocol probe and the terminal dashboard.
//!
//! The figure generators exercise the analytical models heavily but
//! drive the event-emitting protocol layers (CC/DC rounds, phase
//! barriers, the drift runtime) only incidentally, and always from
//! pool workers where flight events have no deterministic track. The
//! *protocol probe* fills that gap: a small, fixed grid of
//! protocol-level runs executed on the calling thread under explicit
//! flight-recorder tracks, so every instrumented layer (`ccdc`,
//! `fault`, `phases`, `checkpoint`, `runtime`, `timing`) contributes
//! at least one event to the recording — byte-identically at any
//! `--jobs` count.
//!
//! The dashboard then renders three views over one profiled run:
//! a self/total span-time tree, the hottest artifacts, and the
//! error-outcome breakdown of the probe's app × Vdd grid.

use crate::output::{f, TextTable};
use accordion::pareto::ParetoExtractor;
use accordion::runtime::RuntimeController;
use accordion_apps::app::all_apps;
use accordion_apps::harness::FrontSet;
use accordion_apps::hotspot::Hotspot;
use accordion_chip::chip::Chip;
use accordion_sim::checkpoint::CheckpointParams;
use accordion_sim::phases::{iterative_app, run_app};
use accordion_sim::workload::Workload;
use accordion_stats::rng::SeedStream;
use accordion_telemetry::event::FlightLog;
use accordion_telemetry::registry::{self, SpanSnapshot};
use accordion_telemetry::{flight_track, span};
use std::collections::BTreeMap;

/// Per-DC nominal work of one probe data phase, cycles.
const PROBE_WORK_CYCLES: u64 = 1_000_000;
/// The probe's Vdd grid: supply in millivolts paired with the Drop
/// fraction the quality model targets there (Figure 7's ladder —
/// deeper NTV, higher tolerated drop).
const PROBE_VDD_GRID: &[(u64, f64)] = &[(500, 0.5), (550, 0.25), (600, 0.125)];
/// Seed namespace for the probe: disjoint from every artifact seed so
/// recording a profile can never perturb golden outputs.
const PROBE_SEED: u64 = 4001;

/// Runs the protocol probe on the calling thread.
///
/// Called outside any live flight-recorder track, so the probe chip's
/// per-chip tracks are top-level (`fab{n}/chip{i}`) like every
/// artifact's.
pub fn protocol_probe() {
    let _span = span!("bench.profile.probe");

    // App × Vdd grid: one short iterative app per cell, at the
    // per-cycle error rate that yields the cell's Drop target over a
    // phase's work (the same bridge `validate_point` uses).
    for app in all_apps() {
        for &(vdd_mv, drop_fraction) in PROBE_VDD_GRID {
            let _track = flight_track!("probe/{}/vdd{}", app.name(), vdd_mv);
            let perr = -f64::ln_1p(-drop_fraction) / PROBE_WORK_CYCLES as f64;
            let phases = iterative_app(3, PROBE_WORK_CYCLES, 10_000);
            let seed = SeedStream::new(PROBE_SEED).fork(app.name(), vdd_mv);
            run_app(&phases, 16, perr, seed);
        }
    }

    // Fabricate a small chip outside the runtime track (see doc
    // comment), then drive the drift runtime through a replan.
    let chip = Chip::fabricate_small(1).expect("probe chip fabrication");
    {
        let _track = flight_track!("probe/runtime");
        let controller = RuntimeController::new(&chip, Workload::rms_default(2e6), 0.05);
        let nclusters = chip.topology().num_clusters();
        let mut schedule = vec![vec![1.0; nclusters]];
        for _ in 0..3 {
            schedule.push(vec![0.75; nclusters]);
        }
        controller.run(&schedule, true);
    }

    {
        let _track = flight_track!("probe/checkpoint");
        let params = CheckpointParams::paper_default();
        params.optimal_interval_cycles(1e9);
        params.expected_checkpoints(1e10, 1e9);
    }

    // Columnar sweep probe: extract the four pareto fronts on the
    // small chip under an explicit track, so the `sweep` layer
    // contributes deterministic cell/front events and the span tree
    // attributes extraction time to the batched engine.
    {
        let _track = flight_track!("probe/sweep");
        let app = Hotspot::paper_default();
        let set = FrontSet::measured(&app);
        let extractor = ParetoExtractor::new(&chip, &app, &set);
        extractor.extract();
    }
}

/// One aggregated row of the probe's error-outcome breakdown.
#[derive(Debug, Default, Clone, Copy)]
struct OutcomeRow {
    rounds: u64,
    completed: u64,
    infected: u64,
    abandoned: u64,
    watchdog_fires: u64,
    restarts: u64,
}

/// Renders the profile dashboard for a drained recording plus the
/// wall-clock per-artifact timings captured by the caller.
pub fn render_dashboard(log: &FlightLog) -> String {
    let mut out = String::new();
    out.push_str("# Profile dashboard\n\n");
    out.push_str(&summary_section(log));
    out.push_str(&span_tree_section(&registry::global().span_snapshot()));
    out.push_str(&hottest_artifacts_section(
        &registry::global().span_snapshot(),
    ));
    out.push_str(&outcome_section(log));
    out
}

fn summary_section(log: &FlightLog) -> String {
    let mut out = String::new();
    out.push_str("## Recording\n\n");
    out.push_str(&format!(
        "events: {}   tracks: {}   dropped: {}   untracked: {}\n",
        log.len(),
        log.track_names.len(),
        log.dropped,
        log.untracked,
    ));
    let layers: Vec<String> = log
        .layer_counts()
        .iter()
        .map(|(layer, n)| format!("{layer}={n}"))
        .collect();
    out.push_str(&format!("layers: {}\n\n", layers.join(" ")));
    out
}

/// Renders the span accounting as a dotted-name tree with self time
/// (total minus time attributed to dotted descendants).
fn span_tree_section(spans: &[SpanSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("## Span tree (total / self)\n\n");
    if spans.is_empty() {
        out.push_str("(no spans recorded)\n\n");
        return out;
    }
    // Time attributed to descendants of each span: a child is any
    // span whose dotted name extends this one. Nested names are
    // summed once at their nearest recorded ancestor.
    let mut self_ns: BTreeMap<&str, i128> = spans
        .iter()
        .map(|s| (s.name.as_str(), s.total_ns as i128))
        .collect();
    for s in spans {
        if let Some(parent) = nearest_ancestor(spans, &s.name) {
            *self_ns.entry(parent).or_insert(0) -= s.total_ns as i128;
        }
    }
    let mut table = TextTable::new(["span", "calls", "total ms", "self ms", "max us"]);
    for s in spans {
        let depth = s.name.matches('.').count();
        let label = format!("{}{}", "  ".repeat(depth), s.name);
        // Concurrent children (pool fan-outs) can overlap the parent
        // wall clock; clamp attributed self time at zero.
        let own = (*self_ns.get(s.name.as_str()).unwrap_or(&0)).max(0) as f64;
        table.row([
            label,
            s.calls.to_string(),
            f(s.total_ns as f64 / 1e6),
            f(own / 1e6),
            f(s.max_ns as f64 / 1e3),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// The nearest recorded dotted ancestor of `name`, if any.
fn nearest_ancestor<'a>(spans: &'a [SpanSnapshot], name: &str) -> Option<&'a str> {
    let mut prefix = name;
    while let Some(cut) = prefix.rfind('.') {
        prefix = &prefix[..cut];
        if let Some(s) = spans.iter().find(|s| s.name == prefix) {
            return Some(s.name.as_str());
        }
    }
    None
}

/// Top-k artifacts by total wall time, from the `bench.artifact.*`
/// spans the registry records around every generator.
fn hottest_artifacts_section(spans: &[SpanSnapshot]) -> String {
    const TOP_K: usize = 10;
    let mut out = String::new();
    out.push_str(&format!("## Hottest artifacts (top {TOP_K})\n\n"));
    let mut artifacts: Vec<&SpanSnapshot> = spans
        .iter()
        .filter(|s| s.name.starts_with("bench.artifact."))
        .collect();
    if artifacts.is_empty() {
        out.push_str("(no artifacts generated)\n\n");
        return out;
    }
    artifacts.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    let mut table = TextTable::new(["artifact", "runs", "total ms", "max ms"]);
    for s in artifacts.iter().take(TOP_K) {
        let id = s.name.trim_start_matches("bench.artifact.");
        table.row([
            id.to_string(),
            s.calls.to_string(),
            f(s.total_ns as f64 / 1e6),
            f(s.max_ns as f64 / 1e6),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

/// Error-outcome breakdown of the probe grid, aggregated from
/// `ccdc.round` retirements per `probe/<app>/vdd<mV>` track.
fn outcome_section(log: &FlightLog) -> String {
    use accordion_telemetry::event::SimEvent;
    let mut out = String::new();
    out.push_str("## Probe outcomes per app x Vdd\n\n");
    let mut rows: BTreeMap<(String, String), OutcomeRow> = BTreeMap::new();
    for ev in &log.events {
        let track = log.track_name(ev);
        let mut parts = track.splitn(3, '/');
        let (Some("probe"), Some(app), Some(vdd)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if !vdd.starts_with("vdd") {
            continue;
        }
        if let SimEvent::RoundRetire {
            completed,
            infected,
            abandoned,
            watchdog_fires,
            restarts,
            ..
        } = ev.event
        {
            let row = rows.entry((app.to_string(), vdd.to_string())).or_default();
            row.rounds += 1;
            row.completed += completed;
            row.infected += infected;
            row.abandoned += abandoned;
            row.watchdog_fires += watchdog_fires;
            row.restarts += restarts;
        }
    }
    if rows.is_empty() {
        out.push_str("(no probe rounds recorded — run with profiling enabled)\n\n");
        return out;
    }
    let mut table = TextTable::new([
        "app",
        "vdd mV",
        "rounds",
        "clean",
        "corrupted",
        "dropped",
        "watchdogs",
        "restarts",
    ]);
    for ((app, vdd), row) in &rows {
        table.row([
            app.clone(),
            vdd.trim_start_matches("vdd").to_string(),
            row.rounds.to_string(),
            row.completed.to_string(),
            row.infected.to_string(),
            row.abandoned.to_string(),
            row.watchdog_fires.to_string(),
            row.restarts.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_telemetry::event::{FlightEvent, SimEvent};

    fn synthetic_log() -> FlightLog {
        let mut log = FlightLog::default();
        log.track_names.insert(7, "probe/canneal/vdd500".into());
        log.track_names.insert(9, "probe/runtime".into());
        log.events.push(FlightEvent {
            track: 7,
            seq: 0,
            t_cycles: 1_000,
            host_ns: 10,
            lane: 0,
            event: SimEvent::RoundRetire {
                completed: 10,
                infected: 4,
                abandoned: 2,
                watchdog_fires: 3,
                restarts: 0,
                makespan_cycles: 1_000,
            },
        });
        log.events.push(FlightEvent {
            track: 9,
            seq: 0,
            t_cycles: 0,
            host_ns: 11,
            lane: 0,
            event: SimEvent::Replan {
                epoch: 0,
                clusters: 2,
                f_ghz: 0.4,
            },
        });
        log
    }

    #[test]
    fn outcome_breakdown_aggregates_probe_tracks_only() {
        let section = outcome_section(&synthetic_log());
        assert!(section.contains("canneal"), "{section}");
        assert!(section.contains("500"), "{section}");
        // The runtime track carries no RoundRetire and must not show.
        assert!(!section.contains("runtime"), "{section}");
    }

    #[test]
    fn span_tree_attributes_self_time_to_nearest_ancestor() {
        let spans = vec![
            SpanSnapshot {
                name: "a".into(),
                calls: 1,
                total_ns: 10_000_000,
                max_ns: 10_000_000,
            },
            SpanSnapshot {
                name: "a.b.c".into(),
                calls: 2,
                total_ns: 4_000_000,
                max_ns: 3_000_000,
            },
        ];
        // "a.b" is unrecorded: "a.b.c" rolls up to "a" directly.
        assert_eq!(nearest_ancestor(&spans, "a.b.c"), Some("a"));
        let section = span_tree_section(&spans);
        // a's self time = 10 ms - 4 ms.
        assert!(section.contains("6.00"), "{section}");
    }

    #[test]
    fn dashboard_renders_on_empty_log() {
        let text = render_dashboard(&FlightLog::default());
        assert!(text.contains("Profile dashboard"));
        assert!(text.contains("events: 0"));
    }
}
