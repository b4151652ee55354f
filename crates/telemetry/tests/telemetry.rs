//! Integration tests exercising the telemetry crate the way the
//! simulation stack uses it: many threads hammering one counter,
//! histogram percentiles at their edge cases, the JSONL event stream
//! and the manifest's metric dump round-tripping through the crate's
//! own parser, and span sites shared across threads.

use accordion_telemetry::json::{self, Json};
use accordion_telemetry::registry::{global, HistogramMetric};
use accordion_telemetry::sink::{self, Event, EventKind, Level};
use accordion_telemetry::span::SpanGuard;
use accordion_telemetry::{span, RunManifest};
use std::sync::Arc;
use std::thread;

#[test]
fn concurrent_counter_increments_land_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let counter = global().counter("itest.concurrent.counter");
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                // Handles resolve to the same &'static atomic in every
                // thread; re-looking it up exercises the registry lock.
                let c = global().counter("itest.concurrent.counter");
                barrier.wait();
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("counter thread");
    }
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_histogram_count_is_exact() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 20_000;
    let h = global().histogram("itest.concurrent.hist", &[0.25, 0.5, 0.75]);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            thread::spawn(move || {
                let h = global().histogram("itest.concurrent.hist", &[0.25, 0.5, 0.75]);
                for i in 0..PER_THREAD {
                    h.record((i % 100) as f64 / 100.0 + t as f64 * 1e-4);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hist thread");
    }
    let s = h.snapshot();
    assert_eq!(s.count, (THREADS * PER_THREAD) as u64);
    assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
}

#[test]
fn empty_histogram_has_no_percentiles() {
    let h = HistogramMetric::new(&[1.0, 2.0]);
    assert_eq!(h.percentile(0.5), None);
    assert_eq!(h.percentile(0.99), None);
    let s = h.snapshot();
    assert_eq!(s.count, 0);
    assert_eq!(s.min, None);
    assert_eq!(s.max, None);
    assert_eq!(s.mean(), None);
}

#[test]
fn single_sample_dominates_every_percentile() {
    let h = HistogramMetric::new(&[10.0, 100.0, 1000.0]);
    h.record(42.0);
    // Whatever the bucket edges say, one observation bounds every
    // quantile to itself via the min/max clamp.
    for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(h.percentile(q), Some(42.0), "q={q}");
    }
}

#[test]
fn saturating_overflow_bucket_percentiles_clamp_to_max() {
    let h = HistogramMetric::new(&[1.0]);
    // Every observation overshoots the last bound → all land in the
    // overflow bucket, which has no upper edge.
    for v in [50.0, 75.0, 300.0] {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.buckets, vec![0, 3]);
    assert_eq!(h.percentile(0.5), Some(300.0), "overflow clamps to max");
    assert_eq!(h.percentile(1.0), Some(300.0));
    assert_eq!(h.percentile(0.0), Some(50.0));
}

#[test]
fn jsonl_event_line_round_trips_through_parser() {
    let event = Event {
        seq: 41,
        kind: EventKind::SpanEnd,
        level: Level::Info,
        name: "bench.artifact.fig5b",
        depth: 3,
        elapsed_ns: Some(1_234_567),
        thread: "dir\\\"quoted\"\nname",
    };
    // Exactly what JsonlSink writes: one compact-rendered object.
    let line = event.to_json().render();
    assert!(!line.contains('\n'), "a JSONL record is a single line");

    let parsed = json::parse(&line).expect("line parses");
    assert_eq!(parsed.get("seq").and_then(Json::as_f64), Some(41.0));
    assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("span_end"));
    assert_eq!(
        parsed.get("name").and_then(Json::as_str),
        Some("bench.artifact.fig5b")
    );
    assert_eq!(parsed.get("depth").and_then(Json::as_f64), Some(3.0));
    assert_eq!(
        parsed.get("elapsed_ns").and_then(Json::as_f64),
        Some(1_234_567.0)
    );
    assert_eq!(
        parsed.get("thread").and_then(Json::as_str),
        Some("dir\\\"quoted\"\nname"),
        "escaping survives the round trip"
    );
}

#[test]
fn registry_snapshot_is_valid_json() {
    global().counter("itest.snapshot.counter").add(7);
    global()
        .labeled_counter("itest.snapshot.counter", &[("outcome", "shed")])
        .add(2);
    global().gauge("itest.snapshot.gauge").set(-1.25);
    global()
        .histogram("itest.snapshot.hist", &[1.0, 10.0])
        .record(3.0);
    // The manifest's final metric dump is the registry's families,
    // keyed by exposition name.
    let rendered = RunManifest::new("itest").to_json().render_pretty();
    let parsed = json::parse(&rendered).expect("snapshot parses");
    let family = |name: &str| {
        parsed
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name} missing from {rendered}"))
    };
    // Samples are keyed by label body; the unlabelled one is "".
    let sample = |name: &str, labels: &str| {
        family(name)
            .get("samples")
            .and_then(|s| s.get(labels))
            .cloned()
            .unwrap_or_else(|| panic!("{name}{{{labels}}} missing from {rendered}"))
    };

    let counter = family("itest_snapshot_counter_total");
    assert_eq!(counter.get("type").and_then(Json::as_str), Some("counter"));
    assert_eq!(
        counter.get("help").and_then(Json::as_str),
        Some("accordion metric itest.snapshot.counter")
    );
    assert_eq!(sample("itest_snapshot_counter_total", ""), Json::Num(7.0));
    assert_eq!(
        sample("itest_snapshot_counter_total", "outcome=\"shed\""),
        Json::Num(2.0)
    );
    assert_eq!(sample("itest_snapshot_gauge", ""), Json::Num(-1.25));
    let hist = sample("itest_snapshot_hist", "");
    let nums = |xs: &[f64]| Some(Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()));
    assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
    assert_eq!(hist.get("sum").and_then(Json::as_f64), Some(3.0));
    assert_eq!(hist.get("bounds").cloned(), nums(&[1.0, 10.0]));
    assert_eq!(hist.get("buckets").cloned(), nums(&[0.0, 1.0, 0.0]));
}

#[test]
fn one_span_site_shares_its_stats_across_threads() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 1_000;
    fn site() {
        let _span = span!("itest.span.site");
    }
    sink::set_timing(true);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            thread::spawn(|| {
                for _ in 0..PER_THREAD {
                    site();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("span thread");
    }
    // Names built at run time still account per name.
    for name in ["itest.span.dyn.a", "itest.span.dyn.b", "itest.span.dyn.a"] {
        let _span = SpanGuard::enter(name);
    }
    sink::set_timing(false);
    let snapshot = global().span_snapshot();
    let calls = |name: &str| -> Vec<u64> {
        snapshot
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .collect()
    };
    assert_eq!(calls("itest.span.site"), vec![THREADS as u64 * PER_THREAD]);
    assert_eq!(calls("itest.span.dyn.a"), vec![2]);
    assert_eq!(calls("itest.span.dyn.b"), vec![1]);
}
