//! Micro-benchmarks of the telemetry layer's hot-path costs.
//!
//! The instrumentation in the simulation stack is compiled in
//! unconditionally, so these numbers are the per-event tax every run
//! pays: a counter increment and a disabled span must both stay at
//! nanosecond scale (single relaxed atomic operations), and a disabled
//! flight-recorder event must cost one load.

use accordion_telemetry::event::SimEvent;
use accordion_telemetry::registry::{exponential_bounds, global};
use accordion_telemetry::sink;
use accordion_telemetry::{counter, flight, flight_track, gauge, histogram, span};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/counter");
    group.bench_function("inc_cached_macro", |b| {
        b.iter(|| counter!("bench.telemetry.counter").inc())
    });
    let handle = global().counter("bench.telemetry.counter_handle");
    group.bench_function("inc_held_handle", |b| b.iter(|| handle.inc()));
    group.bench_function("gauge_set", |b| {
        b.iter(|| gauge!("bench.telemetry.gauge").set(black_box(1.5)))
    });
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/histogram");
    group.bench_function("record", |b| {
        let mut v = 0.0f64;
        b.iter(|| {
            v = (v + 17.3) % 5e7;
            histogram!("bench.telemetry.hist", exponential_bounds(10.0, 10.0, 7))
                .record(black_box(v))
        })
    });
    group.finish();
}

fn bench_spans(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/span");
    // No sink installed, timing off: the guard must be near-free —
    // this is the number that justifies spans in hot loops.
    sink::set_timing(false);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let _span = span!("bench.telemetry.span_disabled");
        })
    });
    // Timing on (repro's --manifest mode): clock reads + registry add.
    sink::set_timing(true);
    group.bench_function("timing_enabled", |b| {
        b.iter(|| {
            let _span = span!("bench.telemetry.span_timed");
        })
    });
    sink::set_timing(false);
    group.finish();
}

fn bench_flight(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/flight");
    // Recorder off (the default for every repro run without
    // `--chrome-trace`/`profile`): the gate must be one relaxed load,
    // with no event construction and no track bookkeeping — this is
    // the overhead every instrumented protocol loop pays.
    accordion_telemetry::event::disable();
    group.bench_function("disabled_event", |b| {
        b.iter(|| {
            flight!(SimEvent::SafeFreq {
                f_ghz: black_box(0.5),
            })
        })
    });
    group.bench_function("disabled_track", |b| {
        b.iter(|| {
            let _track = flight_track!("bench/track{}", black_box(1));
        })
    });
    group.finish();
}

fn bench_tsdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsdb");
    // Self-scrape cost: one full registry gather folded into the
    // fixed-memory ring-buffer store — the per-tick tax `repro serve`
    // pays on its scrape thread. The registry already carries this
    // binary's bench metrics; a spread of extra families makes the
    // workload representative of a live server's.
    let reg = global();
    for i in 0..16 {
        reg.counter(&format!("bench.tsdb.counter{i}")).inc();
    }
    for i in 0..4 {
        global()
            .histogram(
                &format!("bench.tsdb.hist{i}"),
                &exponential_bounds(1.0, 2.0, 20),
            )
            .record(black_box(37.0));
    }
    let tsdb = accordion_telemetry::tsdb::Tsdb::new();
    group.bench_function("scrape_ns", |b| b.iter(|| tsdb.scrape(black_box(reg))));
    group.finish();
}

criterion_group!(
    benches,
    bench_counters,
    bench_histogram,
    bench_spans,
    bench_flight,
    bench_tsdb
);
criterion_main!(benches);
