//! Serving-path observability, end to end: the JSONL access log's
//! `--jobs`-invariance, the live `/metrics` document's conformance to
//! the Prometheus text format, the enriched `/healthz` fields, and the
//! per-request span trees in the flight recorder.
//!
//! Tests serialize on one mutex: they share the process-global
//! telemetry registry, chip cache and flight recorder, and two
//! concurrently-running servers would interleave their effects.

use accordion_served::{start, ServeConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn raw_request(addr: SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    let _ = conn.read_to_string(&mut out);
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    raw_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    raw_request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

fn small_sim(seed: u64) -> String {
    format!(
        r#"{{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 8211, "seed": {seed}}}"#
    )
}

const SWEEP: &str = r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 8211,
                        "vdd_mv": [550, 600], "size": [0.5, 1.0]}"#;

/// Pre-fabricates the chips every request below uses, so the first
/// server to run does not log a one-off `"cache":"miss"` the second
/// server cannot reproduce (the chip cache is process-global).
fn warm_popcache() {
    accordion_chip::popcache::population(accordion_chip::topology::Topology::small(), 8211, 2)
        .expect("warm population");
}

/// Drives one fixed, serial request sequence and returns the access
/// log bytes. `/metrics` and `/healthz` are deliberately absent from
/// the mix: their response bodies embed wall-clock and latency values,
/// so their `bytes` field varies run to run.
fn access_log_for(request_jobs: usize, log_path: &std::path::Path) -> String {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        request_jobs,
        max_body_bytes: 512,
        access_log: Some(log_path.to_str().unwrap().to_string()),
        log_timing: false,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    assert!(post(addr, "/v1/simulate", &small_sim(1)).starts_with("HTTP/1.1 200"));
    assert!(post(addr, "/v1/sweep", SWEEP).starts_with("HTTP/1.1 200"));
    assert!(get(addr, "/v1/artifacts").starts_with("HTTP/1.1 200"));
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    assert!(get(addr, "/v1/simulate").starts_with("HTTP/1.1 405"));
    assert!(post(addr, "/v1/simulate", "{nope").starts_with("HTTP/1.1 400"));
    let oversized = "x".repeat(600);
    assert!(post(addr, "/v1/simulate", &oversized).starts_with("HTTP/1.1 413"));
    assert!(post(addr, "/v1/simulate", &small_sim(2)).starts_with("HTTP/1.1 200"));

    handle.shutdown();
    std::fs::read_to_string(log_path).expect("read access log")
}

#[test]
fn access_log_is_byte_identical_across_job_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    warm_popcache();
    let dir = std::env::temp_dir().join("accordion-observability-test");
    std::fs::create_dir_all(&dir).unwrap();

    let log_1 = access_log_for(1, &dir.join("access-jobs1.jsonl"));
    let log_8 = access_log_for(8, &dir.join("access-jobs8.jsonl"));
    assert_eq!(
        log_1, log_8,
        "access log must be byte-identical at request_jobs 1 vs 8"
    );

    // The logical fields the satellite contract names, visible in the
    // fixed sequence: outcome classes, handler names, cache status.
    assert_eq!(log_1.lines().count(), 8, "{log_1}");
    for needle in [
        r#""handler":"simulate","cache":"hit""#,
        r#""handler":"sweep","cache":"hit""#,
        r#""handler":"artifacts_list","cache":"-""#,
        r#""status":404,"outcome":"error""#,
        r#""status":405,"outcome":"error""#,
        r#""status":400,"outcome":"error""#,
        r#""status":413,"outcome":"too_large""#,
    ] {
        assert!(log_1.contains(needle), "{needle} missing from:\n{log_1}");
    }
    // Timing was disabled: no wall-clock field may appear.
    assert!(!log_1.contains("latency_us"), "{log_1}");
    assert!(!log_1.contains("queue_us"), "{log_1}");
    // Ids are accept-ordered from 1.
    assert!(log_1.starts_with(r#"{"id":1,"#), "{log_1}");
}

#[test]
fn live_metrics_document_lints_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    warm_popcache();
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    // Touch enough routes that the interesting families have samples.
    assert!(post(addr, "/v1/simulate", &small_sim(3)).starts_with("HTTP/1.1 200"));
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    let reply = get(addr, "/metrics");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let text = body_of(&reply);

    let report = accordion_telemetry::prom::lint(text)
        .unwrap_or_else(|e| panic!("/metrics must lint clean, got: {e:#?}"));
    assert!(report.families > 10, "{report:?}");

    for needle in [
        "# TYPE served_http_request_latency_us histogram",
        "served_http_request_latency_us_bucket{outcome=\"ok\",le=\"",
        "served_http_requests_by_outcome_total{outcome=\"ok\"}",
        "served_build_info{",
        "served_uptime_seconds",
        "served_queue_depth",
        "served_http_in_flight",
    ] {
        assert!(text.contains(needle), "{needle} missing from /metrics");
    }

    // The per-outcome histogram counts every answered request of its
    // class, as the per-outcome counter does.
    let outcomes: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("served_http_requests_by_outcome_total{outcome=\""))
        .filter_map(|l| l.split_once("\"} "))
        .collect();
    assert!(outcomes.iter().any(|(o, _)| *o == "ok"), "{outcomes:?}");
    for (outcome, requests) in outcomes {
        let count =
            format!("served_http_request_latency_us_count{{outcome=\"{outcome}\"}} {requests}\n");
        assert!(text.contains(&count), "{count} missing from /metrics");
    }

    // Its buckets and count are cumulative: a later scrape reads none
    // of them lower.
    let series = |text: &str| -> Vec<(String, f64)> {
        text.lines()
            .filter(|l| {
                l.starts_with("served_http_request_latency_us_bucket{")
                    || l.starts_with("served_http_request_latency_us_count{")
            })
            .map(|l| {
                let (name, rest) = l.split_once("} ").expect("labelled sample");
                let value = rest.split(' ').next().expect("value");
                (name.to_string(), value.parse().expect("numeric sample"))
            })
            .collect()
    };
    let first = series(text);
    assert!(post(addr, "/v1/simulate", &small_sim(5)).starts_with("HTTP/1.1 200"));
    let second = get(addr, "/metrics");
    let second: BTreeMap<String, f64> = series(body_of(&second)).into_iter().collect();
    for (name, before) in first {
        let after = second.get(&name).copied();
        assert!(
            after.is_some_and(|after| after >= before),
            "{name}: {before} then {after:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn healthz_reports_queue_and_drain_state() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    let reply = get(addr, "/healthz");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let body = body_of(&reply);
    for needle in [
        r#""queue_depth":"#,
        r#""in_flight":"#,
        r#""handled":"#,
        r#""shed":0"#,
        r#""uptime_seconds":"#,
        r#""queue_capacity":128"#,
        r#""chips":"#,
    ] {
        assert!(body.contains(needle), "{needle} missing from {body}");
    }
    // This healthz request is itself in flight while rendering.
    assert!(body.contains(r#""in_flight":1"#), "{body}");
    handle.shutdown();
}

#[test]
fn flight_recorder_captures_per_request_span_trees() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    warm_popcache();
    accordion_telemetry::sink::set_timing(true);
    accordion_telemetry::event::enable();
    accordion_telemetry::event::drain();
    for request_jobs in [1, 2] {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 1,
            request_jobs,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        assert!(post(addr, "/v1/simulate", &small_sim(4)).starts_with("HTTP/1.1 200"));
        // Sweep bodies unique to this test and job count: sweeps
        // coalesce process-wide, and per-point tracks only exist for a
        // real (non-replayed) fan-out, so reusing a grid would race
        // test order.
        let sweep = |axes: &str| {
            format!(
                r#"{{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 8211,
                     "seed": {}, {axes}}}"#,
                400 + request_jobs
            )
        };
        let grid = sweep(r#""vdd_mv": [550, 600], "size": [0.5, 1.0]"#);
        assert!(post(addr, "/v1/sweep", &grid).starts_with("HTTP/1.1 200"));
        let point = sweep(r#""vdd_mv": [550], "size": [0.5]"#);
        assert!(post(addr, "/v1/sweep", &point).starts_with("HTTP/1.1 200"));
        handle.shutdown();
        let log = accordion_telemetry::event::drain();

        // Every request got its own deterministic track, named by
        // accept-order id; a sweep's fan-out points nest under it
        // whether they ran inline or on pool workers.
        let names: Vec<&str> = log.track_names.values().map(String::as_str).collect();
        assert!(
            names.contains(&"req00000001"),
            "request track missing: {names:?}"
        );
        let mut points: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| n.contains("point"))
            .collect();
        points.sort_unstable();
        assert_eq!(
            points,
            [
                "req00000002/point0",
                "req00000002/point1",
                "req00000002/point2",
                "req00000002/point3",
                "req00000003/point0",
            ],
            "point tracks at request_jobs {request_jobs}"
        );

        // The Chrome rendering carries the serve-stage span tree.
        let rendered = accordion_telemetry::chrome::chrome_trace(&log, false).render();
        for needle in [
            "serve.parse",
            "serve.handle",
            "serve.serialize",
            "serve.request",
        ] {
            assert!(rendered.contains(needle), "{needle} missing from trace");
        }
    }
    accordion_telemetry::event::disable();
}
