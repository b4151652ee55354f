//! End-to-end test of the live ops plane: a real server with a tight
//! latency SLO rule, a latency spike injected through the debug sleep
//! endpoint, and the full alert lifecycle observed over real sockets.
//!
//! Covered contracts:
//! * the self-scrape loop populates `/v1/timeseries` with the p99
//!   latency series, and the series shows the injected spike,
//! * the alert walks `inactive → pending → firing → resolved` in that
//!   order as the spike arrives, sustains, and ages out,
//! * a `/metrics` exemplar captured during the spike carries a
//!   `track="reqNNNNNNNN"` label that resolves to a real flight-
//!   recorder track (the per-request track the server registered),
//! * `served_alerts_firing` on `/metrics` agrees with `/v1/alerts`,
//! * sheds are answered requests: a flood shed by a pinned one-worker
//!   server raises the request and 5xx totals by every 503, the one
//!   shed series on `/metrics` by exactly the 503s (agreeing with
//!   `/healthz`), and a shed burn-rate rule measures a finite burn
//!   while nothing else is answered.
//!
//! Timing: at the 25 ms scrape, the TSDB derives each p99 point from
//! the last one to two seconds of observations, so the spike decays
//! within the test budget; windows are generous multiples of the scrape
//! so the sequence is robust under CI jitter.

use accordion_served::{start, ServeConfig};
use accordion_telemetry::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

fn body_of(response: &str) -> String {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// Current state of the one configured alert, via `/v1/alerts`.
fn alert_state(addr: SocketAddr) -> String {
    let doc = json::parse(&body_of(&get(addr, "/v1/alerts"))).expect("alerts JSON");
    let Some(Json::Arr(rows)) = doc.get("alerts") else {
        panic!("no alerts array");
    };
    assert_eq!(rows.len(), 1, "exactly one configured rule");
    rows[0]
        .get("state")
        .and_then(Json::as_str)
        .expect("state string")
        .to_string()
}

/// Polls until the alert reaches `want`, recording every distinct
/// state seen on the way. Panics past the deadline.
fn wait_for_state(addr: SocketAddr, want: &str, deadline: Duration, seen: &mut Vec<String>) {
    let start = Instant::now();
    loop {
        let s = alert_state(addr);
        if seen.last().map(String::as_str) != Some(s.as_str()) {
            seen.push(s.clone());
        }
        if s == want {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "alert never reached {want}; states seen: {seen:?}"
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}

const P99_SERIES: &str = "served_http_request_latency_us{outcome=\"ok\"}:p99";

/// The p99 series URL-encoded for a query string.
fn p99_query(range_secs: u64) -> String {
    let encoded = P99_SERIES
        .replace('%', "%25")
        .replace('{', "%7B")
        .replace('}', "%7D")
        .replace('"', "%22")
        .replace('=', "%3D");
    format!("/v1/timeseries?metric={encoded}&range={range_secs}")
}

#[test]
fn slo_alert_walks_full_lifecycle_with_visible_spike_and_exemplar() {
    // A rules file with one tight threshold SLO on ok-traffic p99.
    let rules_path =
        std::env::temp_dir().join(format!("accordion-opsplane-{}.toml", std::process::id()));
    std::fs::write(
        &rules_path,
        "[[alert]]\n\
         name = \"p99-slo\"\n\
         metric = \"served_http_request_latency_us{outcome=\\\"ok\\\"}:p99\"\n\
         op = \"gt\"\n\
         threshold = 50000.0\n\
         fast_window_s = 1\n\
         slow_window_s = 3\n",
    )
    .expect("write rules file");

    // Record flight events so per-request tracks are registered and an
    // exemplar's track label can be resolved against the recording.
    accordion_telemetry::event::enable();

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        request_jobs: 1,
        debug_endpoints: true,
        scrape_interval: Duration::from_millis(25),
        alert_rules: Some(rules_path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind server");
    let addr = handle.addr();
    let mut seen = vec![alert_state(addr)];
    assert_eq!(seen[0], "inactive", "rule starts inactive");

    // Baseline: ~3 s of fast ok traffic fills both alert windows with
    // low p99 samples, so the spike trips fast before slow (pending
    // must be observable before firing).
    let baseline_until = Instant::now() + Duration::from_secs(3);
    while Instant::now() < baseline_until {
        let _ = get(addr, "/healthz");
        std::thread::sleep(Duration::from_millis(40));
    }
    assert_eq!(alert_state(addr), "inactive", "baseline must not page");

    // Spike: four 200 ms sleeps push ok-p99 to ~200 000 µs, well over
    // the 50 000 µs threshold.
    for _ in 0..4 {
        let resp = post(addr, "/v1/debug/sleep", r#"{"ms": 200}"#);
        assert!(resp.starts_with("HTTP/1.1 200"), "debug sleep: {resp}");
    }

    // While the spike is fresh, capture a /metrics exemplar from a
    // high latency bucket and remember the whole exposition.
    let metrics_during_spike = body_of(&get(addr, "/metrics"));

    wait_for_state(addr, "pending", Duration::from_secs(10), &mut seen);
    wait_for_state(addr, "firing", Duration::from_secs(10), &mut seen);

    // The spike must be visible in the TSDB series the alert watches.
    let ts = json::parse(&body_of(&get(addr, &p99_query(60)))).expect("timeseries JSON");
    let max_p99 = match ts.get("points") {
        Some(Json::Arr(points)) => points
            .iter()
            .filter_map(|p| p.get("value").and_then(Json::as_f64))
            .fold(0.0f64, f64::max),
        _ => panic!("no points array"),
    };
    assert!(
        max_p99 > 50_000.0,
        "p99 series never showed the spike (max {max_p99})"
    );

    // /metrics agrees the alert is firing.
    let metrics_firing = body_of(&get(addr, "/metrics"));
    assert!(
        metrics_firing.contains("served_alerts_firing 1"),
        "gauge should show one firing alert"
    );

    // Resolution: stop spiking; the spike ages out of the TSDB's p99
    // window, the fast window mean recovers, and the rule
    // parks in the sticky resolved state.
    wait_for_state(addr, "resolved", Duration::from_secs(15), &mut seen);
    let positions: Vec<usize> = ["pending", "firing", "resolved"]
        .iter()
        .map(|want| {
            seen.iter()
                .position(|s| s == want)
                .unwrap_or_else(|| panic!("{want} never observed in {seen:?}"))
        })
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "lifecycle out of order: {seen:?}"
    );

    handle.shutdown();
    let _ = std::fs::remove_file(&rules_path);

    // An exemplar captured during the spike must name a flight-
    // recorder track that was actually registered. Exemplar syntax:
    //   bucket{...} N # {request_id="7",track="req00000007"} 200123.0
    let exemplar_track = metrics_during_spike
        .lines()
        .filter(|l| l.starts_with("served_http_request_latency_us_bucket"))
        .filter_map(|l| l.split_once(" # {").map(|(_, e)| e))
        .filter_map(|e| {
            let (labels, _) = e.split_once('}')?;
            labels
                .split(',')
                .find_map(|kv| kv.strip_prefix("track=\""))
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
        })
        .next()
        .expect("at least one latency exemplar during the spike");
    assert!(
        exemplar_track.len() == 11 && exemplar_track.starts_with("req"),
        "track {exemplar_track:?} is not reqNNNNNNNN"
    );
    let log = accordion_telemetry::event::drain();
    accordion_telemetry::event::disable();
    assert!(
        log.track_names.values().any(|t| t == &exemplar_track),
        "exemplar track {exemplar_track} not in the flight recording ({} tracks)",
        log.track_names.len()
    );

    shed_flood_counts_and_burns();
}

/// `served_http_requests_by_outcome_total{outcome="shed"}` on
/// `/metrics`; 0 until the first shed registers the series.
fn shed_series(addr: SocketAddr) -> u64 {
    body_of(&get(addr, "/metrics"))
        .lines()
        .find_map(|l| l.strip_prefix("served_http_requests_by_outcome_total{outcome=\"shed\"} "))
        .map_or(0, |v| v.trim().parse().expect("integer shed count"))
}

/// Pins a one-worker, one-slot server for 2.2 s and floods it with a
/// request every 100 ms: one request waits in the queue and the rest
/// shed with 503. This binary runs no other server now, so the global
/// request and 5xx counters move only with this traffic.
fn shed_flood_counts_and_burns() {
    const FLOOD: usize = 20;
    let rules_path = std::env::temp_dir().join(format!(
        "accordion-opsplane-burn-{}.toml",
        std::process::id()
    ));
    std::fs::write(
        &rules_path,
        "[[alert]]\n\
         name = \"shed-burn\"\n\
         bad = \"served_http_requests_by_outcome_total{outcome=\\\"shed\\\"}:rate\"\n\
         total = \"served_http_requests_total:rate\"\n\
         objective = 0.999\n\
         fast_window_s = 1\n\
         slow_window_s = 1\n",
    )
    .expect("write rules file");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        queue_capacity: 1,
        debug_endpoints: true,
        scrape_interval: Duration::from_millis(25),
        alert_rules: Some(rules_path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind server");
    let addr = handle.addr();
    let reg = accordion_telemetry::registry::global();
    let totals = || {
        (
            reg.counter("served.http.requests").get(),
            reg.counter("served.http.responses.5xx").get(),
        )
    };
    let before = totals();
    let sheds_before = shed_series(addr);

    let pin = std::thread::spawn(move || post(addr, "/v1/debug/sleep", r#"{"ms": 2200}"#));
    std::thread::sleep(Duration::from_millis(50));
    let flood: Vec<_> = (0..FLOOD)
        .map(|_| {
            let client = std::thread::spawn(move || get(addr, "/healthz"));
            std::thread::sleep(Duration::from_millis(100));
            client
        })
        .collect();
    let shed = flood
        .into_iter()
        .map(|c| c.join().expect("flood client"))
        .filter(|r| r.starts_with("HTTP/1.1 503"))
        .count();
    assert!(pin.join().expect("pin client").starts_with("HTTP/1.1 200"));
    assert!(shed > FLOOD / 2, "only {shed} of {FLOOD} shed");
    let after = totals();
    assert!(
        after.0 - before.0 >= shed as u64,
        "served.http.requests rose {} for {shed} sheds",
        after.0 - before.0
    );
    assert!(
        after.1 - before.1 >= shed as u64,
        "served.http.responses.5xx rose {} for {shed} sheds",
        after.1 - before.1
    );
    // One shed series on /metrics, counting exactly the 503s the
    // clients saw, and agreeing with /healthz.
    let sheds = shed_series(addr);
    assert_eq!(sheds - sheds_before, shed as u64, "shed series vs 503s");
    let health = json::parse(&body_of(&get(addr, "/healthz"))).expect("healthz JSON");
    assert_eq!(
        health.get("shed").and_then(Json::as_f64),
        Some(sheds as f64),
        "/healthz shed vs the shed series"
    );

    // Only sheds were answered inside the last fast window, so the
    // rule's total rate is the shed rate, not zero.
    let doc = json::parse(&body_of(&get(addr, "/v1/alerts"))).expect("alerts JSON");
    let fast = match doc.get("alerts") {
        Some(Json::Arr(rows)) => rows[0].get("fast_value").cloned(),
        other => panic!("no alerts array: {other:?}"),
    };
    assert!(
        matches!(fast, Some(Json::Num(v)) if v.is_finite()),
        "shed burn rate not measured: {fast:?}"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&rules_path);
}
