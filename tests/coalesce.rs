//! Cross-connection request coalescing through the server's route-level
//! memo (`served.response_memo`): 32 concurrent identical
//! `/v1/simulate` requests must return byte-identical bodies funded by
//! a SINGLE underlying evaluation, proven by the engine's own counters
//! — one `served.engine.simulations` tick, one chip-cache miss, and
//! 31 `served.coalesced` ticks. Distinct seeds must NOT coalesce.
//! Identical repeats of `/v1/sweep` and `/v1/optimize` replay the memo
//! the same way, and a cold query fabricates only the chip it reads.
//!
//! This file is deliberately its own integration-test binary: the
//! counters it asserts on (telemetry registry, popcache stats) are
//! process-global, and sharing a process with the other e2e suites
//! would make the deltas unattributable. For the same reason it is one
//! test: the `/metrics` check reads an absolute coalesced total, so
//! every coalescing request in this process runs in a known order.

use accordion_served::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    conn.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .expect("send");
    let mut out = String::new();
    let _ = conn.read_to_string(&mut out);
    out
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

fn counter(name: &'static str) -> u64 {
    accordion_telemetry::registry::global().counter(name).get()
}

#[test]
fn identical_concurrent_simulates_coalesce_to_one_evaluation() {
    // pop_seeds 9400 and 9401 are unique to this binary, so each chip
    // miss below is attributable to exactly one request or burst.
    let sim = r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9400, "seed": 5}"#;
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 8,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let sims_before = counter("served.engine.simulations");
    let coalesced_before = counter("served.coalesced");
    let (_, misses_before) = accordion_chip::popcache::stats();

    // 32 clients race the same query. Whether a given request joins
    // the in-flight evaluation or replays the memo, the engine must
    // run ONCE.
    let clients: Vec<_> = (0..32)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/simulate", sim)))
        .collect();
    let replies: Vec<String> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let bodies: Vec<&str> = replies
        .iter()
        .map(|r| {
            assert!(r.starts_with("HTTP/1.1 200"), "{}", &r[..r.len().min(200)]);
            body_of(r)
        })
        .collect();
    for b in &bodies[1..] {
        assert_eq!(*b, bodies[0], "coalesced bodies must be byte-identical");
    }
    assert!(bodies[0].contains("\"frequency\""), "{}", bodies[0]);

    let sims = counter("served.engine.simulations") - sims_before;
    let coalesced = counter("served.coalesced") - coalesced_before;
    let (_, misses_after) = accordion_chip::popcache::stats();
    assert_eq!(sims, 1, "32 identical requests must run the engine once");
    assert_eq!(
        misses_after - misses_before,
        1,
        "the chip must be fabricated once"
    );
    assert_eq!(coalesced, 31, "the other 31 must be answered by coalescing");

    // The coalescing counter is a first-class metric.
    let metrics = {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = conn.read_to_string(&mut out);
        out
    };
    assert!(
        metrics.contains("served_coalesced_total 31"),
        "served_coalesced_total missing/wrong in /metrics"
    );

    // Distinct seeds must not coalesce: two fresh seeds are two
    // evaluations and zero coalesced answers.
    let sims_before = counter("served.engine.simulations");
    let coalesced_before = counter("served.coalesced");
    let a = post(
        addr,
        "/v1/simulate",
        r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9400, "seed": 6}"#,
    );
    let b = post(
        addr,
        "/v1/simulate",
        r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9400, "seed": 7}"#,
    );
    assert!(a.starts_with("HTTP/1.1 200") && b.starts_with("HTTP/1.1 200"));
    assert_ne!(
        body_of(&a),
        body_of(&b),
        "different seeds, different outcomes"
    );
    assert_eq!(
        counter("served.engine.simulations") - sims_before,
        2,
        "distinct seeds must each evaluate"
    );
    assert_eq!(
        counter("served.coalesced") - coalesced_before,
        0,
        "distinct seeds must not coalesce"
    );

    // A repeat of the original query is a memo replay: byte-identical
    // body, no new evaluation.
    let sims_before = counter("served.engine.simulations");
    let replay = post(addr, "/v1/simulate", sim);
    assert_eq!(body_of(&replay), bodies[0]);
    assert_eq!(counter("served.engine.simulations"), sims_before);

    // Sweeps and optimizations go through the same route memo: an
    // identical repeat returns the same bytes, runs no engine work and
    // is one coalesced answer.
    let routes = [
        (
            "/v1/sweep",
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9400,
                "size": [0.5, 1.0], "vdd_mv": [550, 600]}"#,
        ),
        (
            "/v1/optimize",
            r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 9400,
                "seed": 5, "population": 8, "generations": 2, "scout_steps": 2,
                "quality_floor": 0.9, "grid_check": 2}"#,
        ),
    ];
    for (path, body) in routes {
        let first = post(addr, path, body);
        assert!(first.starts_with("HTTP/1.1 200"), "{path}: {first}");
        let engine_before = (
            counter("served.engine.sweep_points"),
            counter("served.engine.optimizations"),
        );
        let coalesced_before = counter("served.coalesced");
        let repeat = post(addr, path, body);
        assert_eq!(body_of(&repeat), body_of(&first), "{path}: same bytes");
        assert_eq!(
            (
                counter("served.engine.sweep_points"),
                counter("served.engine.optimizations"),
            ),
            engine_before,
            "{path}: a repeat must not run the engine"
        );
        assert_eq!(
            counter("served.coalesced") - coalesced_before,
            1,
            "{path}: a repeat is one coalesced answer"
        );
    }

    // Chip 99 of a 100-chip population on a fresh seed is one chip
    // fabrication, not 100.
    let (_, misses_before) = accordion_chip::popcache::stats();
    let cold = post(
        addr,
        "/v1/simulate",
        r#"{"app": "hotspot", "topo": "small", "chips": 100, "chip": 99, "pop_seed": 9401}"#,
    );
    assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
    assert!(body_of(&cold).contains("\"f_run_ghz\""), "{cold}");
    let (_, misses_after) = accordion_chip::popcache::stats();
    assert_eq!(
        misses_after - misses_before,
        1,
        "a cold query must fabricate only the chip it reads"
    );

    handle.shutdown();
}
