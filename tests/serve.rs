//! End-to-end tests of `accordion-served`: a real server on an
//! ephemeral port, exercised over real sockets.
//!
//! Covered contracts:
//! * concurrent simulate/sweep/metrics requests from many client
//!   threads complete without panic or deadlock,
//! * identical requests return byte-identical JSON bodies at
//!   `--jobs 1` and `--jobs 8` (the repo-wide determinism rule
//!   extends through the HTTP surface),
//! * a flooded bounded queue answers `503` + `Retry-After` instead of
//!   stalling the accept loop,
//! * shutdown drains queued requests rather than dropping them,
//! * HTTP/1.1 keep-alive conformance: N sequential requests on one
//!   connection get N correctly-framed responses, `Connection: close`
//!   is honored, and pipelined requests are answered in order,
//! * slow-client isolation: a half-sent request neither delays a
//!   well-behaved client nor holds its socket forever (408 eviction),
//!   and a slow *reader* still receives a large response completely,
//! * a body nested far deeper than any real request is a `400`, not
//!   a stack overflow that takes the process down,
//! * an artifact is generated inside the request's handler and
//!   answered with a `Content-Length` body; a bad `chips` is a `400`
//!   and an unknown id a `404`.
//!
//! The server resolves its parallelism from explicit `ServeConfig`
//! fields (`request_jobs`), not the process-global `set_jobs`
//! override, so these tests do not need to serialize on the global.

use accordion_served::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

fn server(threads: usize, jobs: usize) -> accordion_served::ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: threads,
        request_jobs: jobs,
        ..ServeConfig::default()
    })
    .expect("bind test server")
}

#[test]
fn concurrent_mixed_traffic_completes() {
    let handle = server(4, 1);
    let addr = handle.addr();
    // Pre-warm so 64 threads do not race 64 duplicate quality-model
    // measurements (each is seconds of kernel work).
    assert!(post(addr, "/v1/simulate", &small_sim(0)).starts_with("HTTP/1.1 200"));

    let threads: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let reply = match i % 4 {
                    0 => post(addr, "/v1/simulate", &small_sim(i)),
                    1 => post(
                        addr,
                        "/v1/sweep",
                        r#"{"app": "hotspot", "topo": "small", "chips": 2,
                            "pop_seed": 8211, "size": [0.5, 1.0]}"#,
                    ),
                    2 => get(addr, "/metrics"),
                    _ => get(addr, "/healthz"),
                };
                assert!(
                    reply.starts_with("HTTP/1.1 200"),
                    "request {i} failed: {}",
                    &reply[..reply.len().min(200)]
                );
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread must not panic");
    }
    handle.shutdown();
}

#[test]
fn responses_are_byte_identical_across_job_counts() {
    let sim = small_sim(42);
    let sweep = r#"{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 8211,
                    "vdd_mv": [550, 600], "size": [0.5, 1.0]}"#;
    let one = server(1, 1);
    let sim_1 = body_of(&post(one.addr(), "/v1/simulate", &sim)).to_string();
    let sweep_1 = body_of(&post(one.addr(), "/v1/sweep", sweep)).to_string();
    one.shutdown();

    let eight = server(8, 8);
    let sim_8 = body_of(&post(eight.addr(), "/v1/simulate", &sim)).to_string();
    let sweep_8 = body_of(&post(eight.addr(), "/v1/sweep", sweep)).to_string();
    eight.shutdown();

    assert!(!sim_1.is_empty() && sim_1.starts_with('{'), "{sim_1}");
    assert_eq!(sim_1, sim_8, "simulate must not depend on worker count");
    assert_eq!(sweep_1, sweep_8, "sweep must not depend on worker count");
}

#[test]
fn flooded_queue_sheds_load_with_503() {
    // One handler, a tiny queue, and a debug endpoint that pins the
    // handler: every further connection must be refused promptly with
    // a Retry-After rather than queued forever or accepted and hung.
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        queue_capacity: 2,
        debug_endpoints: true,
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = handle.addr();

    // Pin the lone handler for a while.
    let pin = std::thread::spawn(move || post(addr, "/v1/debug/sleep", r#"{"ms": 1500}"#));
    std::thread::sleep(Duration::from_millis(300));

    // Fill the queue past capacity. The first two occupy the queue;
    // later ones must see 503 + Retry-After.
    let mut rejected = 0;
    let mut parked = Vec::new();
    for _ in 0..12 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut reply = String::new();
        // The server closes a shed connection without reading the
        // request, so the client may see ConnectionReset after the
        // 503 bytes; judge by what arrived, not by the read result.
        let _ = conn.read_to_string(&mut reply);
        if reply.starts_with("HTTP/1.1 503") {
            assert!(
                reply.contains("Retry-After"),
                "503 must carry Retry-After: {reply}"
            );
            rejected += 1;
        } else {
            // Queued (will be served once the handler unpins) or
            // still in flight when the client timeout fired.
            parked.push(conn);
        }
    }
    assert!(
        rejected >= 8,
        "expected most of 12 flooding requests rejected, got {rejected}"
    );
    pin.join().expect("pinned request");
    drop(parked);
    // After the flood the server must still answer.
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    handle.shutdown();
}

#[test]
fn shutdown_drains_queued_requests() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        queue_capacity: 16,
        debug_endpoints: true,
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = handle.addr();

    // Pin the handler, then queue requests behind it.
    let pin = std::thread::spawn(move || post(addr, "/v1/debug/sleep", r#"{"ms": 800}"#));
    std::thread::sleep(Duration::from_millis(200));
    let queued: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || get(addr, "/healthz")))
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // Trigger shutdown while the four are still queued; they must be
    // answered, not dropped.
    let trigger = handle.trigger();
    trigger.request();
    for t in queued {
        let reply = t.join().expect("queued client");
        assert!(
            reply.starts_with("HTTP/1.1 200"),
            "queued request dropped at shutdown: {reply:?}"
        );
    }
    pin.join().expect("pinned request");
    handle.join();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = server(2, 1);
    let addr = handle.addr();
    let reply = post(addr, "/v1/shutdown", "");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    // join() returns only after every thread exited; a hang here is
    // the failure mode.
    handle.join();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly in TIME_WAIT; a read must fail.
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = c.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut s = String::new();
            c.read_to_string(&mut s).map(|n| n == 0).unwrap_or(true)
        }
    );
}

/// Reads one framed HTTP response (head + `Content-Length` body) off
/// a keep-alive connection, leaving the stream positioned at the next
/// response.
fn read_framed(conn: &mut TcpStream) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = conn.read(&mut byte).expect("read response head");
        assert!(
            n > 0,
            "EOF mid-head after {:?}",
            String::from_utf8_lossy(&head)
        );
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "unterminated head");
    }
    let head = String::from_utf8(head).expect("ASCII head");
    let len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().expect("numeric Content-Length"))
        })
        .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).expect("read response body");
    (head, body)
}

#[test]
fn keepalive_serves_sequential_requests_on_one_connection() {
    let handle = server(2, 1);
    let addr = handle.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // N sequential requests, one socket: each gets its own correctly
    // framed response and the connection stays open in between.
    for i in 0..5 {
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (head, body) = read_framed(&mut conn);
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "request {i} must advertise keep-alive: {head}"
        );
        assert!(
            String::from_utf8_lossy(&body).contains("\"status\":\"ok\""),
            "request {i} body"
        );
    }

    // `Connection: close` is honored: the response says close and the
    // server actually closes (EOF after the body).
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let (head, _) = read_framed(&mut conn);
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "{head}"
    );
    let mut rest = Vec::new();
    let n = conn.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "server must close after Connection: close");
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = server(4, 1);
    let addr = handle.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Both requests leave in ONE write before any response is read;
    // the responses must come back in request order with intact
    // framing — even though 4 workers race on them.
    let sim = small_sim(7);
    let pipelined = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}\
         GET /nope HTTP/1.1\r\nHost: t\r\n\r\n\
         GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        sim.len(),
        sim
    );
    conn.write_all(pipelined.as_bytes()).expect("send pipeline");
    let (h1, b1) = read_framed(&mut conn);
    assert!(h1.starts_with("HTTP/1.1 200"), "{h1}");
    assert!(String::from_utf8_lossy(&b1).contains("\"frequency\""));
    let (h2, _) = read_framed(&mut conn);
    assert!(h2.starts_with("HTTP/1.1 404"), "{h2}");
    let (h3, b3) = read_framed(&mut conn);
    assert!(h3.starts_with("HTTP/1.1 200"), "{h3}");
    assert!(String::from_utf8_lossy(&b3).contains("\"status\":\"ok\""));
    let mut rest = Vec::new();
    assert_eq!(conn.read_to_end(&mut rest).expect("EOF"), 0);
    handle.shutdown();
}

#[test]
fn slow_client_does_not_delay_others_and_is_evicted_with_408() {
    // ONE worker thread: under the old blocking design a half-sent
    // request would pin it and every other client would queue behind
    // the slow one. The reactor must keep serving.
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        deadline: Duration::from_millis(800),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = handle.addr();

    // A half-sent request: head promises 20 body bytes, sends 5.
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: 20\r\n\r\n{\"app")
        .expect("send half");
    std::thread::sleep(Duration::from_millis(100));

    // A well-behaved client must complete promptly while the slow one
    // is mid-request — far inside the 800 ms the slow client holds.
    let t0 = std::time::Instant::now();
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "well-behaved client delayed {elapsed:?} by a slow one"
    );

    // The slow client is evicted with 408 once the deadline passes,
    // and the connection is closed.
    let mut reply = String::new();
    let _ = slow.read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "expected 408, got {reply:?}"
    );
    assert!(
        reply.to_ascii_lowercase().contains("connection: close"),
        "{reply}"
    );
    handle.shutdown();
}

#[test]
fn partial_write_responses_complete_for_slow_readers() {
    let handle = server(2, 2);
    let addr = handle.addr();

    // Shrink the client's receive buffer before connecting so the
    // kernel window forces the server into short writes: the response
    // must park in the reactor's write buffer and resume, repeatedly.
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let mut conn = TcpStream::connect(addr).expect("connect");
    {
        use std::os::fd::AsRawFd;
        let sz: i32 = 4096;
        let rc = unsafe {
            setsockopt(
                conn.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                std::ptr::addr_of!(sz).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
    }
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    // A response far larger than the receive buffer: a 12×12 sweep is
    // ~100 KB of JSON.
    let vdds: Vec<String> = (0..12).map(|i| (550 + i * 10).to_string()).collect();
    let sizes: Vec<String> = (0..12)
        .map(|i| format!("{}", 0.5 + 0.05 * i as f64))
        .collect();
    let body = format!(
        r#"{{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": 8211,
            "vdd_mv": [{}], "size": [{}]}}"#,
        vdds.join(", "),
        sizes.join(", ")
    );
    conn.write_all(
        format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .expect("send sweep");

    // Drain deliberately slowly: small reads with pauses.
    let mut reply = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed after {} bytes: {e}", reply.len()),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let text = String::from_utf8_lossy(&reply);
    let (head, payload) = text.split_once("\r\n\r\n").expect("framed response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let declared: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().unwrap())
        })
        .expect("Content-Length");
    assert_eq!(payload.len(), declared, "truncated body");
    assert!(
        payload.len() > 64 * 1024,
        "response too small to exercise partial writes"
    );
    assert!(payload.contains("\"count\":144"), "sweep grid incomplete");
    assert!(payload.ends_with('}'), "body tail corrupted");
    handle.shutdown();
}

#[test]
fn fuzz_garbage_never_kills_the_server() {
    // A short idle timeout closes the connections the server leaves
    // open (nothing parsed yet, or keep-alive after an answer), so
    // every case ends in a definite outcome well within the client's
    // read timeout.
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 2,
        request_jobs: 1,
        idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = handle.addr();
    // Each input with the status line it must get; "" means the
    // server closes the connection without sending a byte.
    let cases: &[(&[u8], &str)] = &[
        (b"", ""),
        (b"\r\n\r\n", ""),
        (b"\x00\x01\x02\x03\xff\xfe\r\n\r\n", "HTTP/1.1 400"),
        (
            b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "HTTP/1.1 400",
        ),
        (
            b"GET / HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\n",
            "HTTP/1.1 400",
        ),
        (
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson",
            "HTTP/1.1 400",
        ),
        (
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
            "HTTP/1.1 400",
        ),
        (b"HEAD /healthz HTTP/1.1\r\n\r\n", "HTTP/1.1 405"),
        (b"VERB-WITH-DASH / HTTP/1.1\r\n\r\n", "HTTP/1.1 400"),
    ];
    for (raw, expected) in cases {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(raw);
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply)
            .unwrap_or_else(|e| panic!("garbage {raw:?}: no close within 5 s ({e})"));
        let reply = String::from_utf8_lossy(&reply);
        if expected.is_empty() {
            assert!(reply.is_empty(), "garbage {raw:?} got a reply: {reply:?}");
        } else {
            assert!(
                reply.starts_with(expected),
                "garbage {raw:?}: expected {expected:?}, got {reply:?}"
            );
        }
    }
    // Still alive and correct after the abuse.
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    handle.shutdown();
}

#[test]
fn deeply_nested_body_is_rejected_and_the_server_survives() {
    let handle = server(2, 1);
    let addr = handle.addr();
    // 200k levels would overflow a worker's stack in a recursive
    // parser and abort the whole process.
    let depth = 200_000;
    let body = "[".repeat(depth) + &"]".repeat(depth);
    let reply = post(addr, "/v1/simulate", &body);
    assert!(
        reply.starts_with("HTTP/1.1 400"),
        "deep body got: {}",
        &reply[..reply.len().min(200)]
    );
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    handle.shutdown();
}

#[test]
fn artifacts_are_answered_with_a_content_length_body() {
    use accordion_bench::registry::{generate, ARTIFACTS};
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        artifacts: Some(accordion_served::ArtifactSource {
            ids: ARTIFACTS,
            generate,
        }),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = handle.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(b"GET /v1/artifacts/tab1?chips=2 HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let (head, body) = read_framed(&mut conn);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        !head.to_ascii_lowercase().contains("transfer-encoding"),
        "{head}"
    );
    assert_eq!(
        String::from_utf8(body).expect("UTF-8 report"),
        generate("tab1", 2).expect("tab1 is registered")
    );
    for path in ["/v1/artifacts/tab1?chips=0", "/v1/artifacts/tab1?chips=101"] {
        let reply = get(addr, path);
        assert!(reply.starts_with("HTTP/1.1 400"), "{path}: {reply}");
    }
    let reply = get(addr, "/v1/artifacts/nope");
    assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
    handle.shutdown();
}
