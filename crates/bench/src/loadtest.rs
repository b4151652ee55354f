//! `repro loadtest` — a zero-dependency latency harness for the
//! serving path.
//!
//! Drives a running `accordion-served` instance (or one started
//! in-process by the CLI) with a deterministic, seeded request mix
//! over the simulate/sweep/artifacts surface and reports an HDR-style
//! latency histogram: p50/p90/p95/p99/max plus sustained request
//! throughput, and a per-kind breakdown (`kind_latency_ns`) so the
//! warm `/v1/sweep` latency is quotable on its own. Two arrival
//! models:
//!
//! * **closed-loop** — `connections` client threads each issue
//!   back-to-back requests until the deadline. Latency is measured
//!   from just before `connect(2)`. Throughput is demand-matched: a
//!   slow server is offered less load.
//! * **open-loop** — requests are scheduled at a fixed `rate`
//!   (request *k* fires at `k / rate`); latency is measured **from
//!   the scheduled start**, not the actual send, so queueing delay
//!   behind a stalled server is charged to the server. This is the
//!   coordinated-omission-aware model: a closed-loop harness silently
//!   stops offering load exactly when the server degrades, an
//!   open-loop one keeps the pressure on and bills the backlog.
//!
//! A warmup phase (excluded from the recorded window) lets the
//! chip cache and the quality-front memoization settle, so the
//! reported percentiles describe steady state, not cold start.
//!
//! The request mix is a pure function of `(seed, request index)` via
//! [`SeedStream`], so two runs against the same server offer the
//! identical request sequence — the run-to-run variance that remains
//! is the server's, which is exactly what a regression gate wants to
//! measure. `scripts/bench.sh` feeds the JSON report into the
//! existing `--check` gate as `serve_loadtest_*` metrics.

use accordion_stats::rng::SeedStream;
use accordion_telemetry::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How load is offered to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// `connections` threads, each back-to-back.
    Closed {
        /// Number of concurrent client threads.
        connections: usize,
    },
    /// Fixed-rate schedule shared by `senders` threads; latency counts
    /// from each request's *scheduled* start (coordinated omission).
    Open {
        /// Offered load, requests per second.
        rate: f64,
        /// Threads draining the schedule.
        senders: usize,
    },
}

/// Harness parameters; [`LoadConfig::default`] matches the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Arrival model.
    pub arrival: Arrival,
    /// Total run length, warmup included.
    pub duration: Duration,
    /// Initial slice excluded from the report.
    pub warmup: Duration,
    /// Root seed of the request mix.
    pub seed: u64,
    /// Reuse one connection per client thread (HTTP/1.1 keep-alive)
    /// instead of connect-per-request. Isolates protocol overhead:
    /// with the same server and mix, `keepalive` vs not measures the
    /// cost of connection churn alone.
    pub keepalive: bool,
    /// Requests written back-to-back before reading responses
    /// (HTTP/1.1 pipelining). Only meaningful with `keepalive`; 1
    /// disables. The server's 32-request pipelining window bounds the
    /// useful depth.
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            arrival: Arrival::Closed { connections: 4 },
            duration: Duration::from_secs(10),
            warmup: Duration::from_secs(2),
            seed: 2014,
            keepalive: false,
            pipeline: 1,
        }
    }
}

/// One request of the mix. The weights skew toward `simulate` (the
/// serving path the paper's amortization argument is about) with
/// enough sweep/artifact/health traffic to keep every route warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// `POST /v1/simulate`, one operating point.
    Simulate {
        /// Per-request measurement seed (population seed is fixed so
        /// the cache stays hot after warmup).
        seed: u64,
    },
    /// `POST /v1/sweep`, a 2×2 Vdd × size grid.
    Sweep,
    /// `GET /v1/artifacts` (the registry listing).
    ArtifactsList,
    /// `GET /healthz`.
    Health,
}

/// Population seed shared by every loadtest request — the mix is
/// designed to hit the chip cache after the first fabrications.
const POP_SEED: u64 = 8211;

/// The deterministic mix: request `k` of a run with root `seed`.
/// Weights: 70% simulate, 15% sweep, 10% artifact listing, 5% health.
pub fn mix_for(seed: u64, k: u64) -> RequestKind {
    let h = SeedStream::new(seed).fork("loadtest.mix", k).seed();
    match h % 100 {
        0..=69 => RequestKind::Simulate {
            // Eight distinct measurement seeds: repeats exercise the
            // engine's memoized quality fronts without collapsing the
            // mix to a single request.
            seed: h / 100 % 8,
        },
        70..=84 => RequestKind::Sweep,
        85..=94 => RequestKind::ArtifactsList,
        _ => RequestKind::Health,
    }
}

impl RequestKind {
    /// Renders the raw HTTP/1.1 request with `Connection: close` —
    /// the connect-per-request model.
    fn render(&self) -> String {
        self.render_with(true)
    }

    /// Renders the raw request; `close: false` omits the `Connection`
    /// header so an HTTP/1.1 server keeps the socket open.
    fn render_with(&self, close: bool) -> String {
        match self {
            RequestKind::Simulate { seed } => {
                let body = format!(
                    r#"{{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": {POP_SEED}, "seed": {seed}}}"#
                );
                post("/v1/simulate", &body, close)
            }
            RequestKind::Sweep => {
                let body = format!(
                    r#"{{"app": "hotspot", "topo": "small", "chips": 2, "pop_seed": {POP_SEED}, "vdd_mv": [550, 600], "size": [0.5, 1.0]}}"#
                );
                post("/v1/sweep", &body, close)
            }
            RequestKind::ArtifactsList => get("/v1/artifacts", close),
            RequestKind::Health => get("/healthz", close),
        }
    }

    /// Short label for the per-kind count table.
    fn label(&self) -> &'static str {
        match self {
            RequestKind::Simulate { .. } => "simulate",
            RequestKind::Sweep => "sweep",
            RequestKind::ArtifactsList => "artifacts",
            RequestKind::Health => "healthz",
        }
    }
}

fn get(path: &str, close: bool) -> String {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nHost: loadtest\r\n{conn}\r\n")
}

fn post(path: &str, body: &str, close: bool) -> String {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadtest\r\nContent-Length: {}\r\n{conn}\r\n{body}",
        body.len()
    )
}

/// A persistent keep-alive client: one socket reused across requests,
/// with a response-framing parser (status line + `Content-Length`) so
/// the next request can follow on the same connection. Reconnects
/// transparently after a transport error or a server-initiated close.
struct KeepAliveClient {
    addr: SocketAddr,
    deadline: Duration,
    conn: Option<TcpStream>,
    /// Bytes read past the previous response (pipelined replies
    /// arrive back-to-back).
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn new(addr: SocketAddr, deadline: Duration) -> Self {
        Self {
            addr,
            deadline,
            conn: None,
            buf: Vec::new(),
        }
    }

    fn connect(&mut self) -> bool {
        self.buf.clear();
        match TcpStream::connect_timeout(&self.addr, self.deadline) {
            Ok(conn) => {
                let _ = conn.set_read_timeout(Some(self.deadline));
                let _ = conn.set_write_timeout(Some(self.deadline));
                let _ = conn.set_nodelay(true);
                self.conn = Some(conn);
                true
            }
            Err(_) => {
                self.conn = None;
                false
            }
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.buf.clear();
    }

    /// Reads one framed response off the connection; returns its
    /// status, or `None` on a transport error / close (the caller
    /// reconnects).
    fn read_response(&mut self) -> Option<u16> {
        let conn = self.conn.as_mut()?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // A complete head already buffered?
            if let Some(head_end) = find_subslice(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
                let status: u16 = head.get(9..12).and_then(|s| s.parse().ok())?;
                let len: usize = head.lines().find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())
                        .flatten()
                })?;
                let total = head_end + 4 + len;
                if self.buf.len() >= total {
                    self.buf.drain(..total);
                    return Some(status);
                }
            }
            match conn.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return None,
            }
        }
    }

    /// Writes `raws` back-to-back (pipelining when `raws.len() > 1`),
    /// then reads that many responses. Returns `(status, latency)` per
    /// request, all measured from the batch send; 0 marks a transport
    /// failure. One reconnect attempt per batch.
    fn issue_batch(&mut self, raws: &[&str]) -> Vec<(u16, Duration)> {
        for _attempt in 0..2 {
            if self.conn.is_none() && !self.connect() {
                break;
            }
            let started = Instant::now();
            let mut wire = Vec::new();
            for raw in raws {
                wire.extend_from_slice(raw.as_bytes());
            }
            if self
                .conn
                .as_mut()
                .map(|c| c.write_all(&wire).is_err())
                .unwrap_or(true)
            {
                self.drop_conn();
                continue;
            }
            let mut out = Vec::with_capacity(raws.len());
            for _ in 0..raws.len() {
                match self.read_response() {
                    Some(status) => out.push((status, started.elapsed())),
                    None => {
                        self.drop_conn();
                        break;
                    }
                }
            }
            if out.len() == raws.len() {
                return out;
            }
            // Partial batch: report what failed, don't retry (the
            // failure is the datapoint).
            while out.len() < raws.len() {
                out.push((0, started.elapsed()));
            }
            return out;
        }
        raws.iter().map(|_| (0, Duration::ZERO)).collect()
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Issues one request; returns the HTTP status (0 = transport error).
fn issue(addr: SocketAddr, raw: &str, deadline: Duration) -> u16 {
    let Ok(mut conn) = TcpStream::connect_timeout(&addr, deadline) else {
        return 0;
    };
    let _ = conn.set_read_timeout(Some(deadline));
    let _ = conn.set_write_timeout(Some(deadline));
    if conn.write_all(raw.as_bytes()).is_err() {
        return 0;
    }
    let mut reply = Vec::new();
    if conn.read_to_end(&mut reply).is_err() {
        return 0;
    }
    // "HTTP/1.1 NNN ..." — the status is bytes 9..12.
    reply
        .get(9..12)
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// HDR-style latency histogram: power-of-two major buckets with 64
/// linear sub-buckets each, so any recorded value is off by at most
/// ~1.6% while memory stays fixed (no per-sample storage). Values are
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct HdrHistogram {
    /// `counts[major][sub]`; major 0 holds exact values `0..64`.
    counts: Vec<[u64; 64]>,
    total: u64,
    max: u64,
}

/// Enough major buckets to cover `[0, 2^63)` nanoseconds (~292 years).
const MAJORS: usize = 58;

impl Default for HdrHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![[0u64; 64]; MAJORS],
            total: 0,
            max: 0,
        }
    }

    fn slot(value: u64) -> (usize, usize) {
        if value < 64 {
            return (0, value as usize);
        }
        // Major m covers [2^(m+5), 2^(m+6)); its 64 sub-buckets are
        // 2^(m-1) ns wide.
        let msb = 63 - value.leading_zeros() as usize; // >= 6
        let major = (msb - 5).min(MAJORS - 1);
        let sub = ((value >> (msb - 6)) & 63) as usize;
        (major, sub)
    }

    /// Records one value.
    pub fn record(&mut self, value_ns: u64) {
        let (major, sub) = Self::slot(value_ns);
        self.counts[major][sub] += 1;
        self.total += 1;
        self.max = self.max.max(value_ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper midpoint;
    /// ≤1.6% relative error). Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (major, subs) in self.counts.iter().enumerate() {
            for (sub, &n) in subs.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    if major == 0 {
                        return sub as u64;
                    }
                    let width = 1u64 << (major - 1);
                    let low = (64 + sub as u64) * width;
                    return (low + width / 2).min(self.max);
                }
            }
        }
        self.max
    }

    /// Adds every count of `other` into `self` (per-thread histograms
    /// merge into the report).
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// Per-thread tallies, merged under one mutex at thread exit.
#[derive(Default)]
struct Tally {
    hist: HdrHistogram,
    /// One histogram per request kind, so the report can quote the
    /// warm `/v1/sweep` latency separately from the mix-wide numbers.
    kind_hists: BTreeMap<&'static str, HdrHistogram>,
    outcomes: BTreeMap<&'static str, u64>,
    kinds: BTreeMap<&'static str, u64>,
    /// Requests issued inside the warmup window (not recorded).
    warmup: u64,
}

impl Tally {
    fn record(&mut self, kind: RequestKind, status: u16, latency: Duration) {
        let ns = latency.as_nanos() as u64;
        self.hist.record(ns);
        self.kind_hists.entry(kind.label()).or_default().record(ns);
        let outcome = if status == 0 {
            "transport_error"
        } else {
            accordion_served::obs::outcome_of(status)
        };
        *self.outcomes.entry(outcome).or_default() += 1;
        *self.kinds.entry(kind.label()).or_default() += 1;
    }
}

/// Latency summary of one request kind within the mix (recorded
/// window only, same histogram resolution as the headline numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindLatency {
    /// Recorded requests of this kind.
    pub count: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// What one loadtest run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Client threads (closed: connections; open: senders).
    pub threads: usize,
    /// Whether connections were reused across requests.
    pub keepalive: bool,
    /// Pipelining depth (1 = request/response lockstep).
    pub pipeline: usize,
    /// Offered rate for open-loop runs (`None` for closed).
    pub offered_rps: Option<f64>,
    /// Root seed of the request mix.
    pub seed: u64,
    /// Requests inside the recorded (post-warmup) window.
    pub requests: u64,
    /// Requests issued during warmup (excluded from percentiles).
    pub warmup_requests: u64,
    /// Recorded window length.
    pub window: Duration,
    /// Sustained throughput over the recorded window.
    pub rps: f64,
    /// Latency percentiles and max, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest recorded latency, nanoseconds.
    pub max_ns: u64,
    /// Recorded requests by outcome class (`ok`, `shed`, ...).
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Recorded requests by kind (`simulate`, `sweep`, ...).
    pub kinds: BTreeMap<&'static str, u64>,
    /// Per-kind latency summaries — `kind_latency["sweep"]` is the
    /// warm `/v1/sweep` number `scripts/bench.sh` records.
    pub kind_latency: BTreeMap<&'static str, KindLatency>,
}

impl LoadReport {
    /// Mean nanoseconds per request (`1e9 / rps`): the
    /// "bigger = worse" form the bench regression gate compares.
    pub fn ns_per_req(&self) -> f64 {
        if self.rps > 0.0 {
            1e9 / self.rps
        } else {
            0.0
        }
    }

    /// The machine-readable report (`--json`), rendered with the
    /// deterministic JSON writer.
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<&'static str, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("mode", Json::str(self.mode)),
            ("threads", Json::Num(self.threads as f64)),
            ("keepalive", Json::Bool(self.keepalive)),
            ("pipeline", Json::Num(self.pipeline as f64)),
        ];
        if let Some(rate) = self.offered_rps {
            fields.push(("offered_rps", Json::Num(rate)));
        }
        fields.extend([
            ("seed", Json::Num(self.seed as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("warmup_requests", Json::Num(self.warmup_requests as f64)),
            ("window_s", Json::Num(self.window.as_secs_f64())),
            ("rps", Json::Num(self.rps)),
            ("ns_per_req", Json::Num(self.ns_per_req().round())),
            (
                "latency_ns",
                Json::obj(vec![
                    ("p50", Json::Num(self.p50_ns as f64)),
                    ("p90", Json::Num(self.p90_ns as f64)),
                    ("p95", Json::Num(self.p95_ns as f64)),
                    ("p99", Json::Num(self.p99_ns as f64)),
                    ("max", Json::Num(self.max_ns as f64)),
                ]),
            ),
            ("outcomes", map(&self.outcomes)),
            ("kinds", map(&self.kinds)),
            (
                "kind_latency_ns",
                Json::Obj(
                    self.kind_latency
                        .iter()
                        .map(|(k, v)| {
                            (
                                (*k).to_string(),
                                Json::obj(vec![
                                    ("count", Json::Num(v.count as f64)),
                                    ("p50", Json::Num(v.p50_ns as f64)),
                                    ("p99", Json::Num(v.p99_ns as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        Json::obj(fields)
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "loadtest: {} loop, {} threads{}{}, seed {}\n",
            self.mode,
            self.threads,
            self.offered_rps
                .map(|r| format!(", {r:.0} req/s offered"))
                .unwrap_or_default(),
            if self.keepalive {
                if self.pipeline > 1 {
                    format!(", keep-alive, pipeline {}", self.pipeline)
                } else {
                    ", keep-alive".to_string()
                }
            } else {
                ", close-per-request".to_string()
            },
            self.seed,
        ));
        out.push_str(&format!(
            "  {} requests over {:.2} s (+{} warmup) -> {:.1} req/s sustained\n",
            self.requests,
            self.window.as_secs_f64(),
            self.warmup_requests,
            self.rps,
        ));
        out.push_str(&format!(
            "  latency  p50 {:.3} ms  p90 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms\n",
            ms(self.p50_ns),
            ms(self.p90_ns),
            ms(self.p95_ns),
            ms(self.p99_ns),
            ms(self.max_ns),
        ));
        let fmt = |m: &BTreeMap<&'static str, u64>| {
            m.iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format!("  outcomes {}\n", fmt(&self.outcomes)));
        out.push_str(&format!("  mix      {}\n", fmt(&self.kinds)));
        for (kind, lat) in &self.kind_latency {
            out.push_str(&format!(
                "  {kind:<9}p50 {:.3} ms  p99 {:.3} ms  ({} requests)\n",
                ms(lat.p50_ns),
                ms(lat.p99_ns),
                lat.count,
            ));
        }
        out
    }
}

/// Runs the harness against a live server at `addr`.
///
/// Blocks for `cfg.duration`. The recorded window is
/// `duration - warmup`; percentiles and `rps` describe only that
/// window.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let deadline = Duration::from_secs(30);
    let start = Instant::now();
    let warmup_end = start + cfg.warmup.min(cfg.duration);
    let end = start + cfg.duration;
    let merged = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);

    let (mode, threads, offered) = match cfg.arrival {
        Arrival::Closed { connections } => ("closed", connections.max(1), None),
        Arrival::Open { rate, senders } => ("open", senders.max(1), Some(rate)),
    };

    let batch_len = if cfg.keepalive {
        cfg.pipeline.max(1)
    } else {
        1
    };

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Tally::default();
                let mut client = cfg.keepalive.then(|| KeepAliveClient::new(addr, deadline));
                // The mix has ~a dozen distinct requests; render each
                // once so the hot loop sends cached bytes (the client
                // shares the CPU with the server under test).
                let mut rendered: HashMap<RequestKind, String> = HashMap::new();
                loop {
                    let k0 = next.fetch_add(batch_len, Ordering::Relaxed) as u64;
                    let kinds: Vec<RequestKind> = (k0..k0 + batch_len as u64)
                        .map(|k| mix_for(cfg.seed, k))
                        .collect();
                    // Open loop: request k fires at its scheduled
                    // instant and its latency clock starts there even
                    // if the sender is running late (coordinated
                    // omission: backlog is the server's fault).
                    let scheduled = match offered {
                        Some(rate) => {
                            let at = start + Duration::from_secs_f64(k0 as f64 / rate.max(1e-9));
                            if at >= end {
                                break;
                            }
                            let now = Instant::now();
                            if at > now {
                                std::thread::sleep(at - now);
                            }
                            at
                        }
                        None => {
                            if Instant::now() >= end {
                                break;
                            }
                            Instant::now()
                        }
                    };
                    let results: Vec<(u16, Duration)> = match &mut client {
                        Some(c) => {
                            for k in &kinds {
                                rendered.entry(*k).or_insert_with(|| k.render_with(false));
                            }
                            let raws: Vec<&str> =
                                kinds.iter().map(|k| rendered[k].as_str()).collect();
                            c.issue_batch(&raws)
                        }
                        None => {
                            let status = issue(addr, &kinds[0].render(), deadline);
                            vec![(status, scheduled.elapsed())]
                        }
                    };
                    for (kind, (status, latency)) in kinds.iter().zip(results) {
                        if scheduled < warmup_end {
                            local.warmup += 1;
                        } else {
                            // Open-loop latency counts from the
                            // schedule; closed-loop from the send.
                            let charged = if offered.is_some() {
                                scheduled.elapsed()
                            } else {
                                latency
                            };
                            local.record(*kind, status, charged);
                        }
                    }
                }
                let mut m = merged.lock().expect("tally lock");
                m.hist.merge(&local.hist);
                for (k, h) in local.kind_hists {
                    m.kind_hists.entry(k).or_default().merge(&h);
                }
                for (k, v) in local.outcomes {
                    *m.outcomes.entry(k).or_default() += v;
                }
                for (k, v) in local.kinds {
                    *m.kinds.entry(k).or_default() += v;
                }
                m.warmup += local.warmup;
            });
        }
    });

    let tally = merged.into_inner().expect("tally lock");
    let window = cfg.duration.saturating_sub(cfg.warmup.min(cfg.duration));
    let window_s = window.as_secs_f64();
    LoadReport {
        mode,
        threads,
        keepalive: cfg.keepalive,
        pipeline: batch_len,
        offered_rps: offered,
        seed: cfg.seed,
        requests: tally.hist.count(),
        warmup_requests: tally.warmup,
        window,
        rps: if window_s > 0.0 {
            tally.hist.count() as f64 / window_s
        } else {
            0.0
        },
        p50_ns: tally.hist.percentile(0.50),
        p90_ns: tally.hist.percentile(0.90),
        p95_ns: tally.hist.percentile(0.95),
        p99_ns: tally.hist.percentile(0.99),
        max_ns: tally.hist.max(),
        outcomes: tally.outcomes,
        kinds: tally.kinds,
        kind_latency: tally
            .kind_hists
            .iter()
            .map(|(k, h)| {
                (
                    *k,
                    KindLatency {
                        count: h.count(),
                        p50_ns: h.percentile(0.50),
                        p99_ns: h.percentile(0.99),
                    },
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdr_exact_below_64() {
        let mut h = HdrHistogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.percentile(0.0), 0);
        // Rank ceil(0.5*64)=32 -> value 31 (0-indexed exact bins).
        assert_eq!(h.percentile(0.5), 31);
        assert_eq!(h.percentile(1.0), 63);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn hdr_relative_error_is_bounded() {
        let mut h = HdrHistogram::new();
        for exp in 6..40u32 {
            let v = (1u64 << exp) + (1u64 << (exp - 2)); // 1.25 * 2^exp
            h.record(v);
            let mut single = HdrHistogram::new();
            single.record(v);
            let got = single.percentile(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.016, "value {v}: got {got}, err {err}");
        }
    }

    #[test]
    fn hdr_merge_equals_combined_recording() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut c = HdrHistogram::new();
        for v in [10u64, 5_000, 1_000_000, 77_000_000_000] {
            a.record(v);
            c.record(v);
        }
        for v in [99u64, 123_456, 42] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), c.percentile(q));
        }
    }

    #[test]
    fn mix_is_deterministic_and_weighted() {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for k in 0..10_000 {
            let kind = mix_for(7, k);
            assert_eq!(kind, mix_for(7, k), "mix must be a pure function");
            *counts.entry(kind.label()).or_default() += 1;
        }
        // 70/15/10/5 weights, loose bounds (the hash is not exact).
        let n = |k: &str| *counts.get(k).unwrap_or(&0) as f64 / 10_000.0;
        assert!((n("simulate") - 0.70).abs() < 0.03, "{counts:?}");
        assert!((n("sweep") - 0.15).abs() < 0.03, "{counts:?}");
        assert!((n("artifacts") - 0.10).abs() < 0.03, "{counts:?}");
        assert!((n("healthz") - 0.05).abs() < 0.03, "{counts:?}");
        // Different seeds produce different sequences.
        assert!((0..100).any(|k| mix_for(7, k) != mix_for(8, k)));
    }

    #[test]
    fn request_rendering_is_valid_http() {
        for k in 0..20 {
            let raw = mix_for(3, k).render();
            assert!(raw.starts_with("GET ") || raw.starts_with("POST "), "{raw}");
            assert!(raw.contains("Connection: close\r\n"), "{raw}");
            if let Some((head, body)) = raw.split_once("\r\n\r\n") {
                if let Some(len) = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                {
                    assert_eq!(len.parse::<usize>().unwrap(), body.len(), "{raw}");
                }
            }
        }
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = LoadReport {
            mode: "closed",
            threads: 2,
            keepalive: true,
            pipeline: 4,
            offered_rps: None,
            seed: 1,
            requests: 100,
            warmup_requests: 10,
            window: Duration::from_secs(2),
            rps: 50.0,
            p50_ns: 1_000_000,
            p90_ns: 2_000_000,
            p95_ns: 3_000_000,
            p99_ns: 4_000_000,
            max_ns: 5_000_000,
            outcomes: BTreeMap::from([("ok", 100u64)]),
            kinds: BTreeMap::from([("simulate", 85u64), ("sweep", 15u64)]),
            kind_latency: BTreeMap::from([(
                "sweep",
                KindLatency {
                    count: 15,
                    p50_ns: 1_500_000,
                    p99_ns: 6_000_000,
                },
            )]),
        };
        assert!((report.ns_per_req() - 2e7).abs() < 1.0);
        let text = report.to_json().render();
        for needle in [
            "\"rps\":50",
            "\"ns_per_req\":20000000",
            "\"p99\":4000000",
            "\"outcomes\":{\"ok\":100}",
            "\"keepalive\":true",
            "\"pipeline\":4",
            "\"kind_latency_ns\":{\"sweep\":{\"count\":15,\"p50\":1500000,\"p99\":6000000}}",
        ] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
    }
}
