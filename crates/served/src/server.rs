//! The HTTP server: a readiness loop front end over a worker pool.
//!
//! One **reactor thread** owns the listener and every connection:
//! non-blocking sockets multiplexed with [`crate::reactor::PollSet`],
//! per-connection state machines that feed bytes to the resumable
//! [`RequestParser`], HTTP/1.1 keep-alive with pipelining, and the
//! timeout table (request deadline, write-stall eviction, idle reaping
//! — see `DESIGN.md` §10). Parsed requests become jobs on a bounded
//! queue consumed by **worker threads**; a completed response travels
//! back as an encoded byte buffer and the reactor writes it in request
//! order, however the workers finished.
//!
//! The bounds survive from the blocking ancestor: the job queue has a
//! hard capacity (overflow answers `503` + `Retry-After` straight from
//! the reactor — load shedding never blocks on a worker), request
//! bodies have a byte cap, heads a smaller one (`431`), a slow client
//! mid-request is evicted with `408` after the deadline, and handler
//! panics are caught and answered as `500` without taking the worker
//! down.
//!
//! Shutdown is cooperative: [`ShutdownTrigger::request`] (also wired
//! to `POST /v1/shutdown`) flips the stop flag and wakes the reactor;
//! jobs already queued are drained and their responses written, new
//! requests are refused with `503`, and [`ServerHandle::join`] joins
//! all threads and flushes telemetry.

use crate::engine::{self, EngineError, SimQuery};
use crate::http::{Request, RequestParser, Response};
use crate::obs::{self, AccessLog, AccessRecord};
use crate::reactor::{PollSet, WakeHandle, Waker};
use accordion_chip::popcache;
use accordion_pool::Memo;
use accordion_telemetry::alerts::{self, AlertSet};
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::registry::{exponential_bounds, Counter, HistogramMetric};
use accordion_telemetry::tsdb::Tsdb;
use accordion_telemetry::{counter, flight, flight_track, histogram, json, prom, sink};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Reactor poll tick: the upper bound on timeout-detection latency.
/// Readiness and completions interrupt the tick immediately.
const TICK: Duration = Duration::from_millis(25);

/// Pipelining depth: requests admitted per connection before its
/// earlier responses have been written (backpressure bound).
const MAX_PIPELINE: usize = 32;

/// Artifact generation injected by the binary crate (`repro`). The
/// service crate cannot depend on `accordion-bench` (which depends on
/// everything, including — via the CLI — this crate), so the registry
/// arrives as data: the artifact id list and a generator function.
#[derive(Clone, Copy)]
pub struct ArtifactSource {
    /// Registered artifact ids, e.g. `fig5a`, `tab3`.
    pub ids: &'static [&'static str],
    /// Generates one artifact at a population size; `None` for an
    /// unknown id.
    pub generate: fn(&str, usize) -> Option<String>,
}

/// Server configuration. `Default` matches the CLI defaults.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080`. Port `0` picks an
    /// ephemeral port (tests use this).
    pub addr: String,
    /// Worker threads — the number of requests in service at once.
    pub handler_threads: usize,
    /// Pool workers available to a single request (sweep fan-out,
    /// optimizer batches and iso bisections); the handler thread runs
    /// one share of each map itself.
    pub request_jobs: usize,
    /// Parsed-but-unhandled request cap; beyond it, `503`.
    pub queue_capacity: usize,
    /// Request body cap in bytes (`413` beyond it).
    pub max_body_bytes: usize,
    /// Per-request deadline: a client mid-request that sends nothing
    /// for this long is evicted with `408`; a response that makes no
    /// write progress for this long is dropped.
    pub deadline: Duration,
    /// How long a keep-alive connection may sit idle *between*
    /// requests before the reactor closes it silently.
    pub idle_timeout: Duration,
    /// Artifact generation hook, if the host binary provides one.
    pub artifacts: Option<ArtifactSource>,
    /// Enables `POST /v1/debug/sleep` (tests only — lets a test pin
    /// every worker thread deterministically).
    pub debug_endpoints: bool,
    /// JSONL access-log path (`repro serve --access-log`); `None`
    /// disables access logging.
    pub access_log: Option<String>,
    /// Include wall-clock fields (`queue_us`, `latency_us`) in access
    /// log lines. The determinism test turns this off to pin the file
    /// byte-identical at any `request_jobs`.
    pub log_timing: bool,
    /// Run the self-scrape loop: sample the prom registry into the
    /// in-process TSDB every [`Self::scrape_interval`] and evaluate
    /// alert rules against it. `false` leaves `/v1/timeseries` and
    /// `/v1/alerts` serving empty history (the endpoints stay up).
    pub self_scrape: bool,
    /// Self-scrape sampling period.
    pub scrape_interval: Duration,
    /// Alert-rule file path (`repro serve --alerts`); parsed at
    /// [`start`], rejected with the parse errors when malformed.
    pub alert_rules: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            handler_threads: 4,
            request_jobs: 2,
            queue_capacity: 128,
            max_body_bytes: 1 << 20,
            deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            artifacts: None,
            debug_endpoints: false,
            access_log: None,
            log_timing: true,
            self_scrape: true,
            scrape_interval: Duration::from_secs(1),
            alert_rules: None,
        }
    }
}

/// One parsed request on its way to a worker.
struct Job {
    /// Owning connection's key in the reactor table.
    conn: u64,
    /// Per-connection response sequence (in-order write key).
    seq: u64,
    /// Arrival-order request id (1-based, process of the server).
    id: u64,
    request: Request,
    /// Advertise (and honor) keep-alive on the response.
    keep_alive: bool,
    /// When the request finished parsing (queue-wait accounting).
    queued: Instant,
    /// Reactor-side parse duration, re-emitted as the request's
    /// `serve.parse` stage from the worker's flight track.
    parse_us: u64,
}

/// A fully-encoded response travelling back to the reactor.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
}

struct Shared {
    cfg: ServeConfig,
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: WakeHandle,
    stop: AtomicBool,
    /// Arrival-order request id source (first request gets id 1).
    next_id: AtomicU64,
    /// Requests currently inside a worker.
    in_flight: AtomicU64,
    /// Requests fully answered (including error responses and sheds).
    handled: AtomicU64,
    /// Requests shed with `503` at the queue.
    shed: AtomicU64,
    /// Server start, for `/healthz` uptime and the uptime gauge.
    started: Instant,
    /// JSONL access log, when configured.
    log: Option<AccessLog>,
    /// `served.response_memo`: rendered `200` bodies of the POST
    /// routes, keyed by route and exact body bytes (see
    /// [`memoized`]).
    responses: Memo<RouteKey, Arc<str>, EngineError>,
    /// Self-scrape history store behind `/v1/timeseries`.
    tsdb: Arc<Tsdb>,
    /// Alert rules + evaluation state behind `/v1/alerts`.
    alerts: Mutex<AlertSet>,
    /// Metric handles of every outcome class.
    outcomes: [OutcomeMetrics; 5],
}

/// One outcome class's metric handles, resolved once per server.
struct OutcomeMetrics {
    outcome: &'static str,
    latency: &'static HistogramMetric,
    /// Registered by the class's first request, so `/metrics` lists
    /// only the classes that occurred.
    requests: OnceLock<&'static Counter>,
}

/// Entries of `served.response_memo`, shared by every POST route.
/// Sized so a burst of identical requests — the coalescing target —
/// always hits, while the worst case stays a few MB of JSON.
const RESPONSE_MEMO_CAPACITY: usize = 256;

/// Key of `served.response_memo`: a route and the exact request body.
type RouteKey = (&'static str, Vec<u8>);

/// A `(route, body)` pair behind a trait object, so a lookup can borrow
/// the request's own body instead of copying it into a key. Both forms
/// hash and compare as the tuple `(route, body)`, as `Borrow` requires.
trait RouteBody {
    fn parts(&self) -> (&'static str, &[u8]);
}

impl RouteBody for RouteKey {
    fn parts(&self) -> (&'static str, &[u8]) {
        (self.0, &self.1)
    }
}

impl RouteBody for (&'static str, &[u8]) {
    fn parts(&self) -> (&'static str, &[u8]) {
        *self
    }
}

impl std::hash::Hash for dyn RouteBody + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn RouteBody + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn RouteBody + '_ {}

impl<'a> std::borrow::Borrow<dyn RouteBody + 'a> for RouteKey {
    fn borrow(&self) -> &(dyn RouteBody + 'a) {
        self
    }
}

impl ToOwned for dyn RouteBody + '_ {
    type Owned = RouteKey;

    fn to_owned(&self) -> RouteKey {
        let (route, body) = self.parts();
        (route, body.to_vec())
    }
}

impl Shared {
    /// Flips the stop flag, wakes the workers, and interrupts the
    /// reactor's poll.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.waker.wake();
    }
}

/// Requests a running server to stop; clonable and usable from any
/// thread (the CLI hands one to its stdin watcher, the router wires
/// one to `POST /v1/shutdown`).
#[derive(Clone)]
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Flips the stop flag and wakes every thread. Idempotent.
    pub fn request(&self) {
        self.shared.request_stop();
    }
}

/// A running server: the bound address plus the threads serving it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A trigger that can stop this server from another thread.
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: self.shared.clone(),
        }
    }

    /// Blocks until the server has stopped (externally triggered or
    /// via `POST /v1/shutdown`), then joins threads and flushes
    /// telemetry. Queued requests are drained, not dropped.
    pub fn join(mut self) {
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        sink::flush();
    }

    /// Requests shutdown and then [`join`](Self::join)s.
    pub fn shutdown(self) {
        self.trigger().request();
        self.join();
    }
}

/// Binds and starts the server; returns once the listener is live.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission), waker
/// creation failure, and access-log or alert-rule file errors.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let waker = Waker::new()?;
    let log = match &cfg.access_log {
        Some(path) => Some(AccessLog::create(path, cfg.log_timing)?),
        None => None,
    };
    let rules = match &cfg.alert_rules {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            alerts::parse_rules(&text).map_err(|errs| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("alert rules {path}: {}", errs.join("; ")),
                )
            })?
        }
        None => Vec::new(),
    };
    describe_metrics();
    let outcomes = ["ok", "timeout", "too_large", "shed", "error"].map(|outcome| OutcomeMetrics {
        outcome,
        latency: accordion_telemetry::registry::global().labeled_histogram(
            "served.http.request_latency_us",
            &[("outcome", outcome)],
            &latency_bounds(),
        ),
        requests: OnceLock::new(),
    });
    let shared = Arc::new(Shared {
        cfg,
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: waker.handle(),
        stop: AtomicBool::new(false),
        next_id: AtomicU64::new(0),
        in_flight: AtomicU64::new(0),
        handled: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        started: Instant::now(),
        log,
        responses: Memo::new("served.response_memo", RESPONSE_MEMO_CAPACITY),
        tsdb: Arc::new(Tsdb::new()),
        alerts: Mutex::new(AlertSet::new(rules)),
        outcomes,
    });

    let reactor = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("served-reactor".into())
            .spawn(move || reactor_loop(&shared, listener, &waker))?
    };
    let mut workers = Vec::with_capacity(shared.cfg.handler_threads);
    for i in 0..shared.cfg.handler_threads.max(1) {
        let shared = shared.clone();
        workers.push(
            thread::Builder::new()
                .name(format!("served-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    if shared.cfg.self_scrape {
        let shared = shared.clone();
        workers.push(
            thread::Builder::new()
                .name("served-scrape".into())
                .spawn(move || scrape_loop(&shared))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(reactor),
        workers,
    })
}

// ---------------------------------------------------------------------------
// Reactor side: connection state machines.
// ---------------------------------------------------------------------------

/// One connection's state, owned exclusively by the reactor thread.
struct Conn {
    /// Key in the reactor's connection table (job routing address).
    key: u64,
    stream: TcpStream,
    parser: RequestParser,
    /// Bytes being written, in response order; `out_pos` marks the
    /// written prefix (a partial write parks here until the peer
    /// drains its receive window).
    out: Vec<u8>,
    out_pos: usize,
    /// Completed responses that cannot enter `out` yet because an
    /// earlier pipelined response is still outstanding.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Sequence assigned to the next parsed request.
    next_seq: u64,
    /// Sequence whose response bytes enter `out` next.
    next_write: u64,
    /// After writing response `seq`, close the connection
    /// (`Connection: close`, errors, shed, eviction).
    close_at: Option<u64>,
    /// Peer sent EOF; no further requests can arrive.
    read_closed: bool,
    /// Socket error observed; drop as soon as noticed.
    dead: bool,
    /// Last byte received (idle/deadline accounting).
    last_read: Instant,
    /// Last write progress (write-stall accounting).
    last_progress: Instant,
}

impl Conn {
    fn new(key: u64, stream: TcpStream, max_body: usize, now: Instant) -> Self {
        Self {
            key,
            stream,
            parser: RequestParser::new(max_body),
            out: Vec::new(),
            out_pos: 0,
            ready: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            close_at: None,
            read_closed: false,
            dead: false,
            last_read: now,
            last_progress: now,
        }
    }

    /// Requests admitted but not yet fully promoted to `out`
    /// (pipelining window; bounds per-connection memory).
    fn window(&self) -> usize {
        (self.next_seq - self.next_write) as usize
    }

    /// Requests dispatched to workers whose completions have not come
    /// back yet.
    fn outstanding(&self) -> usize {
        self.window() - self.ready.len()
    }

    /// Nothing is buffered for (or on its way to) this socket.
    fn drained(&self) -> bool {
        self.out_pos == self.out.len() && self.ready.is_empty()
    }
}

fn reactor_loop(shared: &Arc<Shared>, listener: TcpListener, waker: &Waker) {
    let mut listener = Some(listener);
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_conn: u64 = 1;
    let mut set = PollSet::new();
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if stopping {
            // Closing the listener refuses new connections at the
            // kernel; everything already admitted drains below.
            listener = None;
        }

        // Ingest completed responses from the workers.
        {
            let mut done = shared.completions.lock().expect("completion list poisoned");
            for c in done.drain(..) {
                if let Some(conn) = conns.get_mut(&c.conn) {
                    conn.ready.insert(c.seq, c.bytes);
                }
            }
        }

        // Promote, flush, and apply the timeout table per connection.
        let now = Instant::now();
        conns.retain(|_, conn| service_conn(shared, conn, now, stopping));

        if stopping && conns.is_empty() {
            break;
        }

        // Build this tick's poll set from live interest.
        set.clear();
        let _waker_slot = set.push(waker.fd(), true, false);
        let listener_slot = listener
            .as_ref()
            .map(|l| set.push(l.as_raw_fd(), true, false));
        let mut conn_slots: Vec<(usize, u64)> = Vec::with_capacity(conns.len());
        for (key, conn) in &conns {
            let read = !conn.read_closed
                && !conn.dead
                && conn.close_at.is_none()
                && conn.window() < MAX_PIPELINE;
            let write = conn.out_pos < conn.out.len();
            if read || write {
                conn_slots.push((set.push(conn.stream.as_raw_fd(), read, write), *key));
            }
        }
        if set.wait(TICK).is_err() {
            // poll(2) failing outright (EBADF would be a reactor bug)
            // has no recovery story; park briefly and retry.
            thread::sleep(TICK);
            continue;
        }
        waker.drain();

        // Accept everything pending.
        if let (Some(l), Some(slot)) = (&listener, listener_slot) {
            if set.readiness(slot).readable {
                let now = Instant::now();
                while let Ok((stream, _)) = l.accept() {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    counter!("served.http.connections").inc();
                    let key = next_conn;
                    next_conn += 1;
                    conns.insert(key, Conn::new(key, stream, shared.cfg.max_body_bytes, now));
                }
            }
        }

        // Feed readable sockets to their parsers; dispatch requests.
        let now = Instant::now();
        for (slot, key) in conn_slots {
            let r = set.readiness(slot);
            if !r.any() {
                continue;
            }
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            if r.readable {
                read_conn(shared, conn, now);
            } else if r.error {
                // Error with nothing to read: the peer is gone. (A
                // hangup that still has buffered data reports
                // readable too and is handled above — the read path
                // sees the EOF after consuming the data.)
                conn.dead = true;
            }
        }
        // Writes happen in the service pass at the top of the loop.
    }
}

/// One service pass: promote completed responses into the write
/// buffer, flush what the socket accepts, then walk the timeout /
/// close table. Returns `false` when the connection is finished.
fn service_conn(shared: &Shared, conn: &mut Conn, now: Instant, stopping: bool) -> bool {
    if conn.dead {
        counter!("served.http.disconnects").inc();
        return false;
    }
    // Promote in strict sequence order: pipelined responses leave in
    // the order the requests arrived, however the workers finished.
    while let Some(bytes) = conn.ready.remove(&conn.next_write) {
        conn.out.extend_from_slice(&bytes);
        conn.next_write += 1;
    }
    // Flush until the socket pushes back.
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_progress = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.dead {
        counter!("served.http.disconnects").inc();
        return false;
    }
    if conn.out_pos > 0 && conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    let drained = conn.drained();
    // Close-after-response: the marked response has been fully
    // written; nothing later was admitted.
    if let Some(seq) = conn.close_at {
        if conn.next_write > seq && drained {
            return false;
        }
    }
    // Peer EOF and nothing left to answer.
    if conn.read_closed && conn.outstanding() == 0 && drained {
        return false;
    }
    // Draining: anything not waiting on an already-queued job closes
    // now; new work was already being refused with 503.
    if stopping && conn.outstanding() == 0 && drained {
        return false;
    }
    // Write stall: the peer accepted nothing for a whole deadline.
    if conn.out_pos < conn.out.len() && now.duration_since(conn.last_progress) > shared.cfg.deadline
    {
        counter!("served.http.disconnects").inc();
        return false;
    }
    // Slow client: mid-request with nothing received for a whole
    // deadline → 408, then close (after earlier pipelined responses).
    if conn.close_at.is_none()
        && conn.parser.mid_request()
        && now.duration_since(conn.last_read) > shared.cfg.deadline
    {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        answer_reactor_side(
            shared,
            conn,
            seq,
            id,
            Response::error(408, "request timed out"),
            0,
        );
        conn.close_at = Some(seq);
        conn.read_closed = true;
    }
    // Idle keep-alive connection between requests: reap silently.
    if conn.close_at.is_none()
        && !conn.parser.mid_request()
        && conn.outstanding() == 0
        && drained
        && now.duration_since(conn.last_read) > shared.cfg.idle_timeout
    {
        return false;
    }
    true
}

/// Drains the socket into the parser and dispatches every complete
/// request. Bounded per tick so one firehose connection cannot starve
/// the rest.
fn read_conn(shared: &Shared, conn: &mut Conn, now: Instant) {
    let mut buf = [0u8; 16 * 1024];
    for _ in 0..4 {
        if conn.read_closed || conn.dead || conn.close_at.is_some() || conn.window() >= MAX_PIPELINE
        {
            break;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_read = now;
                conn.parser.push(&buf[..n]);
                parse_pending(shared, conn, now);
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Pulls every complete request out of the parser: assign the arrival
/// id and response sequence, then hand it to the workers (or shed /
/// answer the framing error in place).
fn parse_pending(shared: &Shared, conn: &mut Conn, now: Instant) {
    while conn.close_at.is_none() && !conn.dead && conn.window() < MAX_PIPELINE {
        let parse_started = Instant::now();
        match conn.parser.next_request() {
            Ok(None) => break,
            Ok(Some(parsed)) => {
                let parse_us = parse_started.elapsed().as_micros() as u64;
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                let keep_alive = !parsed.close;
                if !keep_alive {
                    // Pipelined bytes after an announced close are
                    // ignored, per RFC 9112 §9.6.
                    conn.close_at = Some(seq);
                }
                dispatch(
                    shared,
                    conn,
                    seq,
                    id,
                    parsed.request,
                    keep_alive,
                    now,
                    parse_us,
                );
            }
            Err(e) => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                answer_reactor_side(
                    shared,
                    conn,
                    seq,
                    id,
                    Response::error(e.status(), &e.message()),
                    0,
                );
                conn.close_at = Some(seq);
                conn.read_closed = true;
                break;
            }
        }
    }
}

/// Queues one job, or sheds it with `503` when the queue is full or
/// the server is draining. The shed decision and the workers'
/// exit-on-empty decision run under the same lock, so a job can never
/// be enqueued after the last worker has left.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    shared: &Shared,
    conn: &mut Conn,
    seq: u64,
    id: u64,
    request: Request,
    keep_alive: bool,
    now: Instant,
    parse_us: u64,
) {
    {
        let mut jobs = shared.jobs.lock().expect("job queue poisoned");
        let full = jobs.len() >= shared.cfg.queue_capacity;
        let draining = shared.stop.load(Ordering::SeqCst);
        if !full && !draining {
            jobs.push_back(Job {
                conn: conn.key,
                seq,
                id,
                request,
                keep_alive,
                queued: now,
                parse_us,
            });
            drop(jobs);
            shared.available.notify_one();
            return;
        }
    }
    // Shed inline from the reactor: a one-line 503 is cheap and tells
    // a well-behaved client when to retry; it never waits on a worker.
    shared.shed.fetch_add(1, Ordering::Relaxed);
    let resp = Response::error(503, "server saturated; retry shortly")
        .with_header("Retry-After", "1".to_string());
    answer_reactor_side(shared, conn, seq, id, resp, parse_us);
    conn.close_at = Some(seq);
}

/// Answers a request the reactor resolves itself (framing errors,
/// `408` evictions, `503` sheds) under its own flight track, so these
/// are first-class requests, not holes in the telemetry.
fn answer_reactor_side(
    shared: &Shared,
    conn: &mut Conn,
    seq: u64,
    id: u64,
    resp: Response,
    parse_us: u64,
) {
    let _track = flight_track!("req{:08}", id);
    accordion_telemetry::event::advance_sim(parse_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.parse",
        us: parse_us,
    });
    account(
        shared,
        &AccessRecord {
            id,
            method: "-",
            path: "-",
            status: resp.status,
            handler: "-",
            cache: "-",
            bytes: resp.body.len() as u64,
            queue_us: 0,
            latency_us: parse_us,
        },
    );
    conn.ready.insert(seq, resp.encode(false));
}

/// Accounts one answered request — a worker's, a reactor-side error
/// or a shed — exactly once: request and response-class counters,
/// lifetime and per-outcome latency histograms, the per-outcome
/// counter, the `serve.request` flight event (on the caller's track)
/// and the access-log line.
fn account(shared: &Shared, rec: &AccessRecord) {
    counter!("served.http.requests").inc();
    match rec.status {
        200..=299 => counter!("served.http.responses.2xx"),
        400..=499 => counter!("served.http.responses.4xx"),
        _ => counter!("served.http.responses.5xx"),
    }
    .inc();
    let us = rec.latency_us as f64;
    histogram!("served.http.latency_us", latency_bounds()).record(us);
    let outcome = obs::outcome_of(rec.status);
    let class = shared
        .outcomes
        .iter()
        .find(|c| c.outcome == outcome)
        .expect("start registers every class outcome_of names");
    class
        .latency
        .record_with_exemplar(us, &exemplar_labels(rec.id));
    class
        .requests
        .get_or_init(|| {
            accordion_telemetry::registry::global()
                .labeled_counter("served.http.requests_by_outcome", &[("outcome", outcome)])
        })
        .inc();
    flight!(SimEvent::RequestRetire {
        status: u64::from(rec.status),
        bytes: rec.bytes,
        us: rec.latency_us,
    });
    if let Some(log) = &shared.log {
        log.write(rec);
    }
    shared.handled.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Worker side: route, handle, encode.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                // Even after stop, the queue is drained before this
                // returns None — requests already admitted are
                // answered, not dropped.
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .available
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .expect("job queue poisoned");
                jobs = q;
            }
        };
        let Some(job) = job else { return };
        let conn = job.conn;
        let seq = job.seq;
        let bytes = handle_job(shared, job);
        let was_empty = {
            let mut done = shared.completions.lock().expect("completion list poisoned");
            done.push(Completion { conn, seq, bytes });
            done.len() == 1
        };
        // One pending wake is enough: if completions was already
        // non-empty the reactor has an unconsumed wake byte (or is
        // already mid-ingest and will see this entry under the lock).
        if was_empty {
            shared.waker.wake();
        }
    }
}

/// Runs one request end to end on a worker: telemetry context, route
/// (panic-isolated), encode. Returns the wire bytes for the reactor.
fn handle_job(shared: &Shared, job: Job) -> Vec<u8> {
    let queue_us = job.queued.elapsed().as_micros() as u64;
    let started = Instant::now();
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    // Request context and flight track: every downstream layer, pool
    // workers included, can annotate and name this request without a
    // context argument (see `crate::obs`).
    obs::begin_request();
    let _track = flight_track!("req{:08}", job.id);
    histogram!("served.http.queue_wait_us", latency_bounds()).record(queue_us as f64);
    accordion_telemetry::event::advance_sim(job.parse_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.parse",
        us: job.parse_us,
    });

    let req = &job.request;
    let (handler, respond) = route(&req.method, &req.path);
    let handle_started = Instant::now();
    // A route handler panicking (a bug) must answer 500 and leave the
    // worker alive for the next request.
    let resp = match catch_unwind(AssertUnwindSafe(|| respond(shared, req))) {
        Ok(resp) => resp,
        Err(_) => {
            counter!("served.http.panics").inc();
            Response::error(500, "internal error (handler panicked)")
        }
    };
    let handle_us = handle_started.elapsed().as_micros() as u64;
    accordion_telemetry::event::advance_sim(handle_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.handle",
        us: handle_us,
    });

    let encode_started = Instant::now();
    let wire = resp.encode(job.keep_alive);
    let encode_us = encode_started.elapsed().as_micros() as u64;
    accordion_telemetry::event::advance_sim(encode_us);
    flight!(SimEvent::ServeStage {
        stage: "serve.serialize",
        us: encode_us,
    });

    let ctx = obs::end_request().unwrap_or_default();
    account(
        shared,
        &AccessRecord {
            id: job.id,
            method: &req.method,
            path: &req.path,
            status: resp.status,
            handler,
            cache: match ctx.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "-",
            },
            bytes: resp.body.len() as u64,
            queue_us,
            latency_us: job.parse_us + started.elapsed().as_micros() as u64,
        },
    );
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    wire
}

// ---------------------------------------------------------------------------
// Self-scrape loop: registry → TSDB → alert evaluation.
// ---------------------------------------------------------------------------

/// One self-scrape tick: refresh the point-in-time gauges, fold the
/// whole registry into the TSDB, then advance the alert state
/// machines. Transitions land in the access log (as `type:"alert"`
/// lines) and the `served.alerts.*` metrics.
fn scrape_tick(shared: &Shared) {
    let scrape_started = Instant::now();
    refresh_gauges(shared);
    shared.tsdb.scrape(accordion_telemetry::registry::global());
    let now_ms = shared.tsdb.now_ms();
    let transitions = {
        let mut alerts = shared.alerts.lock().expect("alert set poisoned");
        let t = alerts.evaluate_at_ms(&shared.tsdb, now_ms);
        accordion_telemetry::registry::global()
            .gauge("served.alerts.firing")
            .set(alerts.firing() as f64);
        t
    };
    for t in &transitions {
        counter!("served.alerts.transitions").inc();
        if let Some(log) = &shared.log {
            log.write_alert(&t.name, t.from.as_str(), t.to.as_str(), t.at_ms);
        }
    }
    histogram!("served.scrape.us", exponential_bounds(1.0, 2.0, 20))
        .record(scrape_started.elapsed().as_micros() as f64);
}

/// The self-scrape thread body: one [`scrape_tick`] per
/// `scrape_interval`, sleeping in short steps so shutdown is never
/// held up by a long interval.
fn scrape_loop(shared: &Arc<Shared>) {
    const STEP: Duration = Duration::from_millis(25);
    while !shared.stop.load(Ordering::SeqCst) {
        let started = Instant::now();
        scrape_tick(shared);
        while started.elapsed() < shared.cfg.scrape_interval {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let left = shared.cfg.scrape_interval.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            thread::sleep(STEP.min(left));
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics plumbing.
// ---------------------------------------------------------------------------

/// Latency bucket edges: 1 µs .. ~8.4 s, powers of two.
fn latency_bounds() -> Vec<f64> {
    exponential_bounds(1.0, 2.0, 24)
}

/// Exemplar label body for one request: the arrival id plus its
/// flight-recorder track name (`req00000042`), so a bucket exemplar on
/// `/metrics` cross-references straight into a Chrome trace.
fn exemplar_labels(id: u64) -> String {
    format!("request_id=\"{id}\",track=\"req{id:08}\"")
}

/// Registers `# HELP` texts and the constant build-info sample.
/// Idempotent; called from [`start`].
fn describe_metrics() {
    let reg = accordion_telemetry::registry::global();
    reg.describe(
        "served.http.request_latency_us",
        "request latency by outcome, microseconds",
    );
    reg.describe(
        "served.http.requests_by_outcome",
        "requests answered, by outcome class",
    );
    reg.describe(
        "served.http.requests",
        "requests answered, sheds and reactor-side errors included",
    );
    reg.describe("served.http.connections", "TCP connections accepted");
    reg.describe(
        "served.http.latency_us",
        "lifetime request latency, microseconds",
    );
    reg.describe("served.queue.depth", "requests waiting for a worker");
    reg.describe(
        "served.http.in_flight",
        "requests currently inside a worker",
    );
    reg.describe(
        "served.coalesced",
        "simulate, sweep and optimize requests answered by coalescing onto an identical in-flight or memoized evaluation",
    );
    reg.describe("served.uptime.seconds", "seconds since the server started");
    reg.describe(
        "served.alerts.firing",
        "alert rules currently in the firing state",
    );
    reg.describe(
        "served.alerts.transitions",
        "alert state-machine transitions observed",
    );
    reg.describe(
        "served.scrape.us",
        "self-scrape tick duration (registry gather + TSDB fold + alert eval), microseconds",
    );
    reg.describe(
        "opt.eval_cache.misses",
        "operating points evaluated by the optimizer (candidate memo misses)",
    );
    reg.describe(
        "opt.eval_cache.hits",
        "optimizer evaluations answered from the candidate memo",
    );
    reg.describe(
        "opt.ctx_cache.hits",
        "optimizer per-supply timing-context cache hits",
    );
    reg.describe(
        "opt.ctx_cache.misses",
        "optimizer per-supply timing-context cache misses",
    );
    reg.describe("opt.generations", "NSGA-II generations completed");
    reg.describe(
        "opt.front_size",
        "rank-0 archive front size after the latest generation",
    );
    reg.describe(
        "served.engine.optimizations",
        "optimize requests that ran the search engine",
    );
    reg.describe(
        "varius.sampler_cache.hits",
        "variation sampler cache hits (see accordion-varius vmap)",
    );
    reg.describe(
        "varius.sampler_cache.misses",
        "variation sampler cache misses",
    );
    reg.describe(
        "varius.sampler_cache.evictions",
        "variation samplers evicted from the LRU cache",
    );
    reg.describe(
        "varius.sampler_cache.entries",
        "variation samplers currently cached",
    );
    // Eager registration: these appear on `/metrics` (and therefore in
    // the TSDB) from the first scrape, not from first traffic.
    reg.counter("varius.sampler_cache.hits");
    reg.counter("varius.sampler_cache.misses");
    reg.counter("varius.sampler_cache.evictions");
    reg.gauge("varius.sampler_cache.entries");
    reg.gauge("served.alerts.firing");
    reg.describe("served.build.info", "build metadata; value is always 1");
    reg.labeled_gauge(
        "served.build.info",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            (
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            ),
        ],
    )
    .set(1.0);
}

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

/// A route's responder.
type Handler = fn(&Shared, &Request) -> Response;

/// The route table: a request's logical handler name, the access log's
/// bounded vocabulary (never the raw path), and its responder.
fn route(method: &str, path: &str) -> (&'static str, Handler) {
    match (method, path) {
        ("GET", "/healthz") => ("healthz", |s, _| healthz(s)),
        ("GET", "/metrics") => ("metrics", |s, _| metrics(s)),
        ("GET", "/v1/timeseries") => ("timeseries", timeseries),
        ("GET", "/v1/alerts") => ("alerts", |s, _| alerts_status(s)),
        ("GET", "/v1/artifacts") => ("artifacts_list", |s, _| list_artifacts(s)),
        ("POST", "/v1/simulate") => ("simulate", simulate),
        ("POST", "/v1/sweep") => ("sweep", sweep),
        ("POST", "/v1/optimize") => ("optimize", optimize),
        ("POST", "/v1/shutdown") => ("shutdown", |s, _| {
            s.request_stop();
            let body = json::Json::obj(vec![("status", json::Json::str("stopping"))]);
            Response::json(200, body.render())
        }),
        ("POST", "/v1/debug/sleep") => ("debug_sleep", debug_sleep),
        ("GET", p) if p.starts_with("/v1/artifacts/") => ("artifact", artifact),
        (_, "/healthz" | "/metrics" | "/v1/artifacts" | "/v1/timeseries" | "/v1/alerts")
        | ("GET" | "PUT" | "DELETE", "/v1/simulate" | "/v1/sweep" | "/v1/optimize") => {
            ("other", |_, _| Response::error(405, "method not allowed"))
        }
        _ => ("other", |_, _| no_such_endpoint()),
    }
}

fn no_such_endpoint() -> Response {
    Response::error(404, "no such endpoint")
}

/// `GET /v1/artifacts/{id}?chips=N`: generates one artifact report
/// (a population of `N` chips, default 8).
fn artifact(shared: &Shared, req: &Request) -> Response {
    let id = &req.path["/v1/artifacts/".len()..];
    let Some(source) = shared.cfg.artifacts else {
        return Response::error(404, "artifact generation is not wired into this server");
    };
    if !source.ids.contains(&id) {
        return Response::error(404, &format!("unknown artifact {id:?}"));
    }
    let chips = match req.query_value("chips").map(str::parse::<usize>) {
        None => 8,
        Some(Ok(n)) if (1..=100).contains(&n) => n,
        Some(_) => return Response::error(400, "chips must be an integer in [1, 100]"),
    };
    counter!("served.artifacts.requests").inc();
    match (source.generate)(id, chips) {
        Some(text) => Response::text(200, text),
        // Validated above: a miss means the id list and the generator
        // disagree.
        None => Response::error(500, "artifact registry changed underfoot"),
    }
}

/// Refreshes the point-in-time serving gauges (queue depth, in-flight,
/// uptime). Shared by `/metrics` and the
/// self-scrape loop so the exposition and the TSDB history agree.
fn refresh_gauges(shared: &Shared) {
    let reg = accordion_telemetry::registry::global();
    let depth = shared.jobs.lock().expect("job queue poisoned").len();
    reg.gauge("served.queue.depth").set(depth as f64);
    reg.gauge("served.http.in_flight")
        .set(shared.in_flight.load(Ordering::Relaxed) as f64);
    reg.gauge("served.uptime.seconds")
        .set(shared.started.elapsed().as_secs_f64());
}

/// Renders `/metrics`: refreshes the point-in-time serving gauges,
/// then emits the whole registry in Prometheus exposition format.
fn metrics(shared: &Shared) -> Response {
    refresh_gauges(shared);
    Response::text(200, prom::render(accordion_telemetry::registry::global()))
        .with_header("X-Content-Type-Options", "nosniff".to_string())
}

/// Decodes `%XX` escapes (and `+` as space) in a query-string value.
/// Series ids contain `{`, `"` and `=`, which well-behaved clients
/// percent-encode; malformed escapes (anything but two ASCII hex
/// digits after the `%`) pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                // Two ASCII hex digits: `from_str_radix` alone would
                // also take a sign, `%+5`.
                let digit = |b: u8| char::from(b).to_digit(16);
                match (digit(bytes[i + 1]), digit(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `GET /v1/timeseries?metric=<id>&range=<secs>`: one series' history
/// from the self-scrape TSDB. Without `metric`, lists the known series
/// ids (the discovery call `repro dash` makes first).
fn timeseries(shared: &Shared, req: &Request) -> Response {
    let Some(raw_metric) = req.query_value("metric") else {
        let mut ids = shared.tsdb.series_ids();
        ids.sort();
        let doc = json::Json::obj(vec![
            ("count", json::Json::Num(ids.len() as f64)),
            ("scrapes", json::Json::Num(shared.tsdb.scrapes() as f64)),
            (
                "series",
                json::Json::Arr(ids.iter().map(json::Json::str).collect()),
            ),
        ]);
        return Response::json(200, doc.render());
    };
    let metric = percent_decode(raw_metric);
    let range_secs = match req.query_value("range").map(str::parse::<u64>) {
        None => 300,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return Response::error(400, "range must be a positive integer (seconds)"),
    };
    let r = shared.tsdb.query(&metric, range_secs);
    let points: Vec<json::Json> = r
        .points
        .iter()
        .map(|p| {
            json::Json::obj(vec![
                ("t_ms", json::Json::Num(p.t_ms as f64)),
                ("value", json::Json::Num(p.value)),
            ])
        })
        .collect();
    let doc = json::Json::obj(vec![
        ("metric", json::Json::str(&r.metric)),
        ("range_secs", json::Json::Num(range_secs as f64)),
        ("tier_secs", json::Json::Num(r.tier_secs as f64)),
        ("points", json::Json::Arr(points)),
    ]);
    Response::json(200, doc.render())
}

/// `GET /v1/alerts`: point-in-time view of every rule's state machine.
fn alerts_status(shared: &Shared) -> Response {
    let alerts = shared.alerts.lock().expect("alert set poisoned");
    let statuses = alerts.statuses();
    let rows: Vec<json::Json> = statuses
        .iter()
        .map(|s| {
            let num_or_null = |v: Option<f64>| match v {
                Some(x) if x.is_finite() => json::Json::Num(x),
                _ => json::Json::Null,
            };
            json::Json::obj(vec![
                ("name", json::Json::str(&s.name)),
                ("state", json::Json::str(s.state.as_str())),
                ("since_ms", json::Json::Num(s.since_ms as f64)),
                ("fast_value", num_or_null(s.fast_value)),
                ("slow_value", num_or_null(s.slow_value)),
            ])
        })
        .collect();
    let doc = json::Json::obj(vec![
        ("count", json::Json::Num(statuses.len() as f64)),
        ("firing", json::Json::Num(alerts.firing() as f64)),
        ("alerts", json::Json::Arr(rows)),
    ]);
    Response::json(200, doc.render())
}

fn healthz(shared: &Shared) -> Response {
    let doc = json::Json::obj(vec![
        ("status", json::Json::str("ok")),
        (
            "queue_capacity",
            json::Json::Num(shared.cfg.queue_capacity as f64),
        ),
        (
            "queue_depth",
            json::Json::Num(shared.jobs.lock().expect("job queue poisoned").len() as f64),
        ),
        (
            "handler_threads",
            json::Json::Num(shared.cfg.handler_threads as f64),
        ),
        (
            "in_flight",
            json::Json::Num(shared.in_flight.load(Ordering::Relaxed) as f64),
        ),
        (
            "handled",
            json::Json::Num(shared.handled.load(Ordering::Relaxed) as f64),
        ),
        (
            "shed",
            json::Json::Num(shared.shed.load(Ordering::Relaxed) as f64),
        ),
        (
            "uptime_seconds",
            json::Json::Num(shared.started.elapsed().as_secs() as f64),
        ),
        (
            "caches",
            json::Json::obj(vec![
                ("chips", json::Json::Num(popcache::len() as f64)),
                (
                    "variation_samplers",
                    json::Json::Num(accordion_varius::vmap::sampler_cache_len() as f64),
                ),
            ]),
        ),
    ]);
    Response::json(200, doc.render())
}

fn list_artifacts(shared: &Shared) -> Response {
    let ids: Vec<json::Json> = shared
        .cfg
        .artifacts
        .map(|s| s.ids.iter().map(|id| json::Json::str(*id)).collect())
        .unwrap_or_default();
    let doc = json::Json::obj(vec![
        ("count", json::Json::Num(ids.len() as f64)),
        ("artifacts", json::Json::Arr(ids)),
    ]);
    Response::json(200, doc.render())
}

fn parse_body(req: &Request) -> Result<json::Json, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(json::Json::Obj(Vec::new()));
    }
    json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// Answers a POST route through `served.response_memo`. Every route's
/// answer is a pure function of its body (the engine and optimizer
/// determinism contracts), so a repeat replays the rendered bytes
/// without parsing, and concurrent identical requests wait for one
/// evaluation. Errors — parse, validation and engine alike — reach the
/// joiners of that evaluation but are never stored. A replayed or
/// joined answer counts as coalesced.
fn memoized(
    shared: &Shared,
    route: &'static str,
    req: &Request,
    eval: impl FnOnce(&json::Json) -> Result<json::Json, EngineError>,
) -> Response {
    let started = Instant::now();
    let key: &dyn RouteBody = &(route, req.body.as_slice());
    let answer = shared.responses.lookup(key, || {
        let doc = parse_body(req).map_err(EngineError::Bad)?;
        eval(&doc).map(|doc| Arc::from(doc.render()))
    });
    match answer {
        Ok((body, hit)) => {
            if hit {
                note_coalesced(started.elapsed().as_micros() as u64);
            }
            Response::json(200, body.as_ref().to_owned())
        }
        Err(e) => engine_error(&e),
    }
}

/// Marks the current request as answered by coalescing: the metric the
/// dashboards watch, the access-log `cache` field, and a trace span
/// (so a coalesced request's flight track shows where its latency
/// went — waiting on the leader or replaying, not simulating).
fn note_coalesced(us: u64) {
    counter!("served.coalesced").inc();
    obs::note_cache(true);
    accordion_telemetry::event::advance_sim(us);
    flight!(SimEvent::ServeStage {
        stage: "serve.coalesced",
        us,
    });
}

fn simulate(shared: &Shared, req: &Request) -> Response {
    memoized(shared, "simulate", req, |doc| {
        engine::simulate(&SimQuery::from_json(doc).map_err(EngineError::Bad)?)
    })
}

fn sweep(shared: &Shared, req: &Request) -> Response {
    memoized(shared, "sweep", req, |doc| {
        engine::sweep(doc, shared.cfg.request_jobs)
    })
}

fn optimize(shared: &Shared, req: &Request) -> Response {
    memoized(shared, "optimize", req, |doc| {
        engine::optimize(doc, shared.cfg.request_jobs)
    })
}

fn engine_error(e: &EngineError) -> Response {
    match e {
        EngineError::Bad(msg) => Response::error(400, msg),
        EngineError::Internal(msg) => {
            counter!("served.engine.internal_errors").inc();
            Response::error(500, msg)
        }
    }
}

/// `POST /v1/debug/sleep`; a 404 unless debug endpoints are on.
fn debug_sleep(shared: &Shared, req: &Request) -> Response {
    if !shared.cfg.debug_endpoints {
        return no_such_endpoint();
    }
    let ms = parse_body(req)
        .ok()
        .and_then(|d| d.get("ms").and_then(json::Json::as_f64))
        .unwrap_or(50.0)
        .clamp(0.0, 5000.0);
    thread::sleep(Duration::from_millis(ms as u64));
    Response::json(
        200,
        json::Json::obj(vec![("slept_ms", json::Json::Num(ms))]).render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(raw.as_bytes()).expect("send");
        let mut out = String::new();
        let _ = conn.read_to_string(&mut out);
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        )
    }

    #[test]
    fn healthz_and_routing_basics() {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let wrong_method = get(addr, "/v1/simulate");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("served_http_requests"), "{metrics}");
        handle.shutdown();
    }

    #[test]
    fn the_route_table_names_every_access_log_line() {
        let dir = std::env::temp_dir().join(format!("accordion-routes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let log = dir.join("access.jsonl");
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 1,
            access_log: Some(log.to_str().expect("utf-8 path").into()),
            log_timing: false,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        // Debug endpoints are off: the request keeps its name and
        // answers 404.
        let sleep =
            "POST /v1/debug/sleep HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        assert!(request(addr, sleep).starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/v1/simulate").starts_with("HTTP/1.1 405"));
        assert!(get(addr, "/v1/artifacts/fig5a").starts_with("HTTP/1.1 404"));
        handle.shutdown();
        let text = std::fs::read_to_string(&log).expect("access log");
        let _ = std::fs::remove_dir_all(&dir);
        let expected = [(404, "debug_sleep"), (405, "other"), (404, "artifact")];
        assert_eq!(text.lines().count(), expected.len(), "{text}");
        for (line, (status, handler)) in text.lines().zip(expected) {
            let fields =
                format!("\"status\":{status},\"outcome\":\"error\",\"handler\":\"{handler}\"");
            assert!(line.contains(&fields), "{line}");
        }
    }

    #[test]
    fn optimize_route_validates_and_shares_error_parity() {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        // Wrong method answers 405 like the other engine routes.
        let wrong_method = get(addr, "/v1/optimize");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
        // Validation failures surface the engine's message as a 400.
        let body = r#"{"app": "nope"}"#;
        let bad = request(
            addr,
            &format!(
                "POST /v1/optimize HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("unknown app"), "{bad}");
        handle.shutdown();
    }

    #[test]
    fn percent_decode_handles_escapes_and_passthrough() {
        assert_eq!(percent_decode("plain_name"), "plain_name");
        assert_eq!(
            percent_decode("a%7Boutcome%3D%22ok%22%7D%3Arate"),
            "a{outcome=\"ok\"}:rate"
        );
        assert_eq!(percent_decode("a+b"), "a b");
        // Malformed escapes pass through literally.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // A sign is not a hex digit: `%+5` is a `%`, a space and `5`.
        assert_eq!(percent_decode("%+5"), "% 5");
        assert_eq!(percent_decode("%-5"), "%-5");
    }

    /// Escapes every byte a series id may carry besides
    /// `[A-Za-z0-9_:.]`, as a client would.
    fn percent_encode(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b':' | b'.' => {
                    char::from(b).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn percent_decode_never_panics_on_random_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..24),
            pick in proptest::collection::vec(0usize..8, 0..24),
        ) {
            // Raw bytes, and a soup of the bytes escapes are made of.
            const PIECES: [&str; 8] = ["%", "+", "-", "0", "a", "F", "g", "\u{e9}"];
            let soup: String = pick.iter().map(|&k| PIECES[k]).collect();
            let _ = percent_decode(&String::from_utf8_lossy(&bytes));
            let _ = percent_decode(&soup);
        }

        #[test]
        fn percent_decode_inverts_encoding_on_series_ids(
            base in proptest::collection::vec(0usize..38, 1..16),
            keys in proptest::collection::vec(0usize..38, 0..3),
            values in proptest::collection::vec(0usize..38, 3..4),
            suffix in 0usize..3,
        ) {
            const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
            let word =
                |ks: &[usize]| ks.iter().map(|&k| char::from(NAME[k])).collect::<String>();
            let mut id = word(&base);
            if !keys.is_empty() {
                let pairs: Vec<String> = keys
                    .iter()
                    .zip(&values)
                    .map(|(&k, &v)| format!("{}=\"{} %+&#\"", word(&[k]), word(&[v])))
                    .collect();
                id.push_str(&format!("{{{}}}", pairs.join(",")));
            }
            id.push_str(["", ":rate", ":p99"][suffix]);
            proptest::prop_assert_eq!(percent_decode(&percent_encode(&id)), id);
        }
    }

    #[test]
    fn ops_plane_endpoints_serve_history_and_alert_state() {
        let dir = std::env::temp_dir().join("accordion-opsplane-route-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.toml");
        std::fs::write(
            &rules,
            "[[alert]]\nname = \"queue_deep\"\nmetric = \"served_queue_depth\"\n\
             threshold = 1000000000\nfast_window_s = 5\nslow_window_s = 30\n",
        )
        .unwrap();
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 2,
            scrape_interval: Duration::from_millis(20),
            alert_rules: Some(rules.to_str().unwrap().to_string()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        // Let the self-scrape loop take a few samples.
        thread::sleep(Duration::from_millis(120));

        let listing = get(addr, "/v1/timeseries");
        assert!(listing.starts_with("HTTP/1.1 200"), "{listing}");
        assert!(listing.contains("served_queue_depth"), "{listing}");

        let series = get(addr, "/v1/timeseries?metric=served_queue_depth&range=60");
        assert!(series.starts_with("HTTP/1.1 200"), "{series}");
        assert!(series.contains("\"tier_secs\":1"), "{series}");
        assert!(series.contains("\"points\":["), "{series}");

        let bad = get(addr, "/v1/timeseries?metric=x&range=zero");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        // A range whose milliseconds overflow `u64` is answered by the
        // coarsest tier, not a panic.
        let longest = get(
            addr,
            "/v1/timeseries?metric=served_queue_depth&range=18446744073709552",
        );
        assert!(longest.starts_with("HTTP/1.1 200"), "{longest}");
        assert!(longest.contains("\"tier_secs\":60"), "{longest}");

        let alerts = get(addr, "/v1/alerts");
        assert!(alerts.starts_with("HTTP/1.1 200"), "{alerts}");
        assert!(alerts.contains("\"name\":\"queue_deep\""), "{alerts}");
        assert!(alerts.contains("\"state\":\"inactive\""), "{alerts}");

        let wrong_method = request(
            addr,
            "POST /v1/alerts HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
        handle.shutdown();
        let _ = std::fs::remove_file(&rules);
    }

    #[test]
    fn bad_alert_rules_fail_start() {
        let dir = std::env::temp_dir().join("accordion-opsplane-badrules-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("bad.toml");
        std::fs::write(&rules, "[[alert]]\nname = \"x\"\n").unwrap();
        match start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            alert_rules: Some(rules.to_str().unwrap().to_string()),
            ..ServeConfig::default()
        }) {
            Ok(handle) => {
                handle.shutdown();
                panic!("rules without a kind must be rejected");
            }
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
        }
        let _ = std::fs::remove_file(&rules);
    }

    #[test]
    fn malformed_requests_answer_4xx_without_killing_workers() {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 1,
            max_body_bytes: 64,
            deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.addr();
        let bad = [
            "garbage\r\n\r\n",
            "GET\r\n\r\n",
            "get /healthz HTTP/1.1\r\n\r\n",
            "GET /healthz SPDY/9\r\n\r\n",
            "POST /v1/simulate HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /v1/simulate HTTP/1.1\r\nContent-Length: 999\r\n\r\n{}",
            "GET nopath HTTP/1.1\r\n\r\n",
        ];
        for raw in bad {
            let reply = request(addr, raw);
            assert!(
                reply.starts_with("HTTP/1.1 4"),
                "expected 4xx for {raw:?}, got {reply:?}"
            );
        }
        // The single worker must still be alive.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        handle.shutdown();
    }

    #[test]
    fn oversized_body_is_413() {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 1,
            max_body_bytes: 16,
            ..ServeConfig::default()
        })
        .expect("bind");
        let big = "x".repeat(64);
        let reply = request(
            handle.addr(),
            &format!(
                "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                big.len(),
                big
            ),
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn oversized_headers_are_431() {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let reply = request(
            handle.addr(),
            &format!(
                "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(crate::http::MAX_HEAD_BYTES + 1)
            ),
        );
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
        handle.shutdown();
    }
}
