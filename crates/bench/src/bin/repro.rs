//! `repro` — regenerates every table and figure of the Accordion
//! paper's evaluation, plus the extension experiments.
//!
//! ```text
//! repro <artifact> [--chips N] [--csv DIR] [--trace LEVEL]
//!                  [--trace-json FILE] [--manifest FILE]
//!                  [--chrome-trace FILE]
//! repro all
//! repro profile <artifact|all> [--chips N] [--chrome-trace FILE]
//! repro serve [--addr HOST:PORT] [--access-log FILE] [--chrome-trace FILE]
//!             [--no-keepalive] [--timeout S] [--idle-timeout S]
//!             [--max-pipeline N] [--alerts FILE] [--scrape-interval MS]
//!             [--no-scrape]
//! repro loadtest [--addr HOST:PORT] [--mode closed|open] [--rate R]
//!                [--connections N] [--duration S] [--warmup S]
//!                [--seed N] [--json FILE] [--keepalive] [--pipeline N]
//!                [--no-scrape]
//! repro optimize [--app NAME] [--topo default|small] [--seed N]
//!                [--pop-seed N] [--chips N] [--chip N] [--population N]
//!                [--generations N] [--scout-steps N] [--quality-floor Q]
//!                [--power-budget W] [--time-budget S] [--grid-check N]
//!                [--no-iso] [--json FILE] [--jobs N]
//! repro dash [--addr HOST:PORT] [--interval S] [--range S] [--once]
//! repro validate-trace <file>
//! repro validate-metrics <addr|file>
//! repro validate-alerts <file>
//! ```
//!
//! Artifact ids: see `accordion_bench::registry::ARTIFACTS` (printed
//! by running with no arguments).
//!
//! Tracing defaults come from the environment (`ACCORDION_TRACE`,
//! `ACCORDION_TRACE_JSON`); the flags override it. `--manifest` writes
//! a provenance document (seeds, parameters, per-artifact wall times,
//! full metric dump) after the run.
//!
//! `--chrome-trace` records the flight recorder during the run and
//! writes a Chrome `trace_event` JSON file (open in `about:tracing`
//! or Perfetto). `profile` additionally renders the terminal
//! dashboard: span self/total tree, hottest artifacts, and the
//! protocol probe's error-outcome breakdown. Both run the protocol
//! probe after the artifacts so every instrumented layer contributes
//! events; the recording is byte-identical at every `--jobs` count.
//! Host-thread tracks are opt-in via `ACCORDION_CHROME_HOST=1`.

use accordion_bench::dash;
use accordion_bench::figures::fig5;
use accordion_bench::profile::{protocol_probe, render_dashboard};
use accordion_bench::registry::{generate, list_text, usage_text, ARTIFACTS};
use accordion_telemetry::chrome::chrome_trace;
use accordion_telemetry::json::{self, Json};
use accordion_telemetry::sink::{self, JsonlSink, Level, StderrSink};
use accordion_telemetry::{event, RunManifest};
use std::io::Write;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Population seed shared by every artifact generator (`SeedStream::
/// new(2014)` throughout the figure modules — the paper's year).
const POPULATION_SEED: u64 = 2014;

struct Cli {
    /// `repro <artifact>` or `repro profile <artifact>`.
    artifact: String,
    /// Render the profile dashboard after the run.
    profile: bool,
    /// `repro validate-trace <file>`: check a Chrome trace and exit.
    validate_trace: Option<String>,
    chips: usize,
    jobs: Option<usize>,
    csv_dir: Option<String>,
    trace: Option<Level>,
    trace_json: Option<String>,
    chrome_trace: Option<String>,
    manifest: Option<String>,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut positional: Vec<String> = Vec::new();
    let mut chips = 5usize;
    let mut jobs = None;
    let mut csv_dir = None;
    let mut trace = None;
    let mut trace_json = None;
    let mut chrome_trace = None;
    let mut manifest = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chips" => {
                chips = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--chips needs a number"));
                // Monte-Carlo artifacts aggregate over the population
                // (`reports[0]`, means over chips); zero chips would
                // panic deep inside an artifact generator instead of
                // failing usefully here.
                if chips == 0 {
                    die("--chips must be at least 1");
                }
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a number"));
                if n == 0 {
                    die("--jobs must be at least 1");
                }
                jobs = Some(n);
            }
            "--csv" => {
                csv_dir = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                );
            }
            "--trace" => {
                let v = it.next().unwrap_or_else(|| die("--trace needs a level"));
                trace = Some(Level::parse(v).unwrap_or_else(|| {
                    die(&format!(
                        "unknown trace level {v:?}; use off, info or debug"
                    ))
                }));
            }
            "--trace-json" => {
                trace_json = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--trace-json needs a file path")),
                );
            }
            "--chrome-trace" => {
                chrome_trace = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--chrome-trace needs a file path")),
                );
            }
            "--manifest" => {
                manifest = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--manifest needs a file path")),
                );
            }
            "--help" | "-h" => {
                // Help goes to stdout and exits 0: it was asked for,
                // it is not an error.
                println!("{}", usage_text());
                std::process::exit(0);
            }
            // Anything else dash-prefixed is a flag we do not know.
            // Accepting it as an artifact name would silently produce
            // the "unknown artifact" path or, worse, swallow a typo of
            // a real flag, so reject it loudly.
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other}");
                usage();
                std::process::exit(2);
            }
            other => positional.push(other.to_string()),
        }
    }

    // Subcommand dispatch on the first positional word.
    let mut profile = false;
    let mut validate_trace = None;
    let mut rest = positional.as_slice();
    match positional.first().map(String::as_str) {
        Some("profile") => {
            profile = true;
            rest = &positional[1..];
        }
        Some("validate-trace") => {
            let path = positional
                .get(1)
                .unwrap_or_else(|| die("validate-trace needs a trace file path"));
            if positional.len() > 2 {
                die(&format!("unexpected argument: {}", positional[2]));
            }
            validate_trace = Some(path.clone());
            rest = &[];
        }
        _ => {}
    }
    if let Some(extra) = rest.get(1) {
        die(&format!("unexpected argument: {extra}"));
    }
    let artifact = match rest.first() {
        Some(a) => a.clone(),
        None if validate_trace.is_some() => String::new(),
        None if profile => die("profile needs an artifact id (or `all`)"),
        None => {
            usage();
            std::process::exit(2);
        }
    };
    Cli {
        artifact,
        profile,
        validate_trace,
        chips,
        jobs,
        csv_dir,
        trace,
        trace_json,
        chrome_trace,
        manifest,
    }
}

fn usage() {
    eprintln!("{}", usage_text());
}

/// Flushes buffered telemetry on every exit path that unwinds —
/// including panics, via the hook installed in `main`. `die()` covers
/// the non-unwinding `process::exit` path.
struct FlushGuard;

impl Drop for FlushGuard {
    fn drop(&mut self) {
        sink::flush();
    }
}

fn main() {
    let _flush = FlushGuard;
    // `process::exit` in `die` and panics both bypass ordinary
    // control flow; make sure buffered JSONL telemetry still lands.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        sink::flush();
        prev_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();

    // `list` and `serve` have their own argument shapes; dispatch
    // before the artifact-flavoured parser sees them.
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                die(&format!("unexpected argument: {}", args[1]));
            }
            print!("{}", list_text());
            return;
        }
        Some("serve") => {
            serve_main(&args[1..]);
            return;
        }
        Some("loadtest") => {
            loadtest_main(&args[1..]);
            return;
        }
        Some("optimize") => {
            optimize_main(&args[1..]);
            return;
        }
        Some("validate-metrics") => {
            let target = args
                .get(1)
                .unwrap_or_else(|| die("validate-metrics needs an ADDR or FILE"));
            if args.len() > 2 {
                die(&format!("unexpected argument: {}", args[2]));
            }
            validate_metrics(target);
            return;
        }
        Some("dash") => {
            dash_main(&args[1..]);
            return;
        }
        Some("validate-alerts") => {
            let path = args
                .get(1)
                .unwrap_or_else(|| die("validate-alerts needs a FILE"));
            if args.len() > 2 {
                die(&format!("unexpected argument: {}", args[2]));
            }
            validate_alerts(path);
            return;
        }
        _ => {}
    }

    let cli = parse_cli(&args);

    if let Some(path) = &cli.validate_trace {
        validate_trace(path);
        return;
    }

    // `--jobs` overrides ACCORDION_JOBS, which overrides auto-detect.
    // `--jobs 1` forces the sequential path (same bytes, one thread).
    if let Some(n) = cli.jobs {
        accordion_pool::set_jobs(Some(n));
    }

    // Flags override the environment defaults; the env path covers
    // instrumented callers that cannot pass flags (tests, harnesses).
    match (cli.trace, &cli.trace_json) {
        (None, None) => sink::init_from_env(),
        (trace, trace_json) => {
            if let Some(level) = trace {
                if level > Level::Off {
                    sink::install(level, Arc::new(StderrSink));
                }
            }
            if let Some(path) = trace_json {
                match JsonlSink::create(Path::new(path)) {
                    Ok(s) => sink::install(Level::Debug, Arc::new(s)),
                    Err(e) => die(&format!("cannot open {path}: {e}")),
                }
            }
        }
    }

    let recording = cli.profile || cli.chrome_trace.is_some();
    if recording {
        // The dashboard's span tree needs wall-clock accounting even
        // when no sink is listening.
        sink::set_timing(true);
        event::enable();
    }

    let mut manifest = cli.manifest.as_ref().map(|_| {
        // Span wall-clock accounting feeds the manifest's metric dump
        // even when no sink is listening.
        sink::set_timing(true);
        let mut m = RunManifest::new("repro");
        m.record_seed("population", POPULATION_SEED);
        m.record_param("chips", Json::Num(cli.chips as f64));
        m.record_param("jobs", Json::Num(accordion_pool::jobs() as f64));
        // The pool's counters read 0 in the metric dump, not absent,
        // when a run does no pool work.
        for name in ["pool.workers_spawned", "pool.tasks", "pool.steals"] {
            accordion_telemetry::registry::global().counter(name);
        }
        m.record_param("artifact", Json::str(&cli.artifact));
        if let Some(dir) = &cli.csv_dir {
            m.record_param("csv_dir", Json::str(dir));
        }
        m
    });

    let ids: Vec<&str> = if cli.artifact == "all" {
        ARTIFACTS.to_vec()
    } else {
        vec![cli.artifact.as_str()]
    };

    for id in ids {
        let started = Instant::now();
        let report = generate(id, cli.chips).unwrap_or_else(|| {
            die(&format!(
                "unknown artifact {id}; known: {}",
                ARTIFACTS.join(" ")
            ))
        });
        if let Some(m) = manifest.as_mut() {
            m.record_artifact(id, started.elapsed(), report.len());
        }
        println!("==== {id} ====");
        println!("{report}");
        if let Some(dir) = &cli.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{id}.txt");
            let mut f = std::fs::File::create(&path).expect("create report file");
            f.write_all(report.as_bytes()).expect("write report");
            if id == "fig5b" {
                std::fs::write(format!("{dir}/fig5b.csv"), fig5::fig5b_csv())
                    .expect("write fig5b csv");
            }
        }
    }

    if recording {
        // The probe drives the event-emitting protocol layers on this
        // thread, under deterministic tracks, so the trace covers
        // every layer regardless of which artifacts ran.
        protocol_probe();
        let log = event::drain();
        event::disable();
        if let Some(path) = &cli.chrome_trace {
            write_chrome_trace(path, &log);
        }
        if cli.profile {
            println!("{}", render_dashboard(&log));
        }
    }

    if let (Some(m), Some(path)) = (&manifest, &cli.manifest) {
        m.write(Path::new(path))
            .unwrap_or_else(|e| die(&format!("cannot write manifest {path}: {e}")));
    }
    sink::flush();
}

/// `repro serve`: runs the HTTP simulation service until `POST
/// /v1/shutdown` arrives or a `quit` line is typed on stdin. Stdin
/// EOF is ignored (a server backgrounded with `</dev/null` must not
/// exit immediately); `kill` also works — the OS reclaims the socket
/// — but only the cooperative paths drain in-flight requests.
fn serve_main(args: &[String]) {
    let mut cfg = accordion_served::ServeConfig::default();
    let mut chrome_trace: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                cfg.addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--addr needs HOST:PORT"));
            }
            "--access-log" => {
                cfg.access_log = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--access-log needs a file path")),
                );
            }
            "--no-log-timing" => {
                // Omits queue_us/latency_us so the access log is
                // byte-identical at any --jobs (see crate::obs docs).
                cfg.log_timing = false;
            }
            "--chrome-trace" => {
                chrome_trace = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--chrome-trace needs a file path")),
                );
            }
            "--jobs" => {
                cfg.request_jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a number >= 1"));
            }
            "--threads" => {
                cfg.handler_threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--threads needs a number >= 1"));
            }
            "--queue" => {
                cfg.queue_capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--queue needs a number >= 1"));
            }
            "--no-keepalive" => {
                // One request per connection: every response carries
                // `Connection: close`, restoring the PR 6 behavior.
                cfg.keep_alive = false;
            }
            "--timeout" => {
                let s: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0.0)
                    .unwrap_or_else(|| die("--timeout needs seconds > 0"));
                cfg.deadline = Duration::from_secs_f64(s);
            }
            "--idle-timeout" => {
                let s: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0.0)
                    .unwrap_or_else(|| die("--idle-timeout needs seconds > 0"));
                cfg.idle_timeout = Duration::from_secs_f64(s);
            }
            "--max-pipeline" => {
                cfg.max_pipeline = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--max-pipeline needs a number >= 1"));
            }
            "--alerts" => {
                cfg.alert_rules = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--alerts needs a rules file path")),
                );
            }
            "--scrape-interval" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms| ms >= 10)
                    .unwrap_or_else(|| die("--scrape-interval needs milliseconds >= 10"));
                cfg.scrape_interval = Duration::from_millis(ms);
            }
            "--no-scrape" => {
                // Disables the self-scrape loop: `/v1/timeseries` and
                // `/v1/alerts` answer empty, zero sampling overhead.
                cfg.self_scrape = false;
            }
            "--debug-endpoints" => {
                // Test hook: enables `POST /v1/debug/sleep` so scripts
                // can inject a deterministic latency spike.
                cfg.debug_endpoints = true;
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => die(&format!("unknown serve argument {other}")),
        }
    }
    sink::init_from_env();
    cfg.artifacts = Some(accordion_served::ArtifactSource {
        ids: ARTIFACTS,
        generate,
    });
    if chrome_trace.is_some() {
        // Record every request's span tree for the whole server
        // lifetime; the trace is written after the listener drains.
        sink::set_timing(true);
        event::enable();
    }
    let handle =
        accordion_served::start(cfg).unwrap_or_else(|e| die(&format!("cannot bind server: {e}")));
    eprintln!(
        "accordion-served listening on http://{} (POST /v1/shutdown or type 'quit' to stop)",
        handle.addr()
    );

    // Cooperative stop from the terminal. EOF (None-equivalent: zero
    // bytes read) is not a stop — only an explicit quit line is.
    let trigger = handle.trigger();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) => return, // EOF: keep serving
                Ok(_) => {
                    let word = line.trim();
                    if word.eq_ignore_ascii_case("quit") || word.eq_ignore_ascii_case("shutdown") {
                        trigger.request();
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    });
    handle.join();
    if let Some(path) = &chrome_trace {
        let log = event::drain();
        event::disable();
        write_chrome_trace(path, &log);
    }
    eprintln!("accordion-served stopped");
}

/// Renders a drained flight recording to `path` as a Chrome
/// `trace_event` JSON (shared by `repro <artifact> --chrome-trace` and
/// `repro serve --chrome-trace`).
fn write_chrome_trace(path: &str, log: &accordion_telemetry::event::FlightLog) {
    let include_host = std::env::var("ACCORDION_CHROME_HOST").as_deref() == Ok("1");
    let rendered = chrome_trace(log, include_host).render();
    let path = Path::new(path);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
    }
    std::fs::write(path, rendered)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    eprintln!(
        "chrome trace: {} ({} events, {} tracks)",
        path.display(),
        log.len(),
        log.track_names.len(),
    );
}

/// `repro loadtest`: drives a server (an external one via `--addr`, or
/// an in-process one on an ephemeral port otherwise) with the seeded
/// request mix and prints the latency report. `--json` additionally
/// writes the machine-readable report `scripts/bench.sh` gates on.
fn loadtest_main(args: &[String]) {
    use accordion_bench::loadtest::{self, Arrival, LoadConfig};
    let mut cfg = LoadConfig::default();
    let mut addr_arg: Option<String> = None;
    let mut mode = "closed".to_string();
    let mut rate = 50.0f64;
    let mut connections = 4usize;
    let mut json_path: Option<String> = None;
    let mut serve_cfg = accordion_served::ServeConfig::default();
    let mut it = args.iter();
    fn num(it: &mut std::slice::Iter<'_, String>, what: &str) -> f64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{what} needs a number")))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr_arg = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--addr needs HOST:PORT")),
                );
            }
            "--mode" => {
                mode = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--mode needs closed|open"));
                if mode != "closed" && mode != "open" {
                    die(&format!("unknown mode {mode:?}; use closed or open"));
                }
            }
            "--rate" => {
                rate = num(&mut it, "--rate");
                if rate <= 0.0 {
                    die("--rate must be positive");
                }
            }
            "--connections" => {
                connections = num(&mut it, "--connections") as usize;
                if connections == 0 {
                    die("--connections must be at least 1");
                }
            }
            "--duration" => {
                cfg.duration = std::time::Duration::from_secs_f64(num(&mut it, "--duration"))
            }
            "--warmup" => cfg.warmup = std::time::Duration::from_secs_f64(num(&mut it, "--warmup")),
            "--seed" => cfg.seed = num(&mut it, "--seed") as u64,
            "--json" => {
                json_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a file path")),
                );
            }
            "--keepalive" => cfg.keepalive = true,
            "--pipeline" => {
                cfg.pipeline = num(&mut it, "--pipeline") as usize;
                if cfg.pipeline == 0 {
                    die("--pipeline must be at least 1");
                }
            }
            "--threads" => serve_cfg.handler_threads = num(&mut it, "--threads") as usize,
            "--jobs" => serve_cfg.request_jobs = num(&mut it, "--jobs") as usize,
            "--queue" => serve_cfg.queue_capacity = num(&mut it, "--queue") as usize,
            // In-process server only: turn the self-scrape loop off so
            // bench.sh can price its overhead against a default run.
            "--no-scrape" => serve_cfg.self_scrape = false,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => die(&format!("unknown loadtest argument {other}")),
        }
    }
    cfg.arrival = match mode.as_str() {
        "open" => Arrival::Open {
            rate,
            senders: connections,
        },
        _ => Arrival::Closed { connections },
    };
    if cfg.warmup >= cfg.duration {
        die("--warmup must be shorter than --duration");
    }
    if cfg.pipeline > 1 && !cfg.keepalive {
        die("--pipeline requires --keepalive (pipelining reuses one connection)");
    }

    // No --addr: measure an in-process server on an ephemeral port so
    // smoke tests need no free well-known port and no second process.
    let (addr, handle) = match &addr_arg {
        Some(spec) => {
            let addr = spec
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .unwrap_or_else(|| die(&format!("cannot resolve {spec}")));
            (addr, None)
        }
        None => {
            serve_cfg.addr = "127.0.0.1:0".into();
            serve_cfg.artifacts = Some(accordion_served::ArtifactSource {
                ids: ARTIFACTS,
                generate,
            });
            let handle = accordion_served::start(serve_cfg)
                .unwrap_or_else(|e| die(&format!("cannot bind loadtest server: {e}")));
            eprintln!("loadtest: in-process server on http://{}", handle.addr());
            (handle.addr(), Some(handle))
        }
    };

    let report = loadtest::run(addr, &cfg);
    if let Some(handle) = handle {
        handle.shutdown();
    }

    print!("{}", report.render_text());
    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json().render_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("loadtest report: {path}");
    }
    if report.requests == 0 {
        die("no requests completed inside the measured window");
    }
}

/// `repro optimize`: searches the `(Vdd, clusters, size, guardband)`
/// knob space with the seeded NSGA-II loop in `accordion-opt` and
/// prints the JSON report (front, champions, iso-metric curves,
/// provenance) on stdout — or to `--json FILE`. A one-line evals/s
/// summary goes to stderr; `scripts/bench.sh` parses it for the
/// `opt_evals_per_s` gate. The report is byte-identical at any
/// `--jobs` setting (the optimizer's determinism contract).
fn optimize_main(args: &[String]) {
    use accordion_chip::topology::Topology;
    use accordion_opt::{Constraints, KnobSpace, OptConfig, OptimizeRequest};
    let mut app = "canneal".to_string();
    let mut topo = Topology::paper_default();
    let mut seed = POPULATION_SEED;
    let mut pop_seed = POPULATION_SEED;
    let mut chips = 5usize;
    let mut chip = 0usize;
    let mut population = 24usize;
    let mut generations = 8usize;
    let mut scout_steps = 3u32;
    let mut quality_floor: Option<f64> = None;
    let mut power_budget_w: Option<f64> = None;
    let mut time_budget_s: Option<f64> = None;
    let mut grid_check: Option<u32> = None;
    let mut iso = true;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    fn num(it: &mut std::slice::Iter<'_, String>, what: &str) -> f64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{what} needs a number")))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => {
                app = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--app needs a benchmark name"));
            }
            "--topo" => {
                topo = match it.next().map(String::as_str) {
                    Some("default") => Topology::paper_default(),
                    Some("small") => Topology::small(),
                    other => die(&format!("--topo needs default or small, got {other:?}")),
                };
            }
            "--seed" => seed = num(&mut it, "--seed") as u64,
            "--pop-seed" => pop_seed = num(&mut it, "--pop-seed") as u64,
            "--chips" => {
                chips = num(&mut it, "--chips") as usize;
                if chips == 0 {
                    die("--chips must be at least 1");
                }
            }
            "--chip" => chip = num(&mut it, "--chip") as usize,
            "--population" => {
                population = num(&mut it, "--population") as usize;
                if population < 4 {
                    die("--population must be at least 4");
                }
            }
            "--generations" => {
                generations = num(&mut it, "--generations") as usize;
                if generations == 0 {
                    die("--generations must be at least 1");
                }
            }
            "--scout-steps" => {
                scout_steps = num(&mut it, "--scout-steps") as u32;
                if !(2..=6).contains(&scout_steps) {
                    die("--scout-steps must be in [2, 6]");
                }
            }
            "--quality-floor" => {
                let q = num(&mut it, "--quality-floor");
                if !(0.0..=1.0).contains(&q) {
                    die("--quality-floor must be in [0, 1]");
                }
                quality_floor = Some(q);
            }
            "--power-budget" => {
                let w = num(&mut it, "--power-budget");
                if w <= 0.0 {
                    die("--power-budget must be positive (watts)");
                }
                power_budget_w = Some(w);
            }
            "--time-budget" => {
                let t = num(&mut it, "--time-budget");
                if t <= 0.0 {
                    die("--time-budget must be positive (seconds)");
                }
                time_budget_s = Some(t);
            }
            "--grid-check" => {
                let steps = num(&mut it, "--grid-check") as u32;
                if !(2..=6).contains(&steps) {
                    die("--grid-check steps must be in [2, 6]");
                }
                grid_check = Some(steps);
            }
            "--no-iso" => iso = false,
            "--json" => {
                json_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a file path")),
                );
            }
            "--jobs" => {
                let n = num(&mut it, "--jobs") as usize;
                if n == 0 {
                    die("--jobs must be at least 1");
                }
                accordion_pool::set_jobs(Some(n));
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => die(&format!("unknown optimize argument {other}")),
        }
    }
    if chip >= chips {
        die(&format!("--chip {chip} outside population of {chips}"));
    }
    sink::init_from_env();
    let req = OptimizeRequest {
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
            // The ceiling only has to exceed the chip's cluster count;
            // `optimize_report` clamps it to the actual topology.
            space: KnobSpace::full(64),
            constraints: Constraints {
                quality_floor,
                power_budget_w,
                time_budget_s,
            },
        },
        iso,
        grid_check,
    };
    let started = Instant::now();
    let doc =
        accordion_opt::optimize_report(&req, accordion_pool::jobs()).unwrap_or_else(|e| die(&e));
    let wall_s = started.elapsed().as_secs_f64();
    let search_stat = |key: &str| {
        doc.get("search")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let evals = search_stat("evals");
    let hits = search_stat("cache_hits");
    let rendered = doc.render_pretty();
    match &json_path {
        Some(path) => {
            std::fs::write(path, &rendered)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("optimize report: {path}");
        }
        None => print!("{rendered}"),
    }
    // The stderr summary is the bench gate's input: evals/s measures
    // search throughput including every cache layer.
    eprintln!(
        "optimize: {} evals ({} cache hits) in {:.3} s ({:.1} evals/s)",
        evals as u64,
        hits as u64,
        wall_s,
        evals / wall_s.max(1e-9),
    );
    sink::flush();
}

/// `repro validate-metrics <addr|file>`: lints a Prometheus exposition
/// document — fetched live from `http://ADDR/metrics` when the target
/// looks like an address, read from disk otherwise. Exits nonzero on
/// any conformance violation so scripts can gate on it.
fn validate_metrics(target: &str) {
    let spec = target.strip_prefix("http://").unwrap_or(target);
    let looks_like_addr = !spec.contains('/') && spec.contains(':');
    let (source, text) = if looks_like_addr {
        let addr = spec
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .unwrap_or_else(|| die(&format!("cannot resolve {spec}")));
        let text = match dash::fetch(addr, "/metrics") {
            Ok((200, body)) => body,
            Ok((status, _)) => die(&format!("{addr}: /metrics answered {status}")),
            Err(e) => die(&e),
        };
        (format!("http://{spec}/metrics"), text)
    } else {
        (
            target.to_string(),
            std::fs::read_to_string(target)
                .unwrap_or_else(|e| die(&format!("cannot read {target}: {e}"))),
        )
    };
    match accordion_telemetry::prom::lint(&text) {
        Ok(report) => println!(
            "{source}: ok ({} families, {} samples)",
            report.families, report.samples
        ),
        Err(errors) => {
            for e in &errors {
                eprintln!("{source}: {e}");
            }
            die(&format!("{} exposition-format violations", errors.len()));
        }
    }
}

/// `repro dash`: terminal dashboard over a serving instance's ops
/// plane (`/v1/timeseries` + `/v1/alerts`). `--once` prints a single
/// frame and exits, for scripts and smoke tests.
fn dash_main(args: &[String]) {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut interval = Duration::from_secs(1);
    let mut range = "300".to_string();
    let mut once = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--addr needs HOST:PORT"));
            }
            "--interval" => {
                let s: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 0.1)
                    .unwrap_or_else(|| die("--interval needs seconds >= 0.1"));
                interval = Duration::from_secs_f64(s);
            }
            // Passed through verbatim: `/v1/timeseries` owns range
            // validation, so a value it rejects surfaces the server's
            // own error message instead of a client-side parse failure.
            "--range" => {
                range = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--range needs a value (seconds)"));
            }
            "--once" => once = true,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => die(&format!("unknown dash argument {other}")),
        }
    }
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr}")));
    let cfg = dash::DashConfig {
        addr: sock,
        interval,
        range,
        once,
    };
    if let Err(e) = dash::run(&cfg) {
        die(&e);
    }
}

/// `repro validate-alerts <file>`: parses an alert-rules file with
/// exactly the parser `repro serve --alerts` uses and reports every
/// violation. Exits nonzero on any error so scripts can lint configs
/// before deploying them.
fn validate_alerts(path: &str) {
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match accordion_telemetry::alerts::parse_rules(&raw) {
        Ok(rules) => {
            println!("{path}: ok ({} rules)", rules.len());
            for r in &rules {
                println!("  {}", r.name);
            }
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("{path}: {e}");
            }
            die(&format!("{} alert-rule violations", errors.len()));
        }
    }
}

/// `repro validate-trace <file>`: parses a Chrome trace written by
/// `--chrome-trace` and checks its structural invariants. Exits
/// nonzero on any violation so scripts can gate on it.
fn validate_trace(path: &str) {
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let doc = json::parse(&raw).unwrap_or_else(|e| die(&format!("{path}: invalid JSON: {e}")));
    let schema = doc
        .get("otherData")
        .and_then(|o| o.get("schema"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| die(&format!("{path}: missing otherData.schema")));
    if schema != "accordion.flight/1" {
        die(&format!("{path}: unexpected schema {schema:?}"));
    }
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => die(&format!("{path}: traceEvents is not an array")),
    };
    let declared = doc
        .get("otherData")
        .and_then(|o| o.get("events"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| die(&format!("{path}: missing otherData.events")));
    let sim_events = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) != Some("M")
                && e.get("pid").and_then(Json::as_f64) != Some(0.0)
        })
        .count();
    if sim_events != declared as usize {
        die(&format!(
            "{path}: otherData.events={declared} but {sim_events} sim events present"
        ));
    }
    println!(
        "{path}: ok ({} trace events, {} sim events, {} tracks)",
        events.len(),
        sim_events,
        doc.get("otherData")
            .and_then(|o| o.get("tracks"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    sink::flush();
    std::process::exit(2);
}
