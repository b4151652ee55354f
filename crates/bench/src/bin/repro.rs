//! `repro` — regenerates every table and figure of the Accordion
//! paper's evaluation, plus the extension experiments, and fronts the
//! simulation service, its load harness, the optimizer and the ops
//! tools. `repro --help` lists every subcommand with its flags, rendered
//! from the tables in `accordion_bench::cli`, which also parses them.
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

use accordion_bench::cli::{self, Args};
use accordion_bench::dash;
use accordion_bench::figures::fig5;
use accordion_bench::loadtest::{self, Arrival};
use accordion_bench::profile::{protocol_probe, render_dashboard};
use accordion_bench::registry::{generate, list_text, usage_text, ARTIFACTS};
use accordion_served::ArtifactSource;
use accordion_telemetry::chrome::chrome_trace;
use accordion_telemetry::json::{self, Json};
use accordion_telemetry::sink::{self, JsonlSink, Level, StderrSink};
use accordion_telemetry::{event, RunManifest};
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Population seed shared by every artifact generator (`SeedStream::
/// new(2014)` throughout the figure modules — the paper's year).
const POPULATION_SEED: u64 = 2014;

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

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", usage_text());
        std::process::exit(2);
    }
    let (cmd, args) = match cli::parse(&argv) {
        Ok(Some(parsed)) => parsed,
        // Help goes to stdout and exits 0: it was asked for, it is not
        // an error.
        Ok(None) => {
            println!("{}", usage_text());
            return;
        }
        Err(e) => die(&e),
    };
    match cmd.name {
        "" => run_artifacts(&args, false),
        "profile" => run_artifacts(&args, true),
        "list" => print!("{}", list_text()),
        "serve" => serve_main(args),
        "loadtest" => loadtest_main(args),
        "optimize" => optimize_main(&args),
        "dash" => dash_main(args),
        "validate-trace" => validate_trace(&args.operand),
        "validate-metrics" => validate_metrics(&args.operand),
        "validate-alerts" => validate_alerts(&args.operand),
        other => unreachable!("`repro {other}` has no runner"),
    }
}

/// `repro <artifact|all>` and `repro profile <artifact|all>`: prints
/// each report; `profile` renders the dashboard after the run.
fn run_artifacts(cli: &Args, profile: bool) {
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

    let recording = profile || cli.chrome_trace.is_some();
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
        m.record_param("artifact", Json::str(&cli.operand));
        if let Some(dir) = &cli.csv {
            m.record_param("csv_dir", Json::str(dir));
        }
        m
    });

    let ids: Vec<&str> = if cli.operand == "all" {
        ARTIFACTS.to_vec()
    } else {
        vec![cli.operand.as_str()]
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
        if let Some(dir) = &cli.csv {
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
        if profile {
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
fn serve_main(args: Args) {
    let mut cfg = args.serve;
    if let Some(addr) = args.addr {
        cfg.addr = addr;
    }
    sink::init_from_env();
    cfg.artifacts = Some(ArtifactSource {
        ids: ARTIFACTS,
        generate,
    });
    if args.chrome_trace.is_some() {
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
    if let Some(path) = &args.chrome_trace {
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
fn loadtest_main(args: Args) {
    let mut cfg = args.load;
    cfg.arrival = if args.open {
        Arrival::Open {
            rate: args.rate,
            senders: args.connections,
        }
    } else {
        Arrival::Closed {
            connections: args.connections,
        }
    };
    if cfg.warmup >= cfg.duration {
        die("--warmup must be shorter than --duration");
    }
    if cfg.pipeline > 1 && !cfg.keepalive {
        die("--pipeline requires --keepalive (pipelining reuses one connection)");
    }

    // No --addr: measure an in-process server on an ephemeral port so
    // smoke tests need no free well-known port and no second process.
    let (addr, handle) = match &args.addr {
        Some(spec) => (resolve(spec), None),
        None => {
            let mut serve_cfg = args.serve;
            serve_cfg.addr = "127.0.0.1:0".into();
            serve_cfg.artifacts = Some(ArtifactSource {
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
    if let Some(path) = &args.json {
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
/// provenance) on stdout — or to `--json FILE`. The flags fill a
/// `/v1/optimize` request body (`accordion_bench::cli`). A one-line
/// evals/s summary goes to stderr; `scripts/bench.sh` parses it for
/// the `opt_evals_per_s` gate. The report is byte-identical at any
/// `--jobs` setting (the optimizer's determinism contract).
fn optimize_main(args: &Args) {
    // The route's validator: the CLI accepts and rejects exactly the
    // requests `POST /v1/optimize` does, with the same messages.
    let req = accordion_served::engine::optimize_request_from_json(&args.request)
        .unwrap_or_else(|e| die(&e));
    if let Some(n) = args.jobs {
        accordion_pool::set_jobs(Some(n));
    }
    sink::init_from_env();
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
    match &args.json {
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
        let addr = resolve(spec);
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
fn dash_main(args: Args) {
    let cfg = dash::DashConfig {
        addr: resolve(args.addr.as_deref().unwrap_or(&args.serve.addr)),
        interval: args.interval,
        range: args.range,
        once: args.once,
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

/// Resolves `HOST:PORT` to its first socket address.
fn resolve(spec: &str) -> SocketAddr {
    spec.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {spec}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    sink::flush();
    std::process::exit(2);
}
