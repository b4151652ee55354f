//! The `repro` command line. Each subcommand declares its flags once,
//! as a table of [`Flag`]s in [`COMMANDS`]; [`parse`] reads every table
//! the same way, and `repro --help` and `repro list` render from the
//! same tables ([`crate::registry::usage_text`]), so the usage text
//! cannot leave out a flag the parser accepts.
//!
//! Values are checked where they are parsed: a number must be finite
//! and inside its range, and the flags that start one OS thread per
//! unit (`--connections`, `--threads`, `--jobs`) stop at 1024.
//! `repro optimize`'s flags only fill a `/v1/optimize` request body;
//! the route's own validator,
//! [`accordion_served::engine::optimize_request_from_json`], accepts
//! or rejects it, so the CLI and the route agree on every request.

use crate::loadtest::LoadConfig;
use accordion_served::ServeConfig;
use accordion_telemetry::json::Json;
use accordion_telemetry::sink::Level;
use std::time::Duration;

/// Cap on the flags that start one OS thread per unit.
const MAX_THREADS: usize = 1024;
/// Cap on an artifact run's `--chips`, as on `GET /v1/artifacts/{id}`.
const MAX_CHIPS: usize = 100;
/// Cap on every duration flag: one day.
const MAX_SECONDS: f64 = 86_400.0;

/// Parses a flag's value into [`Args`]; a switch gets an empty value.
type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// One flag of a subcommand.
pub struct Flag {
    /// Spelling, e.g. `--chips`.
    pub name: &'static str,
    /// Value placeholder for the usage line, e.g. `N`; empty for a
    /// switch, which takes no value.
    pub value: &'static str,
    set: Setter,
}

const fn flag(name: &'static str, value: &'static str, set: Setter) -> Flag {
    Flag { name, value, set }
}

/// A `repro` subcommand.
pub struct Command {
    /// The first word that selects it; empty for an artifact run,
    /// which any other first word selects.
    pub name: &'static str,
    /// Its positional operand, e.g. `<FILE>`; empty when it takes none.
    pub operand: &'static str,
    /// Every flag it accepts.
    pub flags: &'static [Flag],
    /// One-line description.
    pub help: &'static str,
}

impl Command {
    /// `repro`, then the subcommand's name.
    fn title(&self) -> String {
        match self.name {
            "" => "repro".to_string(),
            name => format!("repro {name}"),
        }
    }

    /// The usage line, rendered from the flag table.
    pub fn usage(&self) -> String {
        let mut line = self.title();
        if !self.operand.is_empty() {
            line.push_str(&format!(" {}", self.operand));
        }
        for f in self.flags {
            match f.value {
                "" => line.push_str(&format!(" [{}]", f.name)),
                value => line.push_str(&format!(" [{} {value}]", f.name)),
            }
        }
        line
    }
}

/// Everything a `repro` command line sets. A subcommand reads the
/// fields its own table sets; the rest keep their defaults.
pub struct Args {
    /// The positional operand: an artifact id (or `all`), or a file.
    pub operand: String,
    /// Artifact runs: Monte-Carlo population size.
    pub chips: usize,
    /// Artifact runs and `optimize`: pool workers (`--jobs`).
    pub jobs: Option<usize>,
    /// Artifact runs: directory for one report file per artifact.
    pub csv: Option<String>,
    /// Artifact runs: stderr span-tracing level.
    pub trace: Option<Level>,
    /// Artifact runs: JSONL span-sink file.
    pub trace_json: Option<String>,
    /// Artifact runs and `serve`: Chrome trace output file.
    pub chrome_trace: Option<String>,
    /// Artifact runs: run-manifest output file.
    pub manifest: Option<String>,
    /// `serve`: the bind address; `loadtest`: the server to drive (an
    /// in-process one when absent); `dash`: the server to poll.
    pub addr: Option<String>,
    /// `serve`, and `loadtest`'s in-process server.
    pub serve: ServeConfig,
    /// `loadtest`: everything but the arrival model, which
    /// [`Self::open`], [`Self::rate`] and [`Self::connections`] give.
    pub load: LoadConfig,
    /// `loadtest`: open-loop arrivals instead of closed-loop.
    pub open: bool,
    /// `loadtest`: open-loop offered load, requests per second.
    pub rate: f64,
    /// `loadtest`: client threads.
    pub connections: usize,
    /// `loadtest` and `optimize`: JSON report output file.
    pub json: Option<String>,
    /// `optimize`: the `/v1/optimize` request body its flags fill in.
    pub request: Json,
    /// `dash`: time between frames.
    pub interval: Duration,
    /// `dash`: history window, passed to `/v1/timeseries` verbatim.
    pub range: String,
    /// `dash`: print one frame and exit.
    pub once: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            operand: String::new(),
            chips: 5,
            jobs: None,
            csv: None,
            trace: None,
            trace_json: None,
            chrome_trace: None,
            manifest: None,
            addr: None,
            serve: ServeConfig::default(),
            load: LoadConfig::default(),
            open: false,
            rate: 50.0,
            connections: 4,
            json: None,
            // The CLI's defaults where they differ from the route's.
            request: Json::obj(vec![
                ("app", Json::str("canneal")),
                ("seed", Json::Num(2014.0)),
                ("chips", Json::Num(5.0)),
                ("iso", Json::Bool(true)),
            ]),
            interval: Duration::from_secs(1),
            range: "300".to_string(),
            once: false,
        }
    }
}

impl Args {
    /// Sets one field of the optimize request body.
    fn field(&mut self, key: &str, value: Json) -> Result<(), String> {
        if let Json::Obj(pairs) = &mut self.request {
            pairs.retain(|(k, _)| k != key);
            pairs.push((key.to_string(), value));
        }
        Ok(())
    }
}

/// Stores a parsed value: the body of most setters.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// An integer in `[lo, hi]`.
fn int(v: &str, lo: u64, hi: u64) -> Result<u64, String> {
    v.parse()
        .ok()
        .filter(|n| (lo..=hi).contains(n))
        .ok_or_else(|| format!("needs an integer in [{lo}, {hi}], got {v:?}"))
}

/// A count in `[lo, hi]`.
fn count(v: &str, lo: usize, hi: usize) -> Result<usize, String> {
    int(v, lo as u64, hi as u64).map(|n| n as usize)
}

/// A finite number in `[lo, hi]`.
fn number(v: &str, lo: f64, hi: f64) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|x| (lo..=hi).contains(x))
        .ok_or_else(|| format!("needs a number in [{lo}, {hi}], got {v:?}"))
}

/// A duration of at least `lo` seconds and at most a day.
fn seconds(v: &str, lo: f64) -> Result<Duration, String> {
    number(v, lo, MAX_SECONDS).map(Duration::from_secs_f64)
}

/// A number for an optimize request field. JSON holds only finite
/// numbers; the route's validator checks everything else.
fn finite(v: &str) -> Result<Json, String> {
    v.parse()
        .ok()
        .filter(|x: &f64| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("needs a finite number, got {v:?}"))
}

fn level(v: &str) -> Result<Option<Level>, String> {
    Level::parse(v)
        .map(Some)
        .ok_or_else(|| format!("needs off, info or debug, got {v:?}"))
}

fn open_loop(v: &str) -> Result<bool, String> {
    match v {
        "closed" => Ok(false),
        "open" => Ok(true),
        _ => Err(format!("needs closed or open, got {v:?}")),
    }
}

// The flag tables are formatted by hand, one flag per line.

// Entries that more than one table holds.
#[rustfmt::skip]
const JOBS: Flag = flag("--jobs", "N", |a, v| put(&mut a.jobs, Some(count(v, 1, MAX_THREADS)?)));
#[rustfmt::skip]
const CHROME_TRACE: Flag =
    flag("--chrome-trace", "FILE", |a, v| put(&mut a.chrome_trace, Some(v.into())));
#[rustfmt::skip]
const ADDR: Flag = flag("--addr", "HOST:PORT", |a, v| put(&mut a.addr, Some(v.into())));
const JSON: Flag = flag("--json", "FILE", |a, v| put(&mut a.json, Some(v.into())));
// `serve`'s pool and scrape flags, which `loadtest` hands its
// in-process server.
#[rustfmt::skip]
const SERVE_JOBS: Flag =
    flag("--jobs", "N", |a, v| put(&mut a.serve.request_jobs, count(v, 1, MAX_THREADS)?));
#[rustfmt::skip]
const THREADS: Flag =
    flag("--threads", "N", |a, v| put(&mut a.serve.handler_threads, count(v, 1, MAX_THREADS)?));
#[rustfmt::skip]
const QUEUE: Flag =
    flag("--queue", "N", |a, v| put(&mut a.serve.queue_capacity, count(v, 1, 1 << 16)?));
#[rustfmt::skip]
const NO_SCRAPE: Flag = flag("--no-scrape", "", |a, _| put(&mut a.serve.self_scrape, false));

#[rustfmt::skip]
const ARTIFACT_FLAGS: &[Flag] = &[
    flag("--chips", "N", |a, v| put(&mut a.chips, count(v, 1, MAX_CHIPS)?)),
    JOBS,
    flag("--csv", "DIR", |a, v| put(&mut a.csv, Some(v.into()))),
    flag("--trace", "LEVEL", |a, v| put(&mut a.trace, level(v)?)),
    flag("--trace-json", "FILE", |a, v| put(&mut a.trace_json, Some(v.into()))),
    CHROME_TRACE,
    flag("--manifest", "FILE", |a, v| put(&mut a.manifest, Some(v.into()))),
];

#[rustfmt::skip]
const SERVE_FLAGS: &[Flag] = &[
    ADDR,
    SERVE_JOBS,
    THREADS,
    QUEUE,
    flag("--access-log", "FILE", |a, v| put(&mut a.serve.access_log, Some(v.into()))),
    // Omits queue_us/latency_us so the access log is byte-identical
    // at any --jobs (see accordion_served::obs).
    flag("--no-log-timing", "", |a, _| put(&mut a.serve.log_timing, false)),
    CHROME_TRACE,
    flag("--timeout", "S", |a, v| put(&mut a.serve.deadline, seconds(v, 0.001)?)),
    flag("--idle-timeout", "S", |a, v| put(&mut a.serve.idle_timeout, seconds(v, 0.001)?)),
    flag("--alerts", "FILE", |a, v| put(&mut a.serve.alert_rules, Some(v.into()))),
    flag("--scrape-interval", "MS", |a, v| {
        put(&mut a.serve.scrape_interval, Duration::from_millis(int(v, 10, 3_600_000)?))
    }),
    NO_SCRAPE,
    // Test hook: `POST /v1/debug/sleep` injects a latency spike.
    flag("--debug-endpoints", "", |a, _| put(&mut a.serve.debug_endpoints, true)),
];

#[rustfmt::skip]
const LOADTEST_FLAGS: &[Flag] = &[
    ADDR,
    flag("--mode", "closed|open", |a, v| put(&mut a.open, open_loop(v)?)),
    flag("--rate", "R", |a, v| put(&mut a.rate, number(v, 0.001, 1e6)?)),
    flag("--connections", "N", |a, v| put(&mut a.connections, count(v, 1, MAX_THREADS)?)),
    flag("--duration", "S", |a, v| put(&mut a.load.duration, seconds(v, 0.001)?)),
    flag("--warmup", "S", |a, v| put(&mut a.load.warmup, seconds(v, 0.0)?)),
    flag("--seed", "N", |a, v| put(&mut a.load.seed, int(v, 0, u64::MAX)?)),
    JSON,
    flag("--keepalive", "", |a, _| put(&mut a.load.keepalive, true)),
    flag("--pipeline", "N", |a, v| put(&mut a.load.pipeline, count(v, 1, 1024)?)),
    THREADS,
    SERVE_JOBS,
    QUEUE,
    NO_SCRAPE,
];

#[rustfmt::skip]
const OPTIMIZE_FLAGS: &[Flag] = &[
    flag("--app", "NAME", |a, v| a.field("app", Json::str(v))),
    flag("--topo", "default|small", |a, v| a.field("topo", Json::str(v))),
    flag("--seed", "N", |a, v| a.field("seed", finite(v)?)),
    flag("--pop-seed", "N", |a, v| a.field("pop_seed", finite(v)?)),
    flag("--chips", "N", |a, v| a.field("chips", finite(v)?)),
    flag("--chip", "N", |a, v| a.field("chip", finite(v)?)),
    flag("--population", "N", |a, v| a.field("population", finite(v)?)),
    flag("--generations", "N", |a, v| a.field("generations", finite(v)?)),
    flag("--scout-steps", "N", |a, v| a.field("scout_steps", finite(v)?)),
    flag("--quality-floor", "Q", |a, v| a.field("quality_floor", finite(v)?)),
    flag("--power-budget", "W", |a, v| a.field("power_budget_w", finite(v)?)),
    flag("--time-budget", "S", |a, v| a.field("time_budget_s", finite(v)?)),
    flag("--grid-check", "STEPS", |a, v| a.field("grid_check", finite(v)?)),
    flag("--no-iso", "", |a, _| a.field("iso", Json::Bool(false))),
    JSON,
    JOBS,
];

#[rustfmt::skip]
const DASH_FLAGS: &[Flag] = &[
    ADDR,
    flag("--interval", "S", |a, v| put(&mut a.interval, seconds(v, 0.1)?)),
    flag("--range", "S", |a, v| put(&mut a.range, v.into())),
    flag("--once", "", |a, _| put(&mut a.once, true)),
];

/// Every `repro` subcommand, in `repro --help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "",
        operand: "<artifact|all>",
        flags: ARTIFACT_FLAGS,
        help: "regenerate one artifact (or every one) on stdout",
    },
    Command {
        name: "list",
        operand: "",
        flags: &[],
        help: "enumerate artifacts and subcommands, one per line",
    },
    Command {
        name: "serve",
        operand: "",
        flags: SERVE_FLAGS,
        help: "run the batched, cached HTTP simulation service",
    },
    Command {
        name: "loadtest",
        operand: "",
        flags: LOADTEST_FLAGS,
        help: "measure serving latency/throughput with a seeded request mix",
    },
    Command {
        name: "optimize",
        operand: "",
        flags: OPTIMIZE_FLAGS,
        help: "search the knob space: iso-metric fronts + a seeded NSGA-II Pareto front",
    },
    Command {
        name: "profile",
        operand: "<artifact|all>",
        flags: ARTIFACT_FLAGS,
        help: "run with the flight recorder on and render the dashboard",
    },
    Command {
        name: "validate-trace",
        operand: "<FILE>",
        flags: &[],
        help: "check the structural invariants of a Chrome trace",
    },
    Command {
        name: "validate-metrics",
        operand: "<ADDR|FILE>",
        flags: &[],
        help: "lint a /metrics document against the Prometheus text format",
    },
    Command {
        name: "dash",
        operand: "",
        flags: DASH_FLAGS,
        help: "live terminal dashboard over a server's /v1/timeseries and /v1/alerts",
    },
    Command {
        name: "validate-alerts",
        operand: "<FILE>",
        flags: &[],
        help: "lint an alert-rules file with the server's own parser",
    },
];

/// Parses a command line, program name excluded: the subcommand its
/// first word names (an artifact run for any other word), then that
/// subcommand's flags and operand in any order. `Ok(None)` asks for
/// the usage text (`--help` or `-h`).
///
/// # Errors
///
/// A one-line message for an unknown flag, a missing or bad value, or
/// a missing or extra operand.
pub fn parse(argv: &[String]) -> Result<Option<(&'static Command, Args)>, String> {
    let named = COMMANDS
        .iter()
        .find(|c| !c.name.is_empty() && argv.first().is_some_and(|w| w == c.name));
    let (cmd, words) = match named {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&COMMANDS[0], argv),
    };
    let mut args = Args::default();
    let mut operand = None;
    let mut words = words.iter();
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            return Ok(None);
        }
        if !word.starts_with('-') {
            if cmd.operand.is_empty() || operand.is_some() {
                return Err(format!("unexpected argument: {word}"));
            }
            operand = Some(word.clone());
            continue;
        }
        let flag = cmd.flags.iter().find(|f| f.name == word).ok_or_else(|| {
            format!(
                "unknown flag {word} for `{}`; see repro --help",
                cmd.title()
            )
        })?;
        let value = match flag.value {
            "" => "",
            placeholder => words
                .next()
                .ok_or_else(|| format!("{word} needs {placeholder}"))?,
        };
        (flag.set)(&mut args, value).map_err(|e| format!("{word} {e}"))?;
    }
    match operand {
        Some(operand) => args.operand = operand,
        None if cmd.operand.is_empty() => {}
        None => return Err(format!("`{}` needs {}", cmd.title(), cmd.operand)),
    }
    Ok(Some((cmd, args)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<Option<(&'static Command, Args)>, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&argv)
    }

    #[test]
    fn flags_and_operand_come_in_any_order() {
        let (cmd, args) = parse_words("--chrome-trace t.json headline --chips 4")
            .unwrap()
            .unwrap();
        assert_eq!(cmd.name, "");
        assert_eq!(args.operand, "headline");
        assert_eq!(args.chips, 4);
        assert_eq!(args.chrome_trace.as_deref(), Some("t.json"));
        let (cmd, args) = parse_words("profile all --jobs 2").unwrap().unwrap();
        assert_eq!((cmd.name, args.operand.as_str()), ("profile", "all"));
        assert_eq!(args.jobs, Some(2));
    }

    #[test]
    fn loadtest_sets_its_in_process_server_through_serves_entries() {
        let (_, args) = parse_words("loadtest --threads 3 --jobs 2 --queue 9 --no-scrape")
            .unwrap()
            .unwrap();
        assert_eq!(args.serve.handler_threads, 3);
        assert_eq!(args.serve.request_jobs, 2);
        assert_eq!(args.serve.queue_capacity, 9);
        assert!(!args.serve.self_scrape);
    }

    #[test]
    fn optimize_flags_fill_the_request_body() {
        let (_, args) = parse_words("optimize --app hotspot --chips 3 --no-iso --jobs 2")
            .unwrap()
            .unwrap();
        assert_eq!(
            args.request.render(),
            r#"{"seed":2014,"app":"hotspot","chips":3,"iso":false}"#
        );
        assert_eq!(args.jobs, Some(2));
    }

    #[test]
    fn bad_input_is_one_message() {
        for (line, msg) in [
            (
                "serve --threads 0",
                "--threads needs an integer in [1, 1024], got \"0\"",
            ),
            (
                "loadtest --warmup nan",
                "--warmup needs a number in [0, 86400], got \"nan\"",
            ),
            (
                "optimize --seed inf",
                "--seed needs a finite number, got \"inf\"",
            ),
            ("dash --interval", "--interval needs S"),
            (
                "dash --bogus",
                "unknown flag --bogus for `repro dash`; see repro --help",
            ),
            ("list extra", "unexpected argument: extra"),
            ("profile --chips 2", "`repro profile` needs <artifact|all>"),
        ] {
            assert_eq!(parse_words(line).err().as_deref(), Some(msg), "{line}");
        }
        assert!(parse_words("serve --help").unwrap().is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]
        #[test]
        fn random_flag_lists_parse_into_range_or_fail(
            pick in 0usize..1000,
            flags in proptest::collection::vec(0usize..1_000_000, 0..6),
        ) {
            const VALUES: [&str; 15] = [
                "0", "1", "2", "-1", "1.5", "101", "1025", "86401", "1e30", "nan", "inf",
                "open", "closed", "debug", "x",
            ];
            let cmd = &COMMANDS[pick % COMMANDS.len()];
            let mut argv: Vec<String> = [cmd.name, cmd.operand]
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| w.to_string())
                .collect();
            for k in flags.iter().filter(|_| !cmd.flags.is_empty()) {
                let flag = &cmd.flags[k % cmd.flags.len()];
                argv.push(flag.name.to_string());
                if !flag.value.is_empty() {
                    argv.push(VALUES[k / 1000 % VALUES.len()].to_string());
                }
            }
            match parse(&argv) {
                Ok(Some((_, args))) => {
                    // Whatever is accepted is inside its range.
                    let threads = [
                        args.connections,
                        args.serve.handler_threads,
                        args.serve.request_jobs,
                        args.jobs.unwrap_or(1),
                    ];
                    proptest::prop_assert!(threads.iter().all(|n| (1..=MAX_THREADS).contains(n)));
                    proptest::prop_assert!((1..=MAX_CHIPS).contains(&args.chips));
                    proptest::prop_assert!(args.load.duration.as_secs_f64() <= MAX_SECONDS);
                    proptest::prop_assert!(args.rate.is_finite() && args.rate > 0.0);
                }
                Ok(None) => proptest::prop_assert!(false, "no --help in {argv:?}"),
                Err(msg) => proptest::prop_assert!(!msg.is_empty()),
            }
        }
    }

    #[test]
    fn names_are_unique_within_each_table() {
        for cmd in COMMANDS {
            let mut names: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), cmd.flags.len(), "{}", cmd.title());
        }
    }
}
