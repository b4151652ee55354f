//! Pluggable span sinks: a human-readable stderr tracer and a JSONL
//! file sink, both behind one cheap global "is anything listening"
//! check so instrumentation is safe in hot loops. The sinks carry span
//! boundaries only; structured events go to the flight recorder
//! ([`crate::event`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::json::Json;

/// Verbosity of the tracing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No tracing output.
    Off = 0,
    /// Span completions.
    Info = 1,
    /// Additionally span entries (nesting becomes visible).
    Debug = 2,
}

impl Level {
    /// Parses `off` / `info` / `debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(Level::Off),
            "info" | "1" => Some(Level::Info),
            "debug" | "2" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered.
    SpanStart,
    /// A span completed; `elapsed_ns` is set.
    SpanEnd,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// One telemetry event, borrowed from the emitting call-site.
#[derive(Debug)]
pub struct Event<'a> {
    /// Monotone per-process sequence number.
    pub seq: u64,
    /// Event class.
    pub kind: EventKind,
    /// Level at which this event is observable.
    pub level: Level,
    /// Span or event name (dotted path: `layer.component.what`).
    pub name: &'a str,
    /// Span nesting depth on the emitting thread.
    pub depth: usize,
    /// Elapsed wall-clock for `SpanEnd` events.
    pub elapsed_ns: Option<u64>,
    /// Name of the emitting thread.
    pub thread: &'a str,
}

impl Event<'_> {
    /// Renders the event as one self-describing JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("kind".to_string(), Json::str(self.kind.as_str())),
            ("level".to_string(), Json::str(self.level.as_str())),
            ("name".to_string(), Json::str(self.name)),
            ("depth".to_string(), Json::Num(self.depth as f64)),
            ("thread".to_string(), Json::str(self.thread)),
        ];
        if let Some(ns) = self.elapsed_ns {
            pairs.push(("elapsed_ns".to_string(), Json::Num(ns as f64)));
        }
        Json::Obj(pairs)
    }
}

/// An event consumer.
pub trait Sink: Send + Sync {
    /// Receives one event (already filtered by the sink's level).
    fn event(&self, event: &Event<'_>);
    /// Flushes buffered output.
    fn flush(&self) {}
}

struct Installed {
    level: Level,
    sink: Arc<dyn Sink>,
}

static SINKS: RwLock<Vec<Installed>> = RwLock::new(Vec::new());
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Bit 0: span timing requested; bit 1: at least one sink installed.
static STATE: AtomicU8 = AtomicU8::new(0);
const TIMING_BIT: u8 = 1;
const SINK_BIT: u8 = 2;
/// Highest level any sink listens at, as a `Level` discriminant.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// True when spans should take timestamps at all (a sink is installed
/// or span accounting was explicitly requested). One relaxed load.
#[inline]
pub fn active() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// True when events at `level` reach at least one sink.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Requests span wall-clock accounting into the registry even with no
/// sink installed (the repro binary enables this for its manifest).
pub fn set_timing(enabled: bool) {
    if enabled {
        STATE.fetch_or(TIMING_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!TIMING_BIT, Ordering::Relaxed);
    }
}

/// Installs a sink receiving events up to `level`.
pub fn install(level: Level, sink: Arc<dyn Sink>) {
    let mut sinks = SINKS.write().expect("sink lock");
    sinks.push(Installed { level, sink });
    STATE.fetch_or(SINK_BIT, Ordering::Relaxed);
    let max = sinks.iter().map(|i| i.level as u8).max().unwrap_or(0);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Flushes every installed sink.
pub fn flush() {
    for installed in SINKS.read().expect("sink lock").iter() {
        installed.sink.flush();
    }
}

/// Reads `ACCORDION_TRACE` (stderr sink level) and
/// `ACCORDION_TRACE_JSON` (JSONL sink path) and installs the
/// corresponding sinks. Unknown level strings are treated as `off`.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("ACCORDION_TRACE") {
        if let Some(level) = Level::parse(&v) {
            if level > Level::Off {
                install(level, Arc::new(StderrSink));
            }
        }
    }
    if let Ok(path) = std::env::var("ACCORDION_TRACE_JSON") {
        if !path.is_empty() {
            match JsonlSink::create(Path::new(&path)) {
                Ok(sink) => install(Level::Debug, Arc::new(sink)),
                Err(e) => eprintln!("[accordion-telemetry] cannot open {path}: {e}"),
            }
        }
    }
}

/// Dispatches `event` to every sink listening at its level.
pub fn emit(event: &Event<'_>) {
    for installed in SINKS.read().expect("sink lock").iter() {
        if installed.level >= event.level {
            installed.sink.event(event);
        }
    }
}

/// Allocates the next event sequence number.
pub fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Human-readable tracer writing to stderr.
pub struct StderrSink;

impl Sink for StderrSink {
    fn event(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(96);
        line.push_str("[accordion ");
        line.push_str(event.thread);
        line.push_str("] ");
        for _ in 0..event.depth {
            line.push_str("  ");
        }
        match event.kind {
            EventKind::SpanStart => {
                line.push_str("▶ ");
                line.push_str(event.name);
            }
            EventKind::SpanEnd => {
                line.push_str("◀ ");
                line.push_str(event.name);
                if let Some(ns) = event.elapsed_ns {
                    line.push_str(&format!(" ({})", fmt_ns(ns)));
                }
            }
        }
        eprintln!("{line}");
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Machine-readable sink: one self-describing JSON object per line.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) the JSONL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn event(&self, event: &Event<'_>) {
        let line = event.to_json().render();
        let mut writer = self.writer.lock().expect("jsonl lock");
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl lock").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Debug > Level::Info);
    }

    #[test]
    fn event_json_shape() {
        let e = Event {
            seq: 7,
            kind: EventKind::SpanStart,
            level: Level::Debug,
            name: "sim.phases.app",
            depth: 2,
            elapsed_ns: None,
            thread: "main",
        };
        let j = e.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("span_start"));
        assert_eq!(j.get("level").and_then(Json::as_str), Some("debug"));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("sim.phases.app"));
        assert_eq!(j.get("depth").and_then(Json::as_f64), Some(2.0));
        assert!(
            j.get("elapsed_ns").is_none(),
            "only span ends carry a duration"
        );
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210 s");
    }
}
