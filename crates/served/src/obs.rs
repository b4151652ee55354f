//! Serving-path observability: per-request context and the structured
//! JSONL access log.
//!
//! # Request context
//!
//! Each accepted connection gets a **request id** from a per-server
//! accept-order counter. The handler thread installs a [`RequestCtx`]
//! (thread-local) for the duration of the request; layers below the
//! router — today the engine's chip-cache lookup — annotate it
//! via [`note_cache`] without threading a context argument through
//! every signature. The id also names the request's
//! flight-recorder track (`req00000001`), so a Chrome trace groups a
//! request's parse/cache/fanout/serialize stages under one
//! deterministic track; the pool carries that track to its workers,
//! where a sweep's points nest under it.
//!
//! # Access log determinism
//!
//! One JSON object per line, fields in fixed order, rendered by the
//! deterministic [`accordion_telemetry::json`] renderer. The logical
//! fields (id, method, path, status, outcome, handler, cache, bytes)
//! depend only on the request stream, not on scheduling, so with
//! timing disabled (`log_timing: false` in the server config) the file
//! is **byte-identical at any `--jobs`** for a serial client — pinned
//! by `tests/observability.rs`. With timing enabled (the default) each
//! line additionally carries `queue_us` / `latency_us` wall-clock
//! fields.

use accordion_telemetry::json::Json;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

/// Mutable per-request annotations, set by layers below the router.
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// Chip-cache outcome: `Some(true)` hit, `Some(false)` miss,
    /// `None` when the request never touched the cache.
    pub cache_hit: Option<bool>,
}

thread_local! {
    static CTX: RefCell<Option<RequestCtx>> = const { RefCell::new(None) };
}

/// Installs a fresh request context on this thread. Called by the
/// server's handler loop; pairs with [`end_request`].
pub fn begin_request() {
    CTX.with(|c| *c.borrow_mut() = Some(RequestCtx::default()));
}

/// Removes and returns the thread's request context (if any).
pub fn end_request() -> Option<RequestCtx> {
    CTX.with(|c| c.borrow_mut().take())
}

/// Records the chip-cache outcome of the current request. The first
/// annotation wins. No-op outside a request.
pub fn note_cache(hit: bool) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            if ctx.cache_hit.is_none() {
                ctx.cache_hit = Some(hit);
            }
        }
    });
}

/// Everything one access-log line reports; the `outcome` field is
/// derived from the status ([`outcome_of`]). Timing fields are skipped
/// when the log was opened with `log_timing: false`.
#[derive(Debug, Clone)]
pub struct AccessRecord<'a> {
    /// Accept-order request id.
    pub id: u64,
    /// Request method, `"-"` when the reactor answered (framing
    /// error, timeout, shed).
    pub method: &'a str,
    /// Request path, `"-"` when the reactor answered.
    pub path: &'a str,
    /// HTTP status answered.
    pub status: u16,
    /// Logical handler name, `"-"` when no route ran.
    pub handler: &'static str,
    /// Chip-cache outcome: `hit`, `miss`, or `-`.
    pub cache: &'static str,
    /// Response body bytes.
    pub bytes: u64,
    /// Queue wait (accept → handler pickup), microseconds.
    pub queue_us: u64,
    /// Total handler latency, microseconds.
    pub latency_us: u64,
}

/// Maps an HTTP status to its `outcome` label (satellite 1's contract:
/// sheds, timeouts and early rejects are first-class outcomes, not
/// holes in the latency histogram).
pub fn outcome_of(status: u16) -> &'static str {
    match status {
        200..=299 => "ok",
        408 => "timeout",
        413 => "too_large",
        503 => "shed",
        _ => "error",
    }
}

/// A shared JSONL access-log writer. Lines are serialized under a
/// mutex (handler threads and the accept thread both write), flushed
/// per line so a crashed or killed server loses at most the line in
/// flight.
pub struct AccessLog {
    out: Mutex<BufWriter<File>>,
    timing: bool,
}

impl AccessLog {
    /// Creates (truncates) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create(path: &str, timing: bool) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            timing,
        })
    }

    /// Appends one alert state transition as a single JSON line. Alert
    /// lines are distinguished from request lines by the leading
    /// `"type":"alert"` field (request lines lead with `"id"`), so a
    /// log consumer can split the two streams with one key probe.
    pub fn write_alert(&self, name: &str, from: &str, to: &str, at_ms: u64) {
        self.append(Json::obj(vec![
            ("type", Json::str("alert")),
            ("alert", Json::str(name)),
            ("from", Json::str(from)),
            ("to", Json::str(to)),
            ("at_ms", Json::Num(at_ms as f64)),
        ]));
    }

    /// Appends one record as a single JSON line.
    pub fn write(&self, rec: &AccessRecord) {
        let mut fields = vec![
            ("id", Json::Num(rec.id as f64)),
            ("method", Json::str(rec.method)),
            ("path", Json::str(rec.path)),
            ("status", Json::Num(f64::from(rec.status))),
            ("outcome", Json::str(outcome_of(rec.status))),
            ("handler", Json::str(rec.handler)),
            ("cache", Json::str(rec.cache)),
            ("bytes", Json::Num(rec.bytes as f64)),
        ];
        if self.timing {
            fields.push(("queue_us", Json::Num(rec.queue_us as f64)));
            fields.push(("latency_us", Json::Num(rec.latency_us as f64)));
        }
        self.append(Json::obj(fields));
    }

    /// Writes one JSON object as a line and flushes it.
    fn append(&self, line: Json) {
        let line = line.render();
        let mut out = self.out.lock().expect("access log lock");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_annotations_round_trip() {
        begin_request();
        note_cache(true);
        note_cache(false); // first annotation wins
        let ctx = end_request().expect("ctx installed");
        assert_eq!(ctx.cache_hit, Some(true));
        assert!(end_request().is_none());
    }

    #[test]
    fn annotations_outside_a_request_are_noops() {
        note_cache(true);
        assert!(end_request().is_none());
    }

    #[test]
    fn outcome_classes() {
        assert_eq!(outcome_of(200), "ok");
        assert_eq!(outcome_of(204), "ok");
        assert_eq!(outcome_of(408), "timeout");
        assert_eq!(outcome_of(413), "too_large");
        assert_eq!(outcome_of(503), "shed");
        for s in [400, 404, 405, 500] {
            assert_eq!(outcome_of(s), "error");
        }
    }

    #[test]
    fn access_log_lines_are_stable_json() {
        let dir = std::env::temp_dir().join("accordion-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::create(path.to_str().unwrap(), false).unwrap();
        log.write(&AccessRecord {
            id: 1,
            method: "POST",
            path: "/v1/simulate",
            status: 200,
            handler: "simulate",
            cache: "hit",
            bytes: 42,
            queue_us: 5,
            latency_us: 100,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        // Timing disabled: no wall-clock fields in the line.
        assert_eq!(
            text,
            "{\"id\":1,\"method\":\"POST\",\"path\":\"/v1/simulate\",\
             \"status\":200,\"outcome\":\"ok\",\"handler\":\"simulate\",\
             \"cache\":\"hit\",\"bytes\":42}\n"
        );
        let _ = std::fs::remove_file(&path);
    }
}
