//! HTTP/1.1 framing: a resumable request parser and response encoding.
//!
//! Just enough of RFC 9112 for a localhost JSON service, rebuilt for
//! the non-blocking front end: the parser is **push-based and
//! resumable** — the reactor feeds it whatever bytes `read(2)` handed
//! over, and [`RequestParser::next_request`] yields a request exactly
//! when one is complete, however the bytes were split across reads.
//! One buffer can hold several pipelined requests; each call yields
//! the next. Parsing never panics on malformed input — every error
//! maps to a 4xx (`400` bad framing, `413` oversized body, `431`
//! oversized head) so a fuzzer can only ever collect error responses.
//!
//! Responses are encoded to owned byte buffers ([`Response::encode`])
//! rather than written to a socket: the reactor owns all socket writes
//! and may need to park a partially-written response until the peer
//! drains it.

/// Hard cap on the request line + headers, independent of the body cap.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Query string key/value pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; each variant maps to one status.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line, header, or body framing → 400.
    Bad(String),
    /// Declared body exceeds the configured cap → 413.
    TooLarge,
    /// Request line + headers exceed [`MAX_HEAD_BYTES`] → 431.
    HeadersTooLarge,
}

impl RequestError {
    /// The HTTP status this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            Self::Bad(_) => 400,
            Self::TooLarge => 413,
            Self::HeadersTooLarge => 431,
        }
    }

    /// The error-envelope message for the response body.
    pub fn message(&self) -> String {
        match self {
            Self::Bad(msg) => msg.clone(),
            Self::TooLarge => "request exceeds size limits".into(),
            Self::HeadersTooLarge => "request headers exceed size limits".into(),
        }
    }
}

/// One complete request plus its connection disposition.
#[derive(Debug)]
pub struct Parsed {
    /// The request itself.
    pub request: Request,
    /// Whether the connection must close after this response:
    /// `Connection: close`, or an HTTP/1.0 peer that did not opt into
    /// keep-alive.
    pub close: bool,
}

/// Head fields carried from the head phase into the body phase.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    close: bool,
    content_length: usize,
}

enum State {
    /// Accumulating request line + headers.
    Head,
    /// Head parsed; waiting for `content_length` body bytes.
    Body(Head),
}

/// A resumable, push-based HTTP/1.1 request parser.
///
/// Feed raw socket bytes with [`push`](Self::push); pull complete
/// requests with [`next_request`](Self::next_request). The parser
/// carries its state across calls, so a request split at any byte
/// boundary — even mid-header-name or mid-body — parses identically
/// to one arriving whole (pinned by `tests/http_props.rs`).
///
/// After an error the connection is unusable (framing is lost); the
/// server answers the 4xx and closes. The parser makes no attempt to
/// resynchronize.
pub struct RequestParser {
    buf: Vec<u8>,
    state: State,
    max_body: usize,
}

impl RequestParser {
    /// A fresh parser with the given body cap.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            state: State::Head,
            max_body,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the peer is mid-request: a partial head or an awaited
    /// body. Distinguishes a *slow* client (evict with `408` after the
    /// request deadline) from an *idle* keep-alive connection between
    /// requests (close silently after the idle timeout).
    pub fn mid_request(&self) -> bool {
        match self.state {
            State::Head => !self.buf.is_empty(),
            State::Body(_) => true,
        }
    }

    /// Yields the next complete request, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes" — never an error, never a
    /// hang. Call again after the next [`push`](Self::push).
    ///
    /// # Errors
    ///
    /// A [`RequestError`] naming the 4xx to answer before closing.
    pub fn next_request(&mut self) -> Result<Option<Parsed>, RequestError> {
        if matches!(self.state, State::Head) {
            // Tolerate blank line(s) before the request line (RFC 9112
            // §2.2 — robustness for clients that end the previous body
            // with a stray CRLF).
            let lead = self
                .buf
                .iter()
                .take_while(|&&b| b == b'\r' || b == b'\n')
                .count();
            if lead > 0 {
                self.buf.drain(..lead);
            }
            let Some((head_end, body_start)) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(RequestError::HeadersTooLarge);
                }
                return Ok(None);
            };
            if body_start > MAX_HEAD_BYTES {
                return Err(RequestError::HeadersTooLarge);
            }
            let head = parse_head(&self.buf[..head_end])?;
            if head.content_length > self.max_body {
                return Err(RequestError::TooLarge);
            }
            self.buf.drain(..body_start);
            self.state = State::Body(head);
        }
        if let State::Body(head) = &self.state {
            if self.buf.len() < head.content_length {
                return Ok(None);
            }
            let State::Body(head) = std::mem::replace(&mut self.state, State::Head) else {
                unreachable!("state checked above");
            };
            let body: Vec<u8> = self.buf.drain(..head.content_length).collect();
            return Ok(Some(Parsed {
                request: Request {
                    method: head.method,
                    path: head.path,
                    query: head.query,
                    body,
                },
                close: head.close,
            }));
        }
        Ok(None)
    }
}

/// Locates the head terminator: returns `(head_len, body_start)` for
/// the first `\r\n\r\n` (or the lenient `\n\n` / `\n\r\n`) in `buf`.
/// `head_len` excludes the blank line.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some((i + 1, i + 2)),
                (Some(b'\r'), Some(b'\n')) => return Some((i + 1, i + 3)),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses the request line + header block (terminator excluded).
fn parse_head(raw: &[u8]) -> Result<Head, RequestError> {
    let text =
        std::str::from_utf8(raw).map_err(|_| RequestError::Bad("non-UTF-8 request head".into()))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let line = lines.next().unwrap_or("");
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| RequestError::Bad(format!("malformed request line {line:?}")))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Bad("missing request target".into()))?;
    let version = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v,
        other => return Err(RequestError::Bad(format!("bad HTTP version {other:?}"))),
    };
    let (path, query) = split_target(target)?;

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    let mut close = version == "HTTP/1.0";
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Bad(format!("malformed header {line:?}")));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| RequestError::Bad(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Request bodies are Content-Length-only; an encoded body
            // we would misframe must be rejected, not ignored.
            return Err(RequestError::Bad(
                "Transfer-Encoding request bodies are not supported".into(),
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    Ok(Head {
        method,
        path,
        query,
        close,
        content_length,
    })
}

/// Splits a request target into path and parsed query pairs.
fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), RequestError> {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(RequestError::Bad(format!("bad request target {target:?}")));
    }
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok((path.to_string(), query))
}

/// A response ready to be encoded: status, content type, extra
/// headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After` on a 503.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Self {
        let body = accordion_telemetry::json::Json::obj(vec![(
            "error",
            accordion_telemetry::json::Json::str(msg),
        )]);
        Self::json(status, body.render())
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Encodes the full wire form with `Content-Length` framing. The
    /// `Connection` header advertises the connection's actual fate so
    /// clients can pool sockets correctly.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Result<Option<Parsed>, RequestError> {
        let mut p = RequestParser::new(1 << 20);
        p.push(raw);
        p.next_request()
    }

    #[test]
    fn target_splitting() {
        let (path, query) = split_target("/v1/artifacts/fig5a?chips=3&x=1").unwrap();
        assert_eq!(path, "/v1/artifacts/fig5a");
        assert_eq!(
            query,
            vec![
                ("chips".to_string(), "3".to_string()),
                ("x".to_string(), "1".to_string())
            ]
        );
        assert!(split_target("no-slash").is_err());
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for s in [200, 400, 404, 405, 408, 413, 431, 500, 503] {
            assert_ne!(status_reason(s), "Unknown", "status {s}");
        }
    }

    #[test]
    fn whole_request_parses() {
        let parsed = parse_one(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .expect("complete request");
        assert_eq!(parsed.request.method, "POST");
        assert_eq!(parsed.request.path, "/v1/simulate");
        assert_eq!(parsed.request.body, b"{}");
        assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn byte_by_byte_arrival_parses_identically() {
        let raw = b"POST /v1/sim?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let mut p = RequestParser::new(64);
        for (i, b) in raw.iter().enumerate() {
            p.push(std::slice::from_ref(b));
            let r = p.next_request().unwrap();
            if i + 1 < raw.len() {
                assert!(r.is_none(), "complete too early at byte {i}");
                assert!(p.mid_request());
            } else {
                let parsed = r.expect("complete at last byte");
                assert_eq!(parsed.request.body, b"hello");
                assert_eq!(parsed.request.query_value("x"), Some("1"));
                assert!(!p.mid_request());
            }
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new(64);
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = p.next_request().unwrap().expect("first");
        assert_eq!(a.request.path, "/a");
        assert!(!a.close);
        let b = p.next_request().unwrap().expect("second");
        assert_eq!(b.request.path, "/b");
        assert!(b.close, "Connection: close must be honored");
        assert!(p.next_request().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn http10_defaults_to_close_and_can_opt_in() {
        let a = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(a.close);
        let b = parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!b.close);
    }

    #[test]
    fn framing_errors_map_to_their_statuses() {
        for (raw, status) in [
            (&b"garbage\r\n\r\n"[..], 400),
            (b"GET\r\n\r\n", 400),
            (b"get / HTTP/1.1\r\n\r\n", 400),
            (b"GET / SPDY/9\r\n\r\n", 400),
            (b"GET nopath HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"\xff\xfe / HTTP/1.1\r\n\r\n", 400),
        ] {
            let err = parse_one(raw).err().unwrap_or_else(|| {
                panic!("expected error for {raw:?}");
            });
            assert_eq!(err.status(), status, "{raw:?}");
        }
    }

    #[test]
    fn oversized_body_is_413_and_oversized_head_431() {
        let mut p = RequestParser::new(16);
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n");
        assert_eq!(p.next_request().err().map(|e| e.status()), Some(413));

        let mut p = RequestParser::new(1 << 20);
        p.push(b"GET / HTTP/1.1\r\nX-Pad: ");
        p.push(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        assert_eq!(p.next_request().err().map(|e| e.status()), Some(431));

        // An unterminated head is also caught incrementally, before
        // any terminator arrives.
        let mut p = RequestParser::new(1 << 20);
        p.push(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        assert_eq!(p.next_request().err().map(|e| e.status()), Some(431));
    }

    #[test]
    fn leading_blank_lines_are_tolerated() {
        let mut p = RequestParser::new(64);
        p.push(b"\r\n\r\nGET / HTTP/1.1\r\n\r\n");
        let parsed = p.next_request().unwrap().expect("request after CRLFs");
        assert_eq!(parsed.request.path, "/");
    }

    #[test]
    fn encode_advertises_connection_fate() {
        let resp = Response::json(200, "{}".into());
        let ka = String::from_utf8(resp.encode(true)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"), "{ka}");
        assert!(ka.contains("Content-Length: 2\r\n"), "{ka}");
        let close = String::from_utf8(resp.encode(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
        assert!(close.ends_with("\r\n\r\n{}"), "{close}");
    }
}
