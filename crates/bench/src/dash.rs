//! `repro dash`: a terminal dashboard over the server's ops plane.
//!
//! Polls `/v1/timeseries` and `/v1/alerts` on a serving instance and
//! renders sparkline panels (RPS, latency quantiles, shed, coalesce
//! and chip-cache miss rates) plus the alert table with plain ANSI
//! escapes — no curses, no external crates, works over ssh. Rendering
//! is split from fetching so every visual element is unit-testable on
//! canned data.

use accordion_telemetry::json::{self, Json};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Eight-level block ramp used for sparklines.
const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The panels the dashboard draws, in display order. Each row is the
/// panel title, the TSDB series id to query, and the unit suffix shown
/// after the latest value.
pub const PANELS: [(&str, &str, &str); 6] = [
    ("rps", "served_http_requests_total:rate", "/s"),
    (
        "p50",
        "served_http_request_latency_us{outcome=\"ok\"}:p50",
        "us",
    ),
    (
        "p99",
        "served_http_request_latency_us{outcome=\"ok\"}:p99",
        "us",
    ),
    (
        "shed",
        "served_http_requests_by_outcome_total{outcome=\"shed\"}:rate",
        "/s",
    ),
    ("coalesce", "served_coalesced_total:rate", "/s"),
    ("chip miss", "chip_popcache_misses_total:rate", "/s"),
];

/// Configuration for one dashboard run.
pub struct DashConfig {
    /// Server to poll.
    pub addr: SocketAddr,
    /// Seconds between redraws.
    pub interval: Duration,
    /// History window requested from `/v1/timeseries`, seconds. Passed
    /// through verbatim: the server owns range validation, so a value
    /// it rejects surfaces its own error message (not a client-side
    /// parse failure that hides what the server would have said).
    pub range: String,
    /// Render a single frame and exit (for scripts and smoke tests).
    pub once: bool,
}

/// Renders `values` as a fixed-width sparkline. The scale is
/// per-series (min..max of the window); a flat series renders as the
/// lowest block so quiet metrics read as quiet. Non-finite values
/// render as spaces.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let finite: Vec<f64> = tail.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    let mut out = String::with_capacity(width * 3);
    for _ in tail.len()..width {
        out.push(' ');
    }
    for v in &tail {
        if !v.is_finite() {
            out.push(' ');
        } else if span <= 0.0 {
            out.push(RAMP[0]);
        } else {
            let idx = (((v - lo) / span) * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[idx.min(RAMP.len() - 1)]);
        }
    }
    out
}

/// Formats a value compactly: integers under 10k verbatim, larger
/// magnitudes with a k/M suffix, small fractions with two decimals.
pub fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    let a = v.abs();
    if a >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if a >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if (v.fract()).abs() < 1e-9 && a < 10_000.0 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// One fetched series, decoded from a `/v1/timeseries` reply.
pub struct Series {
    /// Panel title.
    pub title: String,
    /// Unit suffix for the latest value.
    pub unit: String,
    /// Point values, oldest first. Empty when the series is absent.
    pub values: Vec<f64>,
}

/// Decodes a `/v1/timeseries` JSON reply into the point values,
/// oldest first. Returns an empty vector when the shape is unexpected
/// (series not yet populated) rather than failing the whole frame.
pub fn decode_points(doc: &Json) -> Vec<f64> {
    let Some(Json::Arr(points)) = doc.get("points") else {
        return Vec::new();
    };
    points
        .iter()
        .filter_map(|p| p.get("value").and_then(Json::as_f64))
        .collect()
}

/// One alert row decoded from `/v1/alerts`.
pub struct AlertRow {
    /// Rule name.
    pub name: String,
    /// `inactive` / `pending` / `firing` / `resolved`.
    pub state: String,
    /// Fast-window value at last evaluation, if known.
    pub fast: Option<f64>,
}

/// Decodes a `/v1/alerts` JSON reply into display rows.
pub fn decode_alerts(doc: &Json) -> Vec<AlertRow> {
    let Some(Json::Arr(rows)) = doc.get("alerts") else {
        return Vec::new();
    };
    rows.iter()
        .map(|row| AlertRow {
            name: row
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            state: row
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            fast: row.get("fast_value").and_then(Json::as_f64),
        })
        .collect()
}

/// Renders one full dashboard frame from already-fetched data. Pure:
/// the interactive loop and `--once` mode both print exactly this.
pub fn render_frame(addr: &str, series: &[Series], alerts: &[AlertRow], width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("accordion dash — {addr}\n"));
    let title_w = series.iter().map(|s| s.title.len()).max().unwrap_or(4);
    for s in series {
        let latest = s.values.last().copied().unwrap_or(f64::NAN);
        let value = if s.values.is_empty() {
            "(no data)".to_string()
        } else {
            format!("{}{}", fmt_value(latest), s.unit)
        };
        out.push_str(&format!(
            "  {:<title_w$}  {}  {}\n",
            s.title,
            sparkline(&s.values, width),
            value,
        ));
    }
    out.push_str("  alerts:\n");
    if alerts.is_empty() {
        out.push_str("    (none configured)\n");
    }
    for a in alerts {
        let marker = match a.state.as_str() {
            "firing" => "!!",
            "pending" => " ~",
            _ => "  ",
        };
        let fast = a.fast.map(fmt_value).unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "  {marker} {:<20} {:<9} fast={fast}\n",
            a.name, a.state
        ));
    }
    out
}

/// Blocking one-shot HTTP GET against the serving instance. Returns
/// the status code and body; only transport-level failures are `Err`,
/// so callers can read the server's error body on a 4xx/5xx answer.
pub fn fetch(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let timeout = Duration::from_secs(5);
    let mut conn = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = conn.set_read_timeout(Some(timeout));
    let _ = conn.set_write_timeout(Some(timeout));
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: dash\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)
        .map_err(|e| format!("cannot read from {addr}: {e}"))?;
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{addr}: malformed status line"))?;
    Ok((status, body.to_string()))
}

/// Renders a non-200 answer as the message the user should see: the
/// server's own `{"error": ...}` body when present (e.g. the valid
/// range `/v1/timeseries` would accept), the raw status otherwise.
pub fn server_error(path: &str, status: u16, body: &str) -> String {
    let detail = json::parse(body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(String::from));
    match detail {
        Some(msg) => format!("{path}: server rejected the request ({status}): {msg}"),
        None => format!("{path} answered {status}"),
    }
}

/// Percent-encodes a series id for use in a query string. Only the
/// characters that actually appear in series ids need escaping.
pub fn encode_metric(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'{' | b'}' | b'"' | b'=' | b',' | b' ' | b'%' | b'&' | b'#' | b'+' => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// Fetches one frame's worth of data from the server.
fn fetch_frame(cfg: &DashConfig) -> Result<(Vec<Series>, Vec<AlertRow>), String> {
    let mut series = Vec::with_capacity(PANELS.len());
    for (title, id, unit) in PANELS {
        let path = format!(
            "/v1/timeseries?metric={}&range={}",
            encode_metric(id),
            encode_metric(&cfg.range)
        );
        let values = match fetch(cfg.addr, &path)? {
            (200, body) => json::parse(&body)
                .map(|doc| decode_points(&doc))
                .unwrap_or_default(),
            // A 404 just means the series has no samples yet (e.g. no
            // request has been shed); render the panel empty.
            (404, _) => Vec::new(),
            // Anything else (a rejected --range value, a 5xx) carries
            // the server's explanation — surface it, don't render an
            // empty frame that hides it.
            (status, body) => return Err(server_error("/v1/timeseries", status, &body)),
        };
        series.push(Series {
            title: title.to_string(),
            unit: unit.to_string(),
            values,
        });
    }
    let (status, body) = fetch(cfg.addr, "/v1/alerts")?;
    if status != 200 {
        return Err(server_error("/v1/alerts", status, &body));
    }
    let doc = json::parse(&body).map_err(|e| format!("/v1/alerts: invalid JSON: {e}"))?;
    Ok((series, decode_alerts(&doc)))
}

/// Runs the dashboard: fetch, render, repeat. In `--once` mode prints
/// a single frame and returns; otherwise clears the screen between
/// frames until the process is interrupted.
pub fn run(cfg: &DashConfig) -> Result<(), String> {
    loop {
        let (series, alerts) = fetch_frame(cfg)?;
        let frame = render_frame(&cfg.addr.to_string(), &series, &alerts, 48);
        if cfg.once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame: repaint without scrollback spam.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_window_extremes() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
    }

    #[test]
    fn sparkline_flat_series_renders_low() {
        let s = sparkline(&[5.0; 4], 4);
        assert_eq!(s, "▁▁▁▁");
    }

    #[test]
    fn sparkline_pads_short_series_and_truncates_long() {
        assert_eq!(sparkline(&[1.0, 2.0], 4), "  ▁█");
        // Only the last `width` points are drawn.
        let s = sparkline(&[9.0, 0.0, 1.0], 2);
        assert_eq!(s, "▁█");
    }

    #[test]
    fn sparkline_handles_non_finite() {
        let s = sparkline(&[1.0, f64::NAN, 2.0], 3);
        assert_eq!(s.chars().nth(1), Some(' '));
    }

    #[test]
    fn fmt_value_picks_sane_units() {
        assert_eq!(fmt_value(42.0), "42");
        assert_eq!(fmt_value(1.5), "1.50");
        assert_eq!(fmt_value(12_500.0), "12.5k");
        assert_eq!(fmt_value(3_200_000.0), "3.2M");
        assert_eq!(fmt_value(f64::NAN), "-");
    }

    #[test]
    fn decode_points_reads_timeseries_reply() {
        let doc = json::parse(
            r#"{"metric":"x","range_secs":60,"tier_secs":1,
                "points":[{"t_ms":1000,"value":2.5},{"t_ms":2000,"value":4.0}]}"#,
        )
        .unwrap();
        assert_eq!(decode_points(&doc), vec![2.5, 4.0]);
        let empty = json::parse(r#"{"error":"unknown"}"#).unwrap();
        assert!(decode_points(&empty).is_empty());
    }

    #[test]
    fn decode_alerts_reads_status_reply() {
        let doc = json::parse(
            r#"{"count":1,"firing":1,"alerts":[
                {"name":"p99_slo","state":"firing","since_ms":12,
                 "fast_value":0.25,"slow_value":null}]}"#,
        )
        .unwrap();
        let rows = decode_alerts(&doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "p99_slo");
        assert_eq!(rows[0].state, "firing");
        assert_eq!(rows[0].fast, Some(0.25));
    }

    #[test]
    fn render_frame_includes_panels_and_alert_markers() {
        let series = vec![
            Series {
                title: "rps".to_string(),
                unit: "/s".to_string(),
                values: vec![1.0, 2.0, 3.0],
            },
            Series {
                title: "shed".to_string(),
                unit: String::new(),
                values: Vec::new(),
            },
        ];
        let alerts = vec![AlertRow {
            name: "p99_slo".to_string(),
            state: "firing".to_string(),
            fast: Some(0.5),
        }];
        let frame = render_frame("127.0.0.1:9", &series, &alerts, 8);
        assert!(frame.contains("accordion dash — 127.0.0.1:9"));
        assert!(frame.contains("rps"));
        assert!(frame.contains("3/s"));
        assert!(frame.contains("(no data)"));
        assert!(frame.contains("!! p99_slo"));
        assert!(frame.contains("fast=0.50"));
    }

    #[test]
    fn server_error_surfaces_the_servers_message() {
        let msg = server_error(
            "/v1/timeseries",
            400,
            r#"{"error":"range must be a positive integer (seconds)"}"#,
        );
        assert!(
            msg.contains("range must be a positive integer"),
            "server's explanation lost: {msg}"
        );
        assert!(msg.contains("400"), "{msg}");
        // A body that is not the error shape falls back to the status.
        let fallback = server_error("/v1/alerts", 503, "Service Unavailable");
        assert_eq!(fallback, "/v1/alerts answered 503");
    }

    #[test]
    fn encode_metric_escapes_query_breakers() {
        let id = "served_http_request_latency_us{outcome=\"ok\"}:p99";
        let enc = encode_metric(id);
        assert!(!enc.contains('{') && !enc.contains('"') && !enc.contains('='));
        assert!(enc.contains("%7B") && enc.contains("%22") && enc.contains("%3D"));
        assert!(enc.ends_with(":p99"));
    }
}
