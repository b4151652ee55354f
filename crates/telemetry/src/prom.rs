//! Prometheus text exposition (version 0.0.4): renderer and lint.
//!
//! [`render`] turns the whole registry into the canonical exposition
//! format — `# HELP` / `# TYPE` per family, one sample per line,
//! label values escaped, histograms as cumulative `_bucket{le=...}`
//! series with `+Inf`, `_sum` and `_count` — which is what
//! `accordion-served` answers on `GET /metrics`. [`lint`] parses an
//! exposition back and checks its structural invariants; it backs the
//! `repro validate-metrics` subcommand, the conformance tests, and
//! the `scripts/check.sh` metrics gate, so the renderer cannot drift
//! from the format without a test noticing.
//!
//! Families are rendered in sorted-name order and label sets in
//! canonical (key-sorted) order, so the exposition is deterministic
//! for a fixed registry state.
//!
//! Naming: dotted registry names flatten to underscores
//! (`served.http.requests` → `served_http_requests`), counters gain
//! the conventional `_total` suffix, and spans surface as two counters
//! (`<name>_calls_total`, `<name>_seconds_total`).
//!
//! Every exported number is cumulative over the process lifetime, as
//! the format requires of counters and of a histogram's buckets, sum
//! and count: a scraper derives recent rates and quantiles from the
//! increments between scrapes, as the in-process [`crate::tsdb`] does.

use crate::registry::{HistogramSnapshot, Registry};
use std::fmt::Write as _;

/// What a family's samples mean (its `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing; rendered with a `_total` suffix.
    Counter,
    /// Last-write-wins scalar.
    Gauge,
    /// Bucketed distribution (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One sample of a family: a canonical label body (possibly empty)
/// plus its value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Canonical rendered label body, e.g. `outcome="ok"`; empty for
    /// unlabeled samples.
    pub labels: String,
    /// The sample value.
    pub value: SampleValue,
    /// Per-bucket exemplars for histogram samples (index `i` decorates
    /// the `i`-th bucket line, the last entry the `+Inf` bucket).
    /// Empty for scalar samples and histograms without exemplars.
    pub exemplars: Vec<Option<Exemplar>>,
}

/// An OpenMetrics exemplar: one observation annotated with
/// trace-correlation labels, rendered after a bucket line as
/// `... # {labels} value`. The serving path stores the request id and
/// flight-recorder track of the latest observation per latency bucket,
/// so a tail-latency spike links directly to the trace of a request
/// that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Canonical rendered label body, e.g.
    /// `request_id="42",track="req00000042"`.
    pub labels: String,
    /// The exemplared observation value.
    pub value: f64,
}

/// Escapes one label *value* the Prometheus way (`\\`, `\"`, `\n`).
/// Use when building exemplar or label bodies from runtime strings.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// A sample's payload.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// A counter or gauge reading.
    Scalar(f64),
    /// A histogram distribution (rendered as bucket/sum/count series).
    Hist(HistogramSnapshot),
}

/// A metric family ready to render: every sample shares the name,
/// kind and help text.
#[derive(Debug, Clone)]
pub struct Family {
    /// Exposition name (already flattened, without the counter
    /// `_total` suffix — the renderer adds it).
    pub name: String,
    /// `# HELP` body.
    pub help: String,
    /// `# TYPE`.
    pub kind: Kind,
    /// Samples in canonical label order.
    pub samples: Vec<Sample>,
}

/// Flattens a dotted metric name into a valid Prometheus metric name:
/// `.` and `-` become `_`, any other invalid character becomes `_`,
/// and a leading digit gains a `_` prefix.
pub fn flatten_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a `# HELP` body: backslashes and newlines only, per the
/// exposition format.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats an exposition sample value. Finite floats use Rust's
/// shortest roundtrip formatting, which Prometheus accepts.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn sample_line(out: &mut String, name: &str, labels: &str, extra: Option<&str>, v: f64) {
    sample_line_ex(out, name, labels, extra, v, None);
}

fn sample_line_ex(
    out: &mut String,
    name: &str,
    labels: &str,
    extra: Option<&str>,
    v: f64,
    exemplar: Option<&Exemplar>,
) {
    out.push_str(name);
    match (labels.is_empty(), extra) {
        (true, None) => {}
        (false, None) => {
            let _ = write!(out, "{{{labels}}}");
        }
        (true, Some(e)) => {
            let _ = write!(out, "{{{e}}}");
        }
        (false, Some(e)) => {
            let _ = write!(out, "{{{labels},{e}}}");
        }
    }
    let _ = write!(out, " {}", fmt_value(v));
    if let Some(ex) = exemplar {
        let _ = write!(out, " # {{{}}} {}", ex.labels, fmt_value(ex.value));
    }
    out.push('\n');
}

/// Renders gathered families as one exposition document. Families are
/// sorted by rendered name; a trailing newline terminates the body.
pub fn render_families(families: &[Family]) -> String {
    let mut sorted: Vec<&Family> = families.iter().collect();
    sorted.sort_by(|a, b| {
        a.name
            .cmp(&b.name)
            .then(rendered_name(a).cmp(&rendered_name(b)))
    });
    let mut out = String::new();
    for fam in sorted {
        let name = rendered_name(fam);
        let _ = writeln!(out, "# HELP {name} {}", escape_help(&fam.help));
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
        for s in &fam.samples {
            match &s.value {
                SampleValue::Scalar(v) => sample_line(&mut out, &name, &s.labels, None, *v),
                SampleValue::Hist(h) => {
                    let bucket = format!("{name}_bucket");
                    let mut cum = 0u64;
                    for (i, (edge, c)) in h.bounds.iter().zip(&h.buckets).enumerate() {
                        cum += c;
                        let le = format!("le=\"{}\"", fmt_value(*edge));
                        sample_line_ex(
                            &mut out,
                            &bucket,
                            &s.labels,
                            Some(&le),
                            cum as f64,
                            s.exemplars.get(i).and_then(Option::as_ref),
                        );
                    }
                    sample_line_ex(
                        &mut out,
                        &bucket,
                        &s.labels,
                        Some("le=\"+Inf\""),
                        h.count as f64,
                        s.exemplars.get(h.bounds.len()).and_then(Option::as_ref),
                    );
                    sample_line(&mut out, &format!("{name}_sum"), &s.labels, None, h.sum);
                    sample_line(
                        &mut out,
                        &format!("{name}_count"),
                        &s.labels,
                        None,
                        h.count as f64,
                    );
                }
            }
        }
    }
    out
}

/// The family's on-the-wire name (counters carry `_total`).
pub fn rendered_name(fam: &Family) -> String {
    if fam.kind == Kind::Counter && !fam.name.ends_with("_total") {
        format!("{}_total", fam.name)
    } else {
        fam.name.clone()
    }
}

/// Renders the registry as a Prometheus exposition document.
pub fn render(registry: &Registry) -> String {
    render_families(&registry.gather())
}

/// Summary of a successfully linted exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Total sample lines.
    pub samples: usize,
}

/// Validates exposition text against the format's structural rules:
///
/// * every sample belongs to a family declared by a preceding
///   `# TYPE` line (histogram samples may use the `_bucket` / `_sum`
///   / `_count` suffixes of a histogram family);
/// * no family is declared twice, and every `# TYPE` has a `# HELP`;
/// * metric and label names are well-formed, label values are quoted
///   with balanced, correctly escaped quotes;
/// * histogram buckets are cumulative (non-decreasing) in `le` order,
///   end with `le="+Inf"`, and the `+Inf` bucket equals `_count`;
/// * OpenMetrics exemplar suffixes (`# {labels} value [timestamp]`)
///   appear only on `_bucket` lines, with well-formed, correctly
///   escaped labels and a parseable value.
///
/// # Errors
///
/// Returns every violation found, one message per offense.
pub fn lint(text: &str) -> Result<LintReport, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    // family -> kind
    let mut types: std::collections::BTreeMap<String, String> = Default::default();
    let mut helps: std::collections::BTreeSet<String> = Default::default();
    // (histogram family, label body without le) -> (le, cumulative) series
    let mut buckets: std::collections::BTreeMap<(String, String), Vec<(f64, f64)>> =
        Default::default();
    let mut counts: std::collections::BTreeMap<(String, String), f64> = Default::default();
    let mut samples = 0usize;

    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            match words.next() {
                Some("HELP") => {
                    if let Some(name) = words.next() {
                        helps.insert(name.to_string());
                    } else {
                        errors.push(format!("line {ln}: HELP without a metric name"));
                    }
                }
                Some("TYPE") => {
                    let (name, kind) = (words.next(), words.next());
                    match (name, kind) {
                        (Some(n), Some(k))
                            if ["counter", "gauge", "histogram", "summary", "untyped"]
                                .contains(&k) =>
                        {
                            if types.insert(n.to_string(), k.to_string()).is_some() {
                                errors.push(format!("line {ln}: duplicate TYPE for {n}"));
                            }
                            if !helps.contains(n) {
                                errors.push(format!("line {ln}: TYPE {n} has no preceding HELP"));
                            }
                        }
                        _ => errors.push(format!("line {ln}: malformed TYPE line {line:?}")),
                    }
                }
                _ => {} // other comments are legal and ignored
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name, label_body, value, trailer)) = split_sample(line) else {
            errors.push(format!("line {ln}: malformed sample line {line:?}"));
            continue;
        };
        samples += 1;
        if !valid_metric_name(name) {
            errors.push(format!("line {ln}: invalid metric name {name:?}"));
        }
        let labels = match parse_labels(label_body) {
            Ok(l) => l,
            Err(e) => {
                errors.push(format!("line {ln}: {e}"));
                continue;
            }
        };
        let Ok(value) = parse_value(value) else {
            errors.push(format!("line {ln}: unparseable value {value:?}"));
            continue;
        };
        // Resolve the family this sample belongs to.
        let family = resolve_family(name, &types);
        let Some((family, suffix)) = family else {
            errors.push(format!("line {ln}: sample {name} has no preceding TYPE"));
            continue;
        };
        if !trailer.is_empty() {
            if let Some(ex) = trailer.strip_prefix('#') {
                if suffix != "_bucket" {
                    errors.push(format!("line {ln}: exemplar on a non-bucket sample {name}"));
                } else if let Err(e) = check_exemplar(ex.trim_start()) {
                    errors.push(format!("line {ln}: {e}"));
                }
            } else if trailer.split(' ').count() != 1 || parse_value(trailer).is_err() {
                errors.push(format!("line {ln}: malformed sample trailer {trailer:?}"));
            }
        }
        if suffix == "_bucket" {
            let le = labels.iter().find(|(k, _)| k == "le");
            let Some((_, le)) = le else {
                errors.push(format!("line {ln}: histogram bucket without an le label"));
                continue;
            };
            let le_value = match le.as_str() {
                "+Inf" => f64::INFINITY,
                other => match other.parse() {
                    Ok(v) => v,
                    Err(_) => {
                        errors.push(format!("line {ln}: bad le value {le:?}"));
                        continue;
                    }
                },
            };
            let rest: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            buckets
                .entry((family.clone(), rest.join(",")))
                .or_default()
                .push((le_value, value));
        } else if suffix == "_count" {
            let rest: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            counts.insert((family.clone(), rest.join(",")), value);
        }
    }

    for ((family, labels), series) in &buckets {
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = -1.0;
        for &(le, cum) in series {
            if le <= last_le {
                errors.push(format!(
                    "{family}{{{labels}}}: le values not increasing at le={le}"
                ));
            }
            if cum < last_cum {
                errors.push(format!(
                    "{family}{{{labels}}}: bucket counts decrease at le={le}"
                ));
            }
            last_le = le;
            last_cum = cum;
        }
        match series.last() {
            Some(&(le, cum)) if le == f64::INFINITY => {
                if let Some(&count) = counts.get(&(family.clone(), labels.clone())) {
                    if cum != count {
                        errors.push(format!(
                            "{family}{{{labels}}}: +Inf bucket {cum} != _count {count}"
                        ));
                    }
                } else {
                    errors.push(format!("{family}{{{labels}}}: histogram missing _count"));
                }
            }
            _ => errors.push(format!("{family}{{{labels}}}: missing le=\"+Inf\" bucket")),
        }
    }

    if errors.is_empty() {
        Ok(LintReport {
            families: types.len(),
            samples,
        })
    } else {
        Err(errors)
    }
}

/// Splits `name{labels} value [trailer]` into its parts; the label
/// block is optional and the trailer (a plain timestamp or an
/// OpenMetrics `# {...} value` exemplar) may be empty. Returns `None`
/// on structural nonsense.
fn split_sample(line: &str) -> Option<(&str, &str, &str, &str)> {
    // A `{` only opens the label block when it is attached to the
    // metric name (an exemplar trailer contains its own `{`).
    let label_open = match line.find('{') {
        Some(open) if !line[..open].contains(' ') => Some(open),
        _ => None,
    };
    let (head, tail) = match label_open {
        Some(open) => {
            // The closing brace must be found respecting quoted values.
            let rest = &line[open + 1..];
            let close = find_label_end(rest)?;
            (
                (&line[..open], &rest[..close]),
                rest[close + 1..].trim_start(),
            )
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next()?;
            ((name, ""), parts.next()?.trim_start())
        }
    };
    let value = tail.split(' ').next()?;
    if value.is_empty() {
        return None;
    }
    let trailer = tail[value.len()..].trim_start();
    Some((head.0, head.1, value, trailer))
}

/// Validates the body of an exemplar trailer (after the `#`):
/// `{labels} value [timestamp]` with Prometheus-escaped label values.
fn check_exemplar(body: &str) -> Result<(), String> {
    let rest = body
        .strip_prefix('{')
        .ok_or_else(|| format!("exemplar without a label block: {body:?}"))?;
    let close =
        find_label_end(rest).ok_or_else(|| format!("unterminated exemplar labels: {body:?}"))?;
    parse_labels(&rest[..close]).map_err(|e| format!("exemplar labels: {e}"))?;
    let mut tokens = rest[close + 1..].split_whitespace();
    let value = tokens
        .next()
        .ok_or_else(|| format!("exemplar without a value: {body:?}"))?;
    parse_value(value).map_err(|()| format!("unparseable exemplar value {value:?}"))?;
    if let Some(ts) = tokens.next() {
        ts.parse::<f64>()
            .map_err(|_| format!("unparseable exemplar timestamp {ts:?}"))?;
    }
    if tokens.next().is_some() {
        return Err(format!("trailing tokens after exemplar: {body:?}"));
    }
    Ok(())
}

/// Index of the `}` closing a label body, skipping quoted strings.
fn find_label_end(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a label body into (name, unescaped value) pairs.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body.trim_end_matches(',');
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {body:?}"))?;
        let name = &rest[..eq];
        if !valid_metric_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value for {name} not quoted"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after[1..].char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("bad escape \\{other} in label {name}")),
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for {name}"))?;
        out.push((name.to_string(), value));
        rest = after[1 + end + 1..].trim_start_matches(',');
    }
    Ok(out)
}

fn parse_value(v: &str) -> Result<f64, ()> {
    match v {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse().map_err(|_| ()),
    }
}

/// Resolves a sample name to its declared family: an exact TYPE match,
/// or a histogram family via the `_bucket`/`_sum`/`_count` suffixes.
/// Returns `(family, suffix)`; the suffix is empty for exact matches.
fn resolve_family(
    name: &str,
    types: &std::collections::BTreeMap<String, String>,
) -> Option<(String, &'static str)> {
    if types.contains_key(name) {
        return Some((name.to_string(), ""));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem).map(String::as_str) == Some("histogram")
                || types.get(stem).map(String::as_str) == Some("summary")
            {
                return Some((stem.to_string(), suffix));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_name_sanitizes() {
        assert_eq!(
            flatten_name("served.http.latency-us"),
            "served_http_latency_us"
        );
        assert_eq!(flatten_name("9lives"), "_9lives");
        assert_eq!(flatten_name("a:b"), "a:b");
        assert_eq!(flatten_name("weird name!"), "weird_name_");
    }

    #[test]
    fn renderer_emits_help_type_and_total_suffix() {
        let fam = Family {
            name: "demo_requests".into(),
            help: "demo\nmultiline \\ help".into(),
            kind: Kind::Counter,
            samples: vec![Sample {
                labels: "outcome=\"ok\"".into(),
                value: SampleValue::Scalar(3.0),
                exemplars: Vec::new(),
            }],
        };
        let text = render_families(&[fam]);
        assert!(text.contains("# HELP demo_requests_total demo\\nmultiline \\\\ help"));
        assert!(text.contains("# TYPE demo_requests_total counter"));
        assert!(text.contains("demo_requests_total{outcome=\"ok\"} 3"));
        lint(&text).expect("rendered exposition lints clean");
    }

    #[test]
    fn histogram_rendering_is_cumulative_with_inf() {
        let fam = Family {
            name: "demo_latency".into(),
            help: "latency".into(),
            kind: Kind::Histogram,
            samples: vec![Sample {
                labels: String::new(),
                value: SampleValue::Hist(HistogramSnapshot {
                    bounds: vec![1.0, 2.0],
                    buckets: vec![3, 2, 1],
                    count: 6,
                    sum: 7.5,
                    min: Some(0.5),
                    max: Some(9.0),
                }),
                exemplars: Vec::new(),
            }],
        };
        let text = render_families(&[fam]);
        assert!(text.contains("demo_latency_bucket{le=\"1\"} 3"));
        assert!(text.contains("demo_latency_bucket{le=\"2\"} 5"));
        assert!(text.contains("demo_latency_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("demo_latency_sum 7.5"));
        assert!(text.contains("demo_latency_count 6"));
        lint(&text).expect("histogram exposition lints clean");
    }

    #[test]
    fn lint_rejects_structural_violations() {
        // Sample without TYPE.
        assert!(lint("orphan_metric 1\n").is_err());
        // Duplicate TYPE.
        let dup = "# HELP x h\n# TYPE x counter\n# TYPE x counter\nx 1\n";
        assert!(lint(dup).is_err());
        // Non-cumulative buckets.
        let bad = concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
            "h_sum 1\nh_count 5\n"
        );
        let errs = lint(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("decrease")), "{errs:?}");
        // Missing +Inf.
        let noinf = concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n"
        );
        let errs = lint(noinf).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        // +Inf != count.
        let mismatch = concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n"
        );
        let errs = lint(mismatch).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
    }

    #[test]
    fn exemplars_render_and_lint() {
        let fam = Family {
            name: "demo_ex".into(),
            help: "exemplared latency".into(),
            kind: Kind::Histogram,
            samples: vec![Sample {
                labels: "outcome=\"ok\"".into(),
                value: SampleValue::Hist(HistogramSnapshot {
                    bounds: vec![1.0, 2.0],
                    buckets: vec![3, 2, 1],
                    count: 6,
                    sum: 7.5,
                    min: Some(0.5),
                    max: Some(9.0),
                }),
                exemplars: vec![
                    Some(Exemplar {
                        labels: "request_id=\"7\",track=\"req00000007\"".into(),
                        value: 0.9,
                    }),
                    None,
                    Some(Exemplar {
                        labels: "request_id=\"9\",track=\"req00000009\"".into(),
                        value: 9.0,
                    }),
                ],
            }],
        };
        let text = render_families(&[fam]);
        assert!(
            text.contains(
                "demo_ex_bucket{outcome=\"ok\",le=\"1\"} 3 \
                 # {request_id=\"7\",track=\"req00000007\"} 0.9"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "demo_ex_bucket{outcome=\"ok\",le=\"+Inf\"} 6 \
                 # {request_id=\"9\",track=\"req00000009\"} 9"
            ),
            "{text}"
        );
        // The le="2" bucket has no exemplar.
        assert!(text.contains("demo_ex_bucket{outcome=\"ok\",le=\"2\"} 5\n"));
        lint(&text).expect("exemplared exposition lints clean");
    }

    #[test]
    fn lint_validates_exemplar_structure() {
        let head = "# HELP h x\n# TYPE h histogram\n";
        let base = "h_bucket{le=\"+Inf\"} 1 # {t=\"a\"} 0.5\nh_sum 1\nh_count 1\n";
        lint(&format!("{head}{base}")).expect("well-formed exemplar");
        // Exemplar with timestamp is legal.
        let ts = "h_bucket{le=\"+Inf\"} 1 # {t=\"a\"} 0.5 1712.5\nh_sum 1\nh_count 1\n";
        lint(&format!("{head}{ts}")).expect("exemplar with timestamp");
        // Exemplar on a non-bucket sample is rejected.
        let on_sum = "h_bucket{le=\"+Inf\"} 1\nh_sum 1 # {t=\"a\"} 0.5\nh_count 1\n";
        let errs = lint(&format!("{head}{on_sum}")).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("non-bucket")), "{errs:?}");
        // Unterminated exemplar labels.
        let bad = "h_bucket{le=\"+Inf\"} 1 # {t=\"a} 0.5\nh_sum 1\nh_count 1\n";
        assert!(lint(&format!("{head}{bad}")).is_err());
        // Missing exemplar value.
        let noval = "h_bucket{le=\"+Inf\"} 1 # {t=\"a\"}\nh_sum 1\nh_count 1\n";
        let errs = lint(&format!("{head}{noval}")).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("value")), "{errs:?}");
    }

    #[test]
    fn escape_label_value_round_trips_through_lint() {
        let hostile = "a\"b\\c\nd";
        let escaped = escape_label_value(hostile);
        assert_eq!(escaped, "a\\\"b\\\\c\\nd");
        let text = format!(
            "# HELP h x\n# TYPE h histogram\n\
             h_bucket{{le=\"+Inf\"}} 1 # {{track=\"{escaped}\"}} 2\nh_sum 1\nh_count 1\n"
        );
        lint(&text).expect("escaped exemplar labels lint clean");
        // The raw (unescaped) form must be rejected: it embeds a bare
        // quote and a literal newline inside the label block.
        let raw = format!(
            "# HELP h x\n# TYPE h histogram\n\
             h_bucket{{le=\"+Inf\"}} 1 # {{track=\"{hostile}\"}} 2\nh_sum 1\nh_count 1\n"
        );
        assert!(lint(&raw).is_err());
    }

    #[test]
    fn lint_unescapes_label_values() {
        let text = concat!(
            "# HELP m x\n# TYPE m gauge\n",
            "m{path=\"/a\\\"b\\\\c\\nd\"} 1\n"
        );
        lint(text).expect("escaped label value parses");
        // Unterminated quote is an error.
        assert!(lint("# HELP m x\n# TYPE m gauge\nm{path=\"oops} 1\n").is_err());
    }
}
