//! Declarative alert rules with multi-window burn-rate evaluation
//! over the [`crate::tsdb`] store.
//!
//! Rules are written in a TOML-ish zero-dependency format — one
//! `[[alert]]` table per rule, `key = value` lines, `#` comments:
//!
//! ```toml
//! [[alert]]
//! name = "ok-p99-latency"
//! metric = "served_http_request_latency_us{outcome=\"ok\"}:p99"
//! op = "gt"
//! threshold = 50000.0      # µs
//! fast_window_s = 300
//! slow_window_s = 3600
//!
//! [[alert]]
//! name = "shed-slo-burn"
//! bad = "served_http_requests_by_outcome_total{outcome=\"shed\"}:rate"
//! total = "served_http_requests_total:rate"
//! objective = 0.999        # ≤ 0.1 % of requests may shed
//! fast_burn = 14.4
//! slow_burn = 6.0
//! ```
//!
//! # Evaluation
//!
//! A *threshold* rule violates a window when the TSDB mean of its
//! metric over that window crosses the threshold. A *burn-rate* rule
//! follows the classic multi-window SLO formulation: with an
//! objective of `o` (fraction of good events), the error budget is
//! `1 - o`; the burn rate of a window is
//! `(bad_rate / total_rate) / (1 - o)` — how many times faster than
//! budget the SLO is being consumed — and the window violates when
//! that exceeds its configured factor (the defaults, 14.4× fast /
//! 6× slow, are the standard page-worthy burn rates).
//!
//! The state machine needs the *fast* window to trip before anything
//! happens and both windows to trip before firing:
//!
//! ```text
//! inactive ──fast──▶ pending ──fast+slow──▶ firing ──!fast──▶ resolved
//!     ▲                 │  ▲                                     │
//!     └────!fast────────┘  └──────────────fast───────────────────┘
//! ```
//!
//! `resolved` is sticky until the next violation so tests (and
//! `/v1/alerts` pollers) can observe it; a firing alert keeps firing
//! while the fast window still violates, even after the slow window
//! recovers. Evaluation is driven from scrape samples with an
//! injected clock ([`AlertSet::evaluate_at_ms`]), so transitions are
//! deterministic and pinnable.

use crate::tsdb::Tsdb;
use std::fmt;

/// Default fast evaluation window, seconds (5 m).
pub const DEFAULT_FAST_WINDOW_S: u64 = 300;
/// Default slow evaluation window, seconds (1 h).
pub const DEFAULT_SLOW_WINDOW_S: u64 = 3600;
/// Default fast-window burn-rate factor.
pub const DEFAULT_FAST_BURN: f64 = 14.4;
/// Default slow-window burn-rate factor.
pub const DEFAULT_SLOW_BURN: f64 = 6.0;

/// Comparison direction of a threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Violates when the mean exceeds the threshold.
    Gt,
    /// Violates when the mean falls below the threshold.
    Lt,
}

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// Window mean of one series against a fixed threshold.
    Threshold {
        /// TSDB series id to watch.
        metric: String,
        /// Comparison direction.
        op: Op,
        /// The threshold.
        threshold: f64,
    },
    /// Multi-window SLO burn rate over a bad/total rate pair.
    BurnRate {
        /// Series id of the bad-event rate.
        bad: String,
        /// Series id of the total-event rate.
        total: String,
        /// SLO objective: fraction of good events, in `(0, 1)`.
        objective: f64,
        /// Fast-window burn factor.
        fast_burn: f64,
        /// Slow-window burn factor.
        slow_burn: f64,
    },
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (unique per file; shown everywhere).
    pub name: String,
    /// What it watches.
    pub kind: AlertKind,
    /// Fast window, seconds.
    pub fast_window_s: u64,
    /// Slow window, seconds.
    pub slow_window_s: u64,
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Never violated (or long recovered).
    Inactive,
    /// Fast window violates; slow has not confirmed yet.
    Pending,
    /// Both windows violated; still paging.
    Firing,
    /// Recently stopped firing (sticky until the next violation).
    Resolved,
}

impl AlertState {
    /// Lower-case wire name (`/v1/alerts`, access log).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One state change produced by an evaluation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Rule name.
    pub name: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Evaluation stamp, ms.
    pub at_ms: u64,
}

/// Point-in-time view of one rule for `/v1/alerts`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// Rule name.
    pub name: String,
    /// Current state.
    pub state: AlertState,
    /// When the current state was entered, ms.
    pub since_ms: u64,
    /// Last measured fast-window value (mean or burn rate).
    pub fast_value: Option<f64>,
    /// Last measured slow-window value.
    pub slow_value: Option<f64>,
}

struct Entry {
    rule: AlertRule,
    state: AlertState,
    since_ms: u64,
    fast_value: Option<f64>,
    slow_value: Option<f64>,
}

/// A set of rules plus their evaluation state.
pub struct AlertSet {
    entries: Vec<Entry>,
}

impl AlertSet {
    /// Wraps parsed rules; everything starts `inactive`.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Self {
            entries: rules
                .into_iter()
                .map(|rule| Entry {
                    rule,
                    state: AlertState::Inactive,
                    since_ms: 0,
                    fast_value: None,
                    slow_value: None,
                })
                .collect(),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of rules currently firing.
    pub fn firing(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state == AlertState::Firing)
            .count()
    }

    /// Evaluates every rule against the store at `now_ms`, advancing
    /// the state machines; returns the transitions that occurred.
    pub fn evaluate_at_ms(&mut self, tsdb: &Tsdb, now_ms: u64) -> Vec<Transition> {
        let mut out = Vec::new();
        for e in &mut self.entries {
            let (fast_value, fast_viol) =
                measure(&e.rule.kind, tsdb, e.rule.fast_window_s, now_ms, true);
            let (slow_value, slow_viol) =
                measure(&e.rule.kind, tsdb, e.rule.slow_window_s, now_ms, false);
            e.fast_value = fast_value;
            e.slow_value = slow_value;
            let next = if fast_viol && slow_viol {
                AlertState::Firing
            } else if fast_viol {
                if e.state == AlertState::Firing {
                    AlertState::Firing
                } else {
                    AlertState::Pending
                }
            } else {
                match e.state {
                    AlertState::Pending | AlertState::Firing => AlertState::Resolved,
                    other => other,
                }
            };
            if next != e.state {
                out.push(Transition {
                    name: e.rule.name.clone(),
                    from: e.state,
                    to: next,
                    at_ms: now_ms,
                });
                e.state = next;
                e.since_ms = now_ms;
            }
        }
        out
    }

    /// Current view of every rule, in file order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.entries
            .iter()
            .map(|e| AlertStatus {
                name: e.rule.name.clone(),
                state: e.state,
                since_ms: e.since_ms,
                fast_value: e.fast_value,
                slow_value: e.slow_value,
            })
            .collect()
    }
}

/// Measures one rule over one window: `(value, violating)`. Missing
/// data never violates — an idle server must not page.
fn measure(
    kind: &AlertKind,
    tsdb: &Tsdb,
    window_s: u64,
    now_ms: u64,
    fast: bool,
) -> (Option<f64>, bool) {
    match kind {
        AlertKind::Threshold {
            metric,
            op,
            threshold,
        } => {
            let v = tsdb.window_mean_at_ms(metric, window_s, now_ms);
            let viol = v.is_some_and(|v| match op {
                Op::Gt => v > *threshold,
                Op::Lt => v < *threshold,
            });
            (v, viol)
        }
        AlertKind::BurnRate {
            bad,
            total,
            objective,
            fast_burn,
            slow_burn,
        } => {
            let total_rate = tsdb.window_mean_at_ms(total, window_s, now_ms);
            let Some(total_rate) = total_rate.filter(|&t| t > 0.0) else {
                return (None, false);
            };
            let bad_rate = tsdb.window_mean_at_ms(bad, window_s, now_ms).unwrap_or(0.0);
            let burn = (bad_rate / total_rate) / (1.0 - objective);
            let factor = if fast { *fast_burn } else { *slow_burn };
            (Some(burn), burn > factor)
        }
    }
}

/// A rule mid-parse: its `[[alert]]` line number plus the
/// `(line, key, value)` triples accumulated so far.
type PartialRule = (usize, Vec<(usize, String, Value)>);

/// Parses a rule file. Returns every problem found, one message per
/// offense, each prefixed with its line number.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut rules: Vec<AlertRule> = Vec::new();
    let mut current: Option<PartialRule> = None;

    let finish =
        |cur: &mut Option<PartialRule>, errors: &mut Vec<String>, rules: &mut Vec<AlertRule>| {
            if let Some((start, kvs)) = cur.take() {
                match build_rule(start, kvs) {
                    Ok(rule) => {
                        if rules.iter().any(|r: &AlertRule| r.name == rule.name) {
                            errors.push(format!(
                                "line {start}: duplicate alert name {:?}",
                                rule.name
                            ));
                        } else {
                            rules.push(rule);
                        }
                    }
                    Err(mut e) => errors.append(&mut e),
                }
            }
        };

    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[alert]]" {
            finish(&mut current, &mut errors, &mut rules);
            current = Some((ln, Vec::new()));
            continue;
        }
        if line.starts_with('[') {
            errors.push(format!("line {ln}: unknown table {line:?}"));
            continue;
        }
        let Some(eq) = line.find('=') else {
            errors.push(format!("line {ln}: expected `key = value`, got {line:?}"));
            continue;
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            errors.push(format!("line {ln}: invalid key {key:?}"));
            continue;
        }
        let value = match parse_value(line[eq + 1..].trim()) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {ln}: {e}"));
                continue;
            }
        };
        match &mut current {
            Some((_, kvs)) => kvs.push((ln, key.to_string(), value)),
            None => errors.push(format!("line {ln}: `{key}` outside any [[alert]] table")),
        }
    }
    finish(&mut current, &mut errors, &mut rules);

    if errors.is_empty() {
        Ok(rules)
    } else {
        Err(errors)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
}

/// Parses one value: a quoted string (with `\\`, `\"`, `\n` escapes),
/// a number, or a bare word. A trailing `# comment` is allowed.
fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(rest) = s.strip_prefix('"') {
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, c) in rest.char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("bad escape \\{other}")),
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
        let end = end.ok_or_else(|| format!("unterminated string {s:?}"))?;
        let trailer = rest[end + 1..].trim();
        if !trailer.is_empty() && !trailer.starts_with('#') {
            return Err(format!("trailing garbage after string: {trailer:?}"));
        }
        return Ok(Value::Str(value));
    }
    let bare = s.split('#').next().unwrap_or("").trim();
    if bare.is_empty() {
        return Err("missing value".to_string());
    }
    if let Ok(n) = bare.parse::<f64>() {
        return Ok(Value::Num(n));
    }
    if bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Ok(Value::Str(bare.to_string()));
    }
    Err(format!("unparseable value {bare:?} (quote strings)"))
}

/// Validates one accumulated `[[alert]]` table into a rule.
fn build_rule(start: usize, kvs: Vec<(usize, String, Value)>) -> Result<AlertRule, Vec<String>> {
    const KNOWN: &[&str] = &[
        "name",
        "kind",
        "metric",
        "op",
        "threshold",
        "bad",
        "total",
        "objective",
        "fast_burn",
        "slow_burn",
        "fast_window_s",
        "slow_window_s",
    ];
    let mut errors = Vec::new();
    let mut map: std::collections::BTreeMap<&str, (usize, &Value)> = Default::default();
    for (ln, key, value) in &kvs {
        if !KNOWN.contains(&key.as_str()) {
            errors.push(format!("line {ln}: unknown key {key:?}"));
            continue;
        }
        if map.insert(key.as_str(), (*ln, value)).is_some() {
            errors.push(format!("line {ln}: duplicate key {key:?}"));
        }
    }
    let str_of = |key: &str, errors: &mut Vec<String>| -> Option<String> {
        match map.get(key) {
            Some((_, Value::Str(s))) => Some(s.clone()),
            Some((ln, Value::Num(_))) => {
                errors.push(format!("line {ln}: {key} must be a string"));
                None
            }
            None => None,
        }
    };
    let num_of = |key: &str, errors: &mut Vec<String>| -> Option<f64> {
        match map.get(key) {
            Some((_, Value::Num(n))) if n.is_finite() => Some(*n),
            Some((ln, Value::Num(n))) => {
                errors.push(format!("line {ln}: {key} must be finite, got {n}"));
                None
            }
            Some((ln, Value::Str(_))) => {
                errors.push(format!("line {ln}: {key} must be a number"));
                None
            }
            None => None,
        }
    };

    // A present but rejected key has already reported its one error;
    // "missing" is for absent keys only.
    let name = match str_of("name", &mut errors) {
        Some(n) if !n.is_empty() => n,
        None if map.contains_key("name") => String::new(),
        _ => {
            errors.push(format!("line {start}: [[alert]] needs a non-empty name"));
            String::new()
        }
    };
    let missing = |key: &str, errors: &mut Vec<String>| {
        if !map.contains_key(key) {
            errors.push(format!("alert {name:?}: missing {key}"));
        }
    };

    let window = |key: &str, default: u64, errors: &mut Vec<String>| -> u64 {
        match num_of(key, errors) {
            Some(v) if v >= 1.0 && v.fract() == 0.0 => v as u64,
            Some(_) => {
                errors.push(format!("alert {name:?}: {key} must be a whole number ≥ 1"));
                default
            }
            None => default,
        }
    };
    let fast_window_s = window("fast_window_s", DEFAULT_FAST_WINDOW_S, &mut errors);
    let slow_window_s = window("slow_window_s", DEFAULT_SLOW_WINDOW_S, &mut errors);
    if fast_window_s > slow_window_s {
        errors.push(format!(
            "alert {name:?}: fast_window_s ({fast_window_s}) exceeds slow_window_s ({slow_window_s})"
        ));
    }

    // Infer the kind from the keys present; an explicit `kind` must
    // agree.
    let is_threshold = map.contains_key("metric") || map.contains_key("threshold");
    let is_burn = map.contains_key("bad") || map.contains_key("total");
    let declared = str_of("kind", &mut errors);
    let kind = match (is_threshold, is_burn) {
        (true, true) => {
            errors.push(format!(
                "alert {name:?}: mixes threshold keys (metric/threshold) with \
                 burn-rate keys (bad/total)"
            ));
            None
        }
        (true, false) => {
            if matches!(declared.as_deref(), Some(k) if k != "threshold") {
                errors.push(format!(
                    "alert {name:?}: kind mismatch (keys say threshold)"
                ));
            }
            let metric = str_of("metric", &mut errors).unwrap_or_else(|| {
                missing("metric", &mut errors);
                String::new()
            });
            let op = match str_of("op", &mut errors).as_deref() {
                None | Some("gt") => Op::Gt,
                Some("lt") => Op::Lt,
                Some(other) => {
                    errors.push(format!(
                        "alert {name:?}: op must be gt or lt, got {other:?}"
                    ));
                    Op::Gt
                }
            };
            let threshold = num_of("threshold", &mut errors).unwrap_or_else(|| {
                missing("threshold", &mut errors);
                0.0
            });
            Some(AlertKind::Threshold {
                metric,
                op,
                threshold,
            })
        }
        (false, true) => {
            if matches!(declared.as_deref(), Some(k) if k != "burn_rate") {
                errors.push(format!(
                    "alert {name:?}: kind mismatch (keys say burn_rate)"
                ));
            }
            let mut req = |key: &str| {
                str_of(key, &mut errors).unwrap_or_else(|| {
                    missing(key, &mut errors);
                    String::new()
                })
            };
            let bad = req("bad");
            let total = req("total");
            let objective = match num_of("objective", &mut errors) {
                Some(o) if o > 0.0 && o < 1.0 => o,
                Some(o) => {
                    errors.push(format!(
                        "alert {name:?}: objective must be in (0, 1), got {o}"
                    ));
                    0.999
                }
                None => {
                    missing("objective", &mut errors);
                    0.999
                }
            };
            let factor = |key: &str, default: f64, errors: &mut Vec<String>| -> f64 {
                match num_of(key, errors) {
                    Some(v) if v > 0.0 => v,
                    Some(v) => {
                        errors.push(format!("alert {name:?}: {key} must be > 0, got {v}"));
                        default
                    }
                    None => default,
                }
            };
            let fast_burn = factor("fast_burn", DEFAULT_FAST_BURN, &mut errors);
            let slow_burn = factor("slow_burn", DEFAULT_SLOW_BURN, &mut errors);
            Some(AlertKind::BurnRate {
                bad,
                total,
                objective,
                fast_burn,
                slow_burn,
            })
        }
        (false, false) => {
            errors.push(format!(
                "line {start}: alert {name:?} needs either metric/threshold or bad/total keys"
            ));
            None
        }
    };

    match (errors.is_empty(), kind) {
        (true, Some(kind)) => Ok(AlertRule {
            name,
            kind,
            fast_window_s,
            slow_window_s,
        }),
        _ => Err(errors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{Family, Kind, Sample, SampleValue};

    fn gauge_family(name: &str, v: f64) -> Family {
        Family {
            name: name.into(),
            help: "test".into(),
            kind: Kind::Gauge,
            samples: vec![Sample {
                labels: String::new(),
                value: SampleValue::Scalar(v),
                exemplars: Vec::new(),
            }],
        }
    }

    const GOOD: &str = r#"
# Latency SLO for ok traffic.
[[alert]]
name = "p99-latency"
metric = "lat{outcome=\"ok\"}:p99"
op = "gt"
threshold = 5000.0   # µs
fast_window_s = 10
slow_window_s = 60

[[alert]]
name = "shed-burn"
kind = "burn_rate"
bad = "shed:rate"
total = "reqs:rate"
objective = 0.999
"#;

    #[test]
    fn parses_threshold_and_burn_rate_rules() {
        let rules = parse_rules(GOOD).expect("good file parses");
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "p99-latency");
        assert_eq!(rules[0].fast_window_s, 10);
        assert_eq!(
            rules[0].kind,
            AlertKind::Threshold {
                metric: "lat{outcome=\"ok\"}:p99".into(),
                op: Op::Gt,
                threshold: 5000.0,
            }
        );
        assert_eq!(rules[1].fast_window_s, DEFAULT_FAST_WINDOW_S);
        match &rules[1].kind {
            AlertKind::BurnRate {
                objective,
                fast_burn,
                slow_burn,
                ..
            } => {
                assert_eq!(*objective, 0.999);
                assert_eq!(*fast_burn, DEFAULT_FAST_BURN);
                assert_eq!(*slow_burn, DEFAULT_SLOW_BURN);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn parser_reports_every_problem_with_line_numbers() {
        let bad = "\
top_key = 1

[[alert]]
name = \"a\"
metric = \"m\"
threshold = \"high\"
bogus_key = 1

[[alert]]
name = \"b\"
metric = \"m\"
threshold = 1.0

[[alert]]
name = \"b\"
metric = \"m\"
threshold = 2.0

[[misc]]
";
        let errs = parse_rules(bad).unwrap_err();
        let text = errs.join("\n");
        assert!(
            text.contains("line 1: `top_key` outside any [[alert]]"),
            "{text}"
        );
        assert!(
            text.contains("line 6: threshold must be a number"),
            "{text}"
        );
        assert!(text.contains("line 7: unknown key \"bogus_key\""), "{text}");
        assert!(text.contains("duplicate alert name \"b\""), "{text}");
        assert!(text.contains("line 19: unknown table"), "{text}");
    }

    #[test]
    fn parser_rejects_structural_mistakes() {
        assert!(parse_rules("[[alert]]\nname = \"x\"\n").is_err()); // no kind keys
        assert!(parse_rules("[[alert]]\nname = \"x\"\nmetric = \"m\"\nthreshold = 1\nbad = \"b\"\ntotal = \"t\"\nobjective = 0.9\n").is_err()); // mixed kinds
        assert!(parse_rules(
            "[[alert]]\nname = \"x\"\nmetric = \"m\"\nthreshold = 1\nfast_window_s = 600\nslow_window_s = 60\n"
        )
        .is_err()); // fast > slow
        assert!(parse_rules("[[alert]]\nname = \"x\"\nmetric = \"unterminated\n").is_err());
        // Empty file is fine: zero rules.
        assert_eq!(parse_rules("# nothing here\n").unwrap().len(), 0);
    }

    #[test]
    fn a_rejected_key_is_one_error_on_its_line() {
        let threshold =
            |v: &str| format!("[[alert]]\nname = \"x\"\nmetric = \"m\"\nthreshold = {v}\n");
        let burn = |bad: &str, objective: &str| {
            format!(
                "[[alert]]\nname = \"x\"\nbad = {bad}\ntotal = \"t\"\nobjective = {objective}\n"
            )
        };
        for (text, line) in [
            (threshold("nan"), 4),
            (threshold("\"high\""), 4),
            (burn("\"b\"", "inf"), 5),
            (
                "[[alert]]\nname = 5\nmetric = \"m\"\nthreshold = 1\n".to_string(),
                2,
            ),
            (
                "[[alert]]\nname = \"x\"\nmetric = 5\nthreshold = 1\n".to_string(),
                3,
            ),
            (burn("5", "0.99"), 3),
        ] {
            let errs = parse_rules(&text).unwrap_err();
            assert_eq!(errs.len(), 1, "{text:?}: {errs:?}");
            assert!(errs[0].starts_with(&format!("line {line}: ")), "{errs:?}");
        }
    }

    /// Drives a threshold rule through its whole lifecycle with a
    /// synthetic TSDB: 10 s fast / 60 s slow windows over a gauge.
    #[test]
    fn threshold_lifecycle_pending_firing_resolved() {
        let rules = parse_rules(
            "[[alert]]\nname = \"hot\"\nmetric = \"g\"\nthreshold = 100\n\
             fast_window_s = 10\nslow_window_s = 60\n",
        )
        .unwrap();
        let mut set = AlertSet::new(rules);
        let db = Tsdb::new();

        // Calm traffic: no transitions.
        for t in 0..60u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 10.0)], t * 1_000);
        }
        assert!(set.evaluate_at_ms(&db, 59_000).is_empty());
        assert_eq!(set.statuses()[0].state, AlertState::Inactive);

        // Spike to 150: the fast (10 s) window mean crosses
        // immediately; the slow (60 s) window still averages in the
        // calm era (mean ≈ 33) → pending.
        for t in 60..70u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 150.0)], t * 1_000);
        }
        let tr = set.evaluate_at_ms(&db, 69_000);
        assert_eq!(tr.len(), 1);
        assert_eq!(
            (tr[0].from, tr[0].to),
            (AlertState::Inactive, AlertState::Pending)
        );
        assert_eq!(set.firing(), 0);

        // Spike persists long enough for the slow window to cross →
        // firing.
        for t in 70..115u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 150.0)], t * 1_000);
        }
        let tr = set.evaluate_at_ms(&db, 114_000);
        assert_eq!(tr.len(), 1);
        assert_eq!(
            (tr[0].from, tr[0].to),
            (AlertState::Pending, AlertState::Firing)
        );
        assert_eq!(set.firing(), 1);
        let st = &set.statuses()[0];
        assert!(st.fast_value.unwrap() > 100.0 && st.slow_value.unwrap() > 100.0);

        // Recovery: once the fast window drains the alert resolves —
        // and stays resolved (sticky) on later evaluations.
        for t in 115..130u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 10.0)], t * 1_000);
        }
        let tr = set.evaluate_at_ms(&db, 129_000);
        assert_eq!(tr.len(), 1);
        assert_eq!(
            (tr[0].from, tr[0].to),
            (AlertState::Firing, AlertState::Resolved)
        );
        assert!(set.evaluate_at_ms(&db, 130_000).is_empty());
        assert_eq!(set.statuses()[0].state, AlertState::Resolved);
        assert_eq!(set.statuses()[0].since_ms, 129_000);
    }

    #[test]
    fn firing_persists_while_only_the_fast_window_violates() {
        // Once firing, slow-window recovery alone must not resolve.
        let rules = parse_rules(
            "[[alert]]\nname = \"hot\"\nmetric = \"g\"\nthreshold = 100\n\
             fast_window_s = 5\nslow_window_s = 20\n",
        )
        .unwrap();
        let mut set = AlertSet::new(rules);
        let db = Tsdb::new();
        for t in 0..25u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 10_000.0)], t * 1_000);
        }
        set.evaluate_at_ms(&db, 24_000);
        assert_eq!(set.statuses()[0].state, AlertState::Firing);
        // Shape the next era so the slow (20 s) window recovers while
        // the fast (5 s) window still violates: 17 s of silence, then
        // 4 s of a 200-valued burst. At t = 45 s the slow window
        // (25..45) averages (17·0 + 4·200)/21 ≈ 38 < 100 while the
        // fast window (40..45) averages (2·0 + 4·200)/6 ≈ 133 > 100.
        for t in 25..42u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 0.0)], t * 1_000);
        }
        for t in 42..46u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 200.0)], t * 1_000);
        }
        let tr = set.evaluate_at_ms(&db, 45_000);
        assert!(tr.is_empty(), "{tr:?}");
        assert_eq!(set.statuses()[0].state, AlertState::Firing);
        // Only once the fast window drains too does it resolve.
        for t in 46..52u64 {
            db.scrape_families_at_ms(&[gauge_family("g", 0.0)], t * 1_000);
        }
        let tr = set.evaluate_at_ms(&db, 51_000);
        assert_eq!(tr[0].to, AlertState::Resolved);
    }

    #[test]
    fn burn_rate_math_and_missing_data() {
        let rules = parse_rules(
            "[[alert]]\nname = \"burn\"\nbad = \"bad:rate\"\ntotal = \"total:rate\"\n\
             objective = 0.99\nfast_burn = 10\nslow_burn = 5\n\
             fast_window_s = 10\nslow_window_s = 30\n",
        )
        .unwrap();
        let mut set = AlertSet::new(rules);
        let db = Tsdb::new();
        // No data at all: never fires.
        assert!(set.evaluate_at_ms(&db, 1_000).is_empty());
        assert_eq!(set.statuses()[0].fast_value, None);

        // 20 % bad over a 1 % budget = burn 20 → above both factors.
        for t in 0..40u64 {
            db.scrape_families_at_ms(
                &[
                    gauge_family("bad:rate", 20.0),
                    gauge_family("total:rate", 100.0),
                ],
                t * 1_000,
            );
        }
        let tr = set.evaluate_at_ms(&db, 39_000);
        assert_eq!(tr[0].to, AlertState::Firing);
        let st = &set.statuses()[0];
        assert!((st.fast_value.unwrap() - 20.0).abs() < 1e-9);
        assert!((st.slow_value.unwrap() - 20.0).abs() < 1e-9);
    }
}
