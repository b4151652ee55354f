//! Global, thread-safe metrics registry: counters, gauges,
//! fixed-bucket histograms, and per-span wall-clock accounting.
//!
//! Handles are `&'static` references to leaked atomics, so the hot
//! path — `counter!("x").inc()` — is a single relaxed `fetch_add`
//! with no locking; the registry lock is only taken on first lookup
//! per call-site (the `counter!`/`gauge!`/`histogram!` macros cache
//! the handle in a `OnceLock`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;
use crate::rolling::{RollingHistogram, DEFAULT_SLICES};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// `bounds` are the inclusive upper edges of the first `bounds.len()`
/// buckets; one final overflow bucket catches everything above the
/// last bound, so `record` never drops an observation.
#[derive(Debug)]
pub struct HistogramMetric {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Point-in-time view of a [`HistogramMetric`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper edges of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`None` when empty).
    pub min: Option<f64>,
    /// Largest observation (`None` when empty).
    pub max: Option<f64>,
}

impl HistogramMetric {
    /// Creates a standalone (unregistered) histogram with the given
    /// inclusive upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Point-in-time snapshot. Bucket counts are read without a global
    /// lock, so a concurrent `record` may be partially visible; totals
    /// are consistent once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: (count > 0).then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed))),
            max: (count > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed))),
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) estimated from bucket counts:
    /// the upper edge of the bucket containing the `q`-th observation
    /// (clamped to the observed max; `min`/`max` are exact). Returns
    /// `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.snapshot().percentile(q)
    }
}

impl HistogramSnapshot {
    /// See [`HistogramMetric::percentile`].
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min.expect("non-empty"), self.max.expect("non-empty"));
        if q == 0.0 {
            return Some(min);
        }
        // Rank of the target observation, 1-based.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = self.bounds.get(i).copied().unwrap_or(max);
                return Some(edge.clamp(min, max));
            }
        }
        Some(max)
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Wall-clock accounting for one span name.
#[derive(Debug, Default)]
pub struct SpanStats {
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    /// Records one completed span.
    pub fn record_ns(&self, elapsed_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
    }

    /// Number of completed spans.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across completed spans.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single span in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of one span's accounting (see
/// [`Registry::span_snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Dotted span name.
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total nanoseconds across completed spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Geometric bucket bounds `start, start·factor, …` (`n` edges) for
/// histograms over quantities spanning orders of magnitude (latency
/// in ns, makespans in cycles).
pub fn exponential_bounds(start: f64, factor: f64, n: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && n > 0, "bad bucket spec");
    let mut bounds = Vec::with_capacity(n);
    let mut edge = start;
    for _ in 0..n {
        bounds.push(edge);
        edge *= factor;
    }
    bounds
}

/// Canonical label rendering: sorted by key, values escaped the
/// Prometheus way (`\\`, `\"`, `\n`). The empty string means "no
/// labels". Keys are assumed to be valid label names (the callers are
/// code, not user input).
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static HistogramMetric>,
    spans: BTreeMap<String, &'static SpanStats>,
    /// Family name → help text for the Prometheus exposition.
    help: BTreeMap<String, String>,
    /// Family name → canonical label set → counter.
    labeled_counters: BTreeMap<String, BTreeMap<String, &'static Counter>>,
    /// Family name → canonical label set → gauge.
    labeled_gauges: BTreeMap<String, BTreeMap<String, &'static Gauge>>,
    /// Family name → canonical label set → rolling histogram.
    rolling: BTreeMap<String, BTreeMap<String, &'static RollingHistogram>>,
}

/// The process-wide metric namespace.
pub struct Registry {
    state: Mutex<State>,
}

/// The global registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        state: Mutex::new(State::default()),
    })
}

impl Registry {
    /// Finds or creates the counter `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut state = self.state.lock().expect("registry lock");
        if let Some(c) = state.counters.get(name) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::default());
        state.counters.insert(name.to_string(), leaked);
        leaked
    }

    /// Finds or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut state = self.state.lock().expect("registry lock");
        if let Some(g) = state.gauges.get(name) {
            return g;
        }
        let leaked: &'static Gauge = Box::leak(Box::default());
        state.gauges.insert(name.to_string(), leaked);
        leaked
    }

    /// Finds or creates the histogram `name`. The first registration
    /// fixes the bucket bounds; later callers receive the existing
    /// histogram regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> &'static HistogramMetric {
        let mut state = self.state.lock().expect("registry lock");
        if let Some(h) = state.histograms.get(name) {
            return h;
        }
        let leaked: &'static HistogramMetric = Box::leak(Box::new(HistogramMetric::new(bounds)));
        state.histograms.insert(name.to_string(), leaked);
        leaked
    }

    /// Finds or creates span accounting for `name`.
    pub fn span_stats(&self, name: &str) -> &'static SpanStats {
        let mut state = self.state.lock().expect("registry lock");
        if let Some(s) = state.spans.get(name) {
            return s;
        }
        let leaked: &'static SpanStats = Box::leak(Box::default());
        state.spans.insert(name.to_string(), leaked);
        leaked
    }

    /// Registers (or replaces) the help text rendered as this
    /// family's `# HELP` line in the Prometheus exposition. `name` is
    /// the dotted family name (`served.http.requests`), matching what
    /// the metric constructors take.
    pub fn describe(&self, name: &str, help: &str) {
        let mut state = self.state.lock().expect("registry lock");
        state.help.insert(name.to_string(), help.to_string());
    }

    /// Finds or creates the counter `family{labels}`. Counters of one
    /// family share a `# TYPE` line in the exposition and differ only
    /// by label set; the same `(family, labels)` pair always returns
    /// the same handle.
    pub fn labeled_counter(&self, family: &str, labels: &[(&str, &str)]) -> &'static Counter {
        let key = label_key(labels);
        let mut state = self.state.lock().expect("registry lock");
        let slot = state
            .labeled_counters
            .entry(family.to_string())
            .or_default();
        if let Some(c) = slot.get(&key) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::default());
        slot.insert(key, leaked);
        leaked
    }

    /// Finds or creates the gauge `family{labels}`; see
    /// [`labeled_counter`](Self::labeled_counter).
    pub fn labeled_gauge(&self, family: &str, labels: &[(&str, &str)]) -> &'static Gauge {
        let key = label_key(labels);
        let mut state = self.state.lock().expect("registry lock");
        let slot = state.labeled_gauges.entry(family.to_string()).or_default();
        if let Some(g) = slot.get(&key) {
            return g;
        }
        let leaked: &'static Gauge = Box::leak(Box::default());
        slot.insert(key, leaked);
        leaked
    }

    /// Finds or creates the rolling histogram `family{labels}`. The
    /// first registration of a family fixes the bucket bounds and
    /// window; later callers receive the existing histogram regardless
    /// of the spec they pass (same contract as
    /// [`histogram`](Self::histogram)).
    pub fn rolling_histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        window_secs: f64,
    ) -> &'static RollingHistogram {
        let key = label_key(labels);
        let mut state = self.state.lock().expect("registry lock");
        let slot = state.rolling.entry(family.to_string()).or_default();
        if let Some(h) = slot.get(&key) {
            return h;
        }
        let leaked: &'static RollingHistogram = Box::leak(Box::new(RollingHistogram::new(
            bounds,
            window_secs,
            DEFAULT_SLICES,
        )));
        slot.insert(key, leaked);
        leaked
    }

    /// Gathers every registered metric into Prometheus metric
    /// families for [`crate::prom::render`]. Dotted names are
    /// flattened (`served.http.requests` → `served_http_requests`);
    /// plain and labeled metrics of the same family merge into one
    /// family (the unlabeled sample first); spans surface as two
    /// counters, `<name>_calls_total` and `<name>_seconds_total`;
    /// rolling histograms are merged over their current window.
    /// Family help defaults to the dotted name when
    /// [`describe`](Self::describe) was never called.
    pub fn gather(&self) -> Vec<crate::prom::Family> {
        use crate::prom::{Family, Kind, Sample, SampleValue};
        let state = self.state.lock().expect("registry lock");
        let help_of = |dotted: &str| {
            state
                .help
                .get(dotted)
                .cloned()
                .unwrap_or_else(|| format!("accordion metric {dotted}"))
        };
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        let mut push = |name: String, help: String, kind: Kind, sample: Sample| {
            families
                .entry(name.clone())
                .or_insert_with(|| Family {
                    name,
                    help,
                    kind,
                    samples: Vec::new(),
                })
                .samples
                .push(sample);
        };
        for (k, c) in &state.counters {
            push(
                crate::prom::flatten_name(k),
                help_of(k),
                Kind::Counter,
                Sample {
                    labels: String::new(),
                    value: SampleValue::Scalar(c.get() as f64),
                    exemplars: Vec::new(),
                },
            );
        }
        for (k, slot) in &state.labeled_counters {
            for (labels, c) in slot {
                push(
                    crate::prom::flatten_name(k),
                    help_of(k),
                    Kind::Counter,
                    Sample {
                        labels: labels.clone(),
                        value: SampleValue::Scalar(c.get() as f64),
                        exemplars: Vec::new(),
                    },
                );
            }
        }
        for (k, g) in &state.gauges {
            push(
                crate::prom::flatten_name(k),
                help_of(k),
                Kind::Gauge,
                Sample {
                    labels: String::new(),
                    value: SampleValue::Scalar(g.get()),
                    exemplars: Vec::new(),
                },
            );
        }
        for (k, slot) in &state.labeled_gauges {
            for (labels, g) in slot {
                push(
                    crate::prom::flatten_name(k),
                    help_of(k),
                    Kind::Gauge,
                    Sample {
                        labels: labels.clone(),
                        value: SampleValue::Scalar(g.get()),
                        exemplars: Vec::new(),
                    },
                );
            }
        }
        for (k, h) in &state.histograms {
            push(
                crate::prom::flatten_name(k),
                help_of(k),
                Kind::Histogram,
                Sample {
                    labels: String::new(),
                    value: SampleValue::Hist(h.snapshot()),
                    exemplars: Vec::new(),
                },
            );
        }
        for (k, slot) in &state.rolling {
            for (labels, h) in slot {
                push(
                    crate::prom::flatten_name(k),
                    format!("{} (rolling {:.0}s window)", help_of(k), h.window_secs()),
                    Kind::Histogram,
                    Sample {
                        labels: labels.clone(),
                        value: SampleValue::Hist(h.window_snapshot()),
                        exemplars: h.exemplars(),
                    },
                );
            }
        }
        for (k, s) in &state.spans {
            let flat = crate::prom::flatten_name(k);
            push(
                format!("{flat}_calls_total"),
                format!("completed spans of {k}"),
                Kind::Counter,
                Sample {
                    labels: String::new(),
                    value: SampleValue::Scalar(s.calls() as f64),
                    exemplars: Vec::new(),
                },
            );
            push(
                format!("{flat}_seconds_total"),
                format!("wall-clock seconds inside {k}"),
                Kind::Counter,
                Sample {
                    labels: String::new(),
                    value: SampleValue::Scalar(s.total_ns() as f64 / 1e9),
                    exemplars: Vec::new(),
                },
            );
        }
        families.into_values().collect()
    }

    /// Structured view of all span accounting, sorted by name. Feeds
    /// the `repro profile` self/total time tree without going through
    /// the JSON snapshot.
    pub fn span_snapshot(&self) -> Vec<SpanSnapshot> {
        let state = self.state.lock().expect("registry lock");
        state
            .spans
            .iter()
            .map(|(k, s)| SpanSnapshot {
                name: k.clone(),
                calls: s.calls(),
                total_ns: s.total_ns(),
                max_ns: s.max_ns(),
            })
            .collect()
    }

    /// Renders every metric to a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"sim.fault.infected": 12},
    ///   "gauges": {"runtime.clusters": 9},
    ///   "histograms": {"x": {"count": 3, "sum": 1.5, "min": ..., "p50": ...}},
    ///   "spans": {"varius.population.generate": {"calls": 1, "total_ms": 12.3, ...}}
    /// }
    /// ```
    pub fn snapshot_json(&self) -> Json {
        let state = self.state.lock().expect("registry lock");
        let counters = state
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), Json::Num(c.get() as f64)))
            .collect();
        let gauges = state
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), Json::Num(g.get())))
            .collect();
        let histograms = state
            .histograms
            .iter()
            .map(|(k, h)| {
                let s = h.snapshot();
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::Num(s.count as f64)),
                        ("sum", Json::Num(s.sum)),
                        ("min", s.min.map_or(Json::Null, Json::Num)),
                        ("max", s.max.map_or(Json::Null, Json::Num)),
                        ("mean", s.mean().map_or(Json::Null, Json::Num)),
                        ("p50", s.percentile(0.50).map_or(Json::Null, Json::Num)),
                        ("p95", s.percentile(0.95).map_or(Json::Null, Json::Num)),
                        ("p99", s.percentile(0.99).map_or(Json::Null, Json::Num)),
                    ]),
                )
            })
            .collect();
        let spans = state
            .spans
            .iter()
            .map(|(k, s)| {
                let calls = s.calls();
                (
                    k.clone(),
                    Json::obj(vec![
                        ("calls", Json::Num(calls as f64)),
                        ("total_ms", Json::Num(s.total_ns() as f64 / 1e6)),
                        (
                            "mean_ms",
                            if calls > 0 {
                                Json::Num(s.total_ns() as f64 / calls as f64 / 1e6)
                            } else {
                                Json::Null
                            },
                        ),
                        ("max_ms", Json::Num(s.max_ns() as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
            ("spans".to_string(), Json::Obj(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let a = global().counter("test.registry.counter");
        let b = global().counter("test.registry.counter");
        assert!(std::ptr::eq(a, b));
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);

        let g = global().gauge("test.registry.gauge");
        g.set(2.5);
        assert_eq!(global().gauge("test.registry.gauge").get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = HistogramMetric::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(100.0));
        // p50: rank 3 of 5 falls in the (1,2] bucket → edge 2.
        assert_eq!(h.percentile(0.5), Some(2.0));
        // p100 clamps to the observed max.
        assert_eq!(h.percentile(1.0), Some(100.0));
        assert_eq!(h.percentile(0.0), Some(0.5));
    }

    #[test]
    fn empty_histogram_percentile_and_mean_are_none() {
        // Pinned: every statistic on an empty histogram is None —
        // never 0.0, NaN or a panic — for all q including the edges.
        let h = HistogramMetric::new(&[1.0, 2.0, 4.0]);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(s.percentile(q), None, "q={q}");
            assert_eq!(h.percentile(q), None, "q={q}");
        }
        assert_eq!(s.mean(), None);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn single_sample_histogram_statistics() {
        // Pinned: with one observation every percentile collapses to
        // that observation (bucket edges clamp to the observed range).
        let h = HistogramMetric::new(&[1.0, 2.0, 4.0]);
        h.record(3.0);
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(q), Some(3.0), "q={q}");
        }
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.min, Some(3.0));
        assert_eq!(s.max, Some(3.0));
        // Overflow-bucket sample: still clamps to the exact value.
        let h = HistogramMetric::new(&[1.0]);
        h.record(50.0);
        assert_eq!(h.percentile(0.5), Some(50.0));
    }

    #[test]
    fn span_snapshot_is_structured_and_sorted() {
        global().span_stats("test.registry.span.b").record_ns(10);
        global().span_stats("test.registry.span.a").record_ns(20);
        let snap = global().span_snapshot();
        let ours: Vec<_> = snap
            .iter()
            .filter(|s| s.name.starts_with("test.registry.span."))
            .collect();
        assert_eq!(ours.len(), 2);
        assert!(ours[0].name < ours[1].name, "sorted by name");
        assert_eq!(ours[0].calls, 1);
        assert_eq!(ours[0].total_ns, 20);
    }

    #[test]
    fn exponential_bounds_grow() {
        let b = exponential_bounds(1.0, 10.0, 4);
        assert_eq!(b, vec![1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn span_stats_accumulate() {
        let s = SpanStats::default();
        s.record_ns(100);
        s.record_ns(300);
        assert_eq!(s.calls(), 2);
        assert_eq!(s.total_ns(), 400);
        assert_eq!(s.max_ns(), 300);
    }
}
