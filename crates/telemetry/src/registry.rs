//! Global, thread-safe metrics registry: counters, gauges,
//! fixed-bucket histograms, and per-span wall-clock accounting.
//!
//! Handles are `&'static` references to leaked atomics, so the hot
//! path — `counter!("x").inc()` — is a single relaxed `fetch_add`
//! with no locking; the registry lock is only taken on first lookup
//! per call-site (the `counter!`/`gauge!`/`histogram!`/`span!` macros
//! cache the handle in a `OnceLock`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::prom::{escape_label_value, flatten_name, Exemplar, Family, Kind, Sample, SampleValue};

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
/// last bound, so `record` never drops an observation. Every count is
/// cumulative over the histogram's lifetime; windows over it are the
/// TSDB's business ([`crate::tsdb`]).
#[derive(Debug)]
pub struct HistogramMetric {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// The latest exemplar per bucket, allocated by the first
    /// [`record_with_exemplar`](Self::record_with_exemplar).
    exemplars: OnceLock<Mutex<Vec<Option<Exemplar>>>>,
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
            exemplars: OnceLock::new(),
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

    /// Records one observation and makes it its bucket's exemplar:
    /// `labels` is a pre-escaped Prometheus label body (see
    /// [`crate::prom::escape_label_value`]), e.g.
    /// `request_id="42",track="req00000042"`. The latest exemplar of
    /// a bucket wins and stays until the next one replaces it.
    pub fn record_with_exemplar(&self, v: f64, labels: &str) {
        self.record(v);
        let idx = self.bounds.partition_point(|&b| b < v);
        let slots = self
            .exemplars
            .get_or_init(|| Mutex::new(vec![None; self.buckets.len()]));
        slots.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(Exemplar {
            labels: labels.to_string(),
            value: v,
        });
    }

    /// The latest exemplar of each bucket, indexed like the snapshot's
    /// buckets; empty when no exemplar was ever recorded.
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.exemplars.get().map_or_else(Vec::new, |slots| {
            slots.lock().unwrap_or_else(PoisonError::into_inner).clone()
        })
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
        Some(bucket_quantile(
            &self.bounds,
            self.buckets.iter().copied(),
            self.count,
            (min, max),
            q,
        ))
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// The upper edge of the bucket holding the `q`-quantile's
/// observation among `count` spread over `buckets` (laid out over
/// `bounds` plus the overflow bucket), clamped to the observed
/// `(min, max)`; the overflow bucket's edge is `max`.
pub(crate) fn bucket_quantile(
    bounds: &[f64],
    buckets: impl IntoIterator<Item = u64>,
    count: u64,
    (min, max): (f64, f64),
    q: f64,
) -> f64 {
    // Rank of the target observation, 1-based.
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in buckets.into_iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds.get(i).copied().unwrap_or(max).clamp(min, max);
        }
    }
    max
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

/// Wall-clock accounting for one span name. The stats carry their
/// name, so a span site that caches its handle (the [`crate::span!`]
/// macro does) reports to the sinks without a registry lookup.
#[derive(Debug, Default)]
pub struct SpanStats {
    name: String,
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    /// The dotted span name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

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
    let pairs: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    pairs.join(",")
}

/// Family name → canonical label body → handle. An unlabelled metric
/// is the empty label body, which sorts (and renders) first in its
/// family; spans have only that one.
type Families<T> = BTreeMap<String, BTreeMap<String, &'static T>>;

#[derive(Default)]
struct State {
    counters: Families<Counter>,
    gauges: Families<Gauge>,
    histograms: Families<HistogramMetric>,
    spans: Families<SpanStats>,
    /// Family name → help text for the Prometheus exposition.
    help: BTreeMap<String, String>,
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
    /// The registry state. Nothing panics while holding it (metric
    /// constructors run outside it), and every mutation is a single
    /// map insert, so a poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Finds or creates `family{labels}` in the map `kind` selects; the
    /// same pair always returns the same handle. `make` runs without
    /// the lock, so a constructor rejecting its arguments panics
    /// without poisoning the registry.
    fn lookup<T>(
        &self,
        kind: fn(&mut State) -> &mut Families<T>,
        family: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> T,
    ) -> &'static T {
        let key = label_key(labels);
        if let Some(found) = kind(&mut self.lock())
            .get(family)
            .and_then(|slot| slot.get(&key).copied())
        {
            return found;
        }
        let made = make();
        let mut state = self.lock();
        let slot = kind(&mut state).entry(family.to_string()).or_default();
        slot.entry(key).or_insert_with(|| Box::leak(Box::new(made)))
    }

    /// Finds or creates the counter `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        self.labeled_counter(name, &[])
    }

    /// Finds or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        self.labeled_gauge(name, &[])
    }

    /// Finds or creates the histogram `name`; see
    /// [`labeled_histogram`](Self::labeled_histogram).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> &'static HistogramMetric {
        self.labeled_histogram(name, &[], bounds)
    }

    /// Finds or creates span accounting for `name`.
    pub fn span_stats(&self, name: &str) -> &'static SpanStats {
        self.lookup(
            |s| &mut s.spans,
            name,
            &[],
            || SpanStats {
                name: name.to_string(),
                ..SpanStats::default()
            },
        )
    }

    /// Registers (or replaces) the help text rendered as this
    /// family's `# HELP` line in the Prometheus exposition. `name` is
    /// the dotted family name (`served.http.requests`), matching what
    /// the metric constructors take.
    pub fn describe(&self, name: &str, help: &str) {
        self.lock().help.insert(name.to_string(), help.to_string());
    }

    /// Finds or creates the counter `family{labels}`. Counters of one
    /// family share a `# TYPE` line in the exposition and differ only
    /// by label set; no labels is the plain [`counter`](Self::counter).
    pub fn labeled_counter(&self, family: &str, labels: &[(&str, &str)]) -> &'static Counter {
        self.lookup(|s| &mut s.counters, family, labels, Counter::default)
    }

    /// Finds or creates the gauge `family{labels}`; see
    /// [`labeled_counter`](Self::labeled_counter).
    pub fn labeled_gauge(&self, family: &str, labels: &[(&str, &str)]) -> &'static Gauge {
        self.lookup(|s| &mut s.gauges, family, labels, Gauge::default)
    }

    /// Finds or creates the histogram `family{labels}`. The first
    /// registration of a `(family, labels)` pair fixes its bucket
    /// bounds (rejecting bad ones as [`HistogramMetric::new`] does);
    /// later callers receive the existing histogram regardless of the
    /// bounds they pass.
    pub fn labeled_histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> &'static HistogramMetric {
        self.lookup(
            |s| &mut s.histograms,
            family,
            labels,
            || HistogramMetric::new(bounds),
        )
    }

    /// Gathers every registered metric into Prometheus metric
    /// families — the one walk behind `/metrics` ([`crate::prom`]),
    /// the TSDB and the run manifest. Dotted names are flattened
    /// (`served.http.requests` → `served_http_requests`); plain and
    /// labelled metrics of one family share it (the unlabelled sample
    /// first); spans surface as two counters, `<name>_calls_total` and
    /// `<name>_seconds_total`. Family help defaults to the dotted name
    /// when [`describe`](Self::describe) was never called.
    pub fn gather(&self) -> Vec<Family> {
        let state = self.lock();
        let help_of = |dotted: &str| {
            state
                .help
                .get(dotted)
                .cloned()
                .unwrap_or_else(|| format!("accordion metric {dotted}"))
        };
        let mut out: BTreeMap<String, Family> = BTreeMap::new();
        for (k, slot) in &state.counters {
            family(&mut out, flatten_name(k), || help_of(k), Kind::Counter).extend(
                slot.iter()
                    .map(|(labels, c)| scalar(labels, c.get() as f64)),
            );
        }
        for (k, slot) in &state.gauges {
            family(&mut out, flatten_name(k), || help_of(k), Kind::Gauge)
                .extend(slot.iter().map(|(labels, g)| scalar(labels, g.get())));
        }
        for (k, slot) in &state.histograms {
            family(&mut out, flatten_name(k), || help_of(k), Kind::Histogram).extend(
                slot.iter().map(|(labels, h)| Sample {
                    labels: labels.clone(),
                    value: SampleValue::Hist(h.snapshot()),
                    exemplars: h.exemplars(),
                }),
            );
        }
        for (k, slot) in &state.spans {
            for s in slot.values() {
                let flat = flatten_name(k);
                for (series, help, v) in [
                    ("calls", format!("completed spans of {k}"), s.calls() as f64),
                    (
                        "seconds",
                        format!("wall-clock seconds inside {k}"),
                        s.total_ns() as f64 / 1e9,
                    ),
                ] {
                    family(
                        &mut out,
                        format!("{flat}_{series}_total"),
                        || help,
                        Kind::Counter,
                    )
                    .push(scalar("", v));
                }
            }
        }
        out.into_values().collect()
    }

    /// Structured view of all span accounting, sorted by name. Feeds
    /// the `repro profile` self/total time tree.
    pub fn span_snapshot(&self) -> Vec<SpanSnapshot> {
        self.lock()
            .spans
            .values()
            .flat_map(BTreeMap::values)
            .map(|s| SpanSnapshot {
                name: s.name.clone(),
                calls: s.calls(),
                total_ns: s.total_ns(),
                max_ns: s.max_ns(),
            })
            .collect()
    }
}

/// The samples of the gathered family `name`, created with `help` and
/// `kind` on first use. Registry names that flatten alike share one
/// family.
fn family(
    out: &mut BTreeMap<String, Family>,
    name: String,
    help: impl FnOnce() -> String,
    kind: Kind,
) -> &mut Vec<Sample> {
    &mut out
        .entry(name.clone())
        .or_insert_with(|| Family {
            name,
            help: help(),
            kind,
            samples: Vec::new(),
        })
        .samples
}

/// An unexemplared counter or gauge sample.
fn scalar(labels: &str, v: f64) -> Sample {
    Sample {
        labels: labels.to_string(),
        value: SampleValue::Scalar(v),
        exemplars: Vec::new(),
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
    fn exemplars_keep_the_latest_per_bucket() {
        let h = HistogramMetric::new(&[1.0, 10.0, 100.0]);
        assert!(h.exemplars().is_empty(), "no slots before the first");
        h.record_with_exemplar(0.5, "request_id=\"1\"");
        h.record_with_exemplar(0.7, "request_id=\"2\"");
        h.record_with_exemplar(50.0, "request_id=\"3\"");
        h.record(5.0);
        let ex = h.exemplars();
        // Bucket 0 (≤1.0): latest wins.
        assert_eq!(
            ex[0],
            Some(Exemplar {
                labels: "request_id=\"2\"".into(),
                value: 0.7
            })
        );
        assert_eq!(ex[2].as_ref().map(|e| e.value), Some(50.0));
        // A plain record takes no exemplar; the overflow bucket saw none.
        assert!(ex[1].is_none() && ex[3].is_none());
        assert_eq!(h.snapshot().buckets, vec![2, 1, 1, 0]);
    }

    #[test]
    fn exemplar_slots_follow_the_bucket_layout() {
        let h = HistogramMetric::new(&[1.0, 10.0, 100.0]);
        h.record_with_exemplar(3.0, "t=\"x\"");
        let ex = h.exemplars();
        assert_eq!(ex.len(), 4, "3 bounds + overflow");
        assert_eq!(ex[1].as_ref().map(|e| e.value), Some(3.0));
        h.record_with_exemplar(500.0, "t=\"y\"");
        assert_eq!(h.exemplars()[3].as_ref().map(|e| e.value), Some(500.0));
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

    #[test]
    fn a_rejected_registration_leaves_the_registry_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let reg = Registry {
            state: Mutex::new(State::default()),
        };
        // Constructor assertions fire without the registry lock held,
        // so the rejection does not poison it.
        let bad_bounds = catch_unwind(AssertUnwindSafe(|| {
            reg.histogram("reject.bounds", &[2.0, 1.0])
        }));
        assert!(bad_bounds.is_err());
        reg.counter("reject.after").inc();
        assert_eq!(reg.counter("reject.after").get(), 1);
        reg.histogram("reject.bounds", &[1.0, 2.0]).record(1.5);
        let text = crate::prom::render_families(&reg.gather());
        assert!(text.contains("reject_bounds_count 1\n"), "{text}");
        assert!(text.contains("reject_after_total 1\n"), "{text}");
    }

    /// The exposition bytes of a registry holding every metric shape:
    /// plain and labelled samples of one family, histograms, a span
    /// and help texts. Any change to how the registry stores or walks
    /// its metrics must leave these bytes alone.
    #[test]
    fn exposition_bytes_are_pinned() {
        let reg = Registry {
            state: Mutex::new(State::default()),
        };
        reg.describe("pin.requests", "requests answered");
        reg.labeled_counter("pin.requests", &[("outcome", "shed")])
            .add(2);
        reg.counter("pin.requests").add(3);
        reg.labeled_counter("pin.requests", &[("outcome", "ok")])
            .inc();
        reg.counter("pin.errors").inc();
        reg.gauge("pin.depth").set(2.5);
        reg.labeled_gauge("pin.depth", &[("queue", "jobs"), ("kind", "a\"b")])
            .set(-1.0);
        reg.labeled_gauge("pin.info", &[("version", "1")]).set(1.0);
        let h = reg.histogram("pin.latency_us", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        reg.describe("pin.window_us", "windowed latency");
        reg.labeled_histogram("pin.window_us", &[("outcome", "ok")], &[1.0, 10.0])
            .record_with_exemplar(4.0, "request_id=\"7\"");
        reg.span_stats("pin.span").record_ns(1_500_000_000);
        assert_eq!(
            crate::prom::render_families(&reg.gather()),
            concat!(
                "# HELP pin_depth accordion metric pin.depth\n",
                "# TYPE pin_depth gauge\n",
                "pin_depth 2.5\n",
                "pin_depth{kind=\"a\\\"b\",queue=\"jobs\"} -1\n",
                "# HELP pin_errors_total accordion metric pin.errors\n",
                "# TYPE pin_errors_total counter\n",
                "pin_errors_total 1\n",
                "# HELP pin_info accordion metric pin.info\n",
                "# TYPE pin_info gauge\n",
                "pin_info{version=\"1\"} 1\n",
                "# HELP pin_latency_us accordion metric pin.latency_us\n",
                "# TYPE pin_latency_us histogram\n",
                "pin_latency_us_bucket{le=\"1\"} 1\n",
                "pin_latency_us_bucket{le=\"10\"} 2\n",
                "pin_latency_us_bucket{le=\"100\"} 3\n",
                "pin_latency_us_bucket{le=\"+Inf\"} 4\n",
                "pin_latency_us_sum 555.5\n",
                "pin_latency_us_count 4\n",
                "# HELP pin_requests_total requests answered\n",
                "# TYPE pin_requests_total counter\n",
                "pin_requests_total 3\n",
                "pin_requests_total{outcome=\"ok\"} 1\n",
                "pin_requests_total{outcome=\"shed\"} 2\n",
                "# HELP pin_span_calls_total completed spans of pin.span\n",
                "# TYPE pin_span_calls_total counter\n",
                "pin_span_calls_total 1\n",
                "# HELP pin_span_seconds_total wall-clock seconds inside pin.span\n",
                "# TYPE pin_span_seconds_total counter\n",
                "pin_span_seconds_total 1.5\n",
                "# HELP pin_window_us windowed latency\n",
                "# TYPE pin_window_us histogram\n",
                "pin_window_us_bucket{outcome=\"ok\",le=\"1\"} 0\n",
                "pin_window_us_bucket{outcome=\"ok\",le=\"10\"} 1 # {request_id=\"7\"} 4\n",
                "pin_window_us_bucket{outcome=\"ok\",le=\"+Inf\"} 1\n",
                "pin_window_us_sum{outcome=\"ok\"} 4\n",
                "pin_window_us_count{outcome=\"ok\"} 1\n",
            )
        );
    }
}
