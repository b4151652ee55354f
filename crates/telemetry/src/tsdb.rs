//! Fixed-memory ring-buffer time-series store over the prom registry.
//!
//! A [`Tsdb`] turns the point-in-time exposition of
//! [`crate::registry`] into *history*: a self-scrape loop (the one
//! `repro serve` runs) calls [`Tsdb::scrape`] every N ms, and each
//! scrape folds the gathered families into per-series ring buffers —
//! counters as per-second rates (finite-difference against the
//! previous scrape), gauges as raw values, histograms as p50/p99
//! quantiles of their recent observations plus a count rate. Three
//! downsampling tiers (1 s / 10 s / 1 m slots, [`SLOTS_PER_TIER`]
//! slots each) cover six minutes, one hour and six hours of history in
//! a fixed memory footprint; [`Tsdb::query`] picks the finest tier
//! that spans the requested range.
//!
//! # Series naming
//!
//! Series ids are derived from the on-the-wire metric name (see
//! [`crate::prom::rendered_name`]) plus the sample's canonical label
//! body and a derivation suffix:
//!
//! * counter `served_http_requests_total{outcome="ok"}` →
//!   `served_http_requests_total{outcome="ok"}:rate`
//! * gauge `served_queue_depth` → `served_queue_depth`
//! * histogram `served_http_latency_us` →
//!   `served_http_latency_us:p50`, `…:p99`, `…:rate` (count rate)
//!
//! # The quantile window
//!
//! The registry's histograms are cumulative, so this store is the one
//! place that windows them. For each histogram sample it keeps two
//! cumulative bucket snapshots, `older` and `newer`; the first scrape
//! seeds both. A scrape that finds `newer` at least one finest-tier
//! slot (1 s) old moves it to `older` and stores the current buckets
//! as `newer`. `:p50` and `:p99` are the quantiles of the increments
//! `current − older`: the last one to two seconds at a 25 ms scrape,
//! the last interval at the default 1 s one. The estimate is the
//! lifetime one — the upper edge of the bucket holding the rank,
//! clamped to the histogram's min and max. A window without
//! observations pushes no point, so missing data never pages, and a
//! bucket that falls (a restarted process) restarts the baseline
//! without one, as a counter reset does for `:rate`.
//!
//! # Determinism
//!
//! The wall clock is injected: the scrape and query cores take
//! milliseconds-since-start and the convenience wrappers read the
//! store's own monotonic clock. Tests drive
//! [`Tsdb::scrape_families_at_ms`] with synthetic families and
//! timestamps and get bit-exact series.

use crate::prom::{rendered_name, Family, Kind, SampleValue};
use crate::registry::{bucket_quantile, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Slot length in seconds for each downsampling tier.
pub const TIER_SECS: [u64; 3] = [1, 10, 60];

/// Ring capacity of every tier.
pub const SLOTS_PER_TIER: usize = 360;

/// Hard cap on distinct series; scrapes drop samples for new series
/// beyond it (counted in [`Tsdb::dropped_series`]) so a label-cardinality
/// explosion cannot grow the store without bound.
pub const MAX_SERIES: usize = 1024;

/// Sentinel slot bucket meaning "never written".
const EMPTY: u32 = u32::MAX;

/// One downsampled point: the slot's start time and the mean of the
/// samples that landed in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Slot start, milliseconds since the store's creation.
    pub t_ms: u64,
    /// Mean of the samples folded into the slot.
    pub value: f64,
}

/// A [`Tsdb::query`] answer: the tier that served it plus its points.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The series id queried.
    pub metric: String,
    /// Slot length of the tier that answered, seconds.
    pub tier_secs: u64,
    /// Points inside the range, oldest first.
    pub points: Vec<Point>,
}

/// One ring slot: absolute slot index plus a running mean. Every
/// series holds `3 × SLOTS_PER_TIER` slots, so the index is a `u32`
/// (136 years of 1 s slots) to keep a slot at 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    bucket: u32,
    count: u32,
    sum: f64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

struct Tier {
    secs: u64,
    slots: Vec<Slot>,
}

impl Tier {
    fn new(secs: u64) -> Self {
        Self {
            secs,
            slots: vec![
                Slot {
                    bucket: EMPTY,
                    count: 0,
                    sum: 0.0,
                };
                SLOTS_PER_TIER
            ],
        }
    }

    fn push(&mut self, t_ms: u64, v: f64) {
        let Some(bucket) = u32::try_from(t_ms / (self.secs * 1000))
            .ok()
            .filter(|&b| b != EMPTY)
        else {
            return; // past the slot index range
        };
        let slot = &mut self.slots[(bucket as usize) % SLOTS_PER_TIER];
        if slot.bucket != bucket {
            if slot.bucket != EMPTY && slot.bucket > bucket {
                return; // older than the whole ring
            }
            *slot = Slot {
                bucket,
                count: 0,
                sum: 0.0,
            };
        }
        slot.sum += v;
        slot.count += 1;
    }

    /// Points in `[now_ms - range_ms, now_ms]`, oldest first.
    fn collect(&self, now_ms: u64, range_ms: u64) -> Vec<Point> {
        let slot_ms = self.secs * 1000;
        let now_bucket = now_ms / slot_ms;
        let from_bucket = now_ms.saturating_sub(range_ms) / slot_ms;
        let mut out: Vec<Point> = self
            .slots
            .iter()
            .filter(|s| {
                let b = u64::from(s.bucket);
                s.bucket != EMPTY && b >= from_bucket && b <= now_bucket
            })
            .map(|s| Point {
                t_ms: u64::from(s.bucket) * slot_ms,
                value: s.sum / s.count as f64,
            })
            .collect();
        out.sort_by_key(|p| p.t_ms);
        out
    }
}

struct Series {
    tiers: Vec<Tier>,
    /// Previous raw cumulative value + stamp, for rate derivation.
    prev_raw: Option<(u64, f64)>,
}

impl Series {
    fn new() -> Self {
        Self {
            tiers: TIER_SECS.iter().map(|&s| Tier::new(s)).collect(),
            prev_raw: None,
        }
    }

    fn push(&mut self, t_ms: u64, v: f64) {
        for tier in &mut self.tiers {
            tier.push(t_ms, v);
        }
    }

    /// Folds a cumulative reading into a per-second rate point; the
    /// first scrape only seeds the baseline. Counter resets (value
    /// going backwards) restart the baseline without a negative spike.
    fn push_rate(&mut self, t_ms: u64, raw: f64) {
        if let Some((prev_t, prev_v)) = self.prev_raw {
            if t_ms > prev_t && raw >= prev_v {
                let rate = (raw - prev_v) / ((t_ms - prev_t) as f64 / 1000.0);
                self.push(t_ms, rate);
            }
        }
        self.prev_raw = Some((t_ms, raw));
    }
}

/// One histogram sample's quantile baseline: the two cumulative bucket
/// snapshots of the window rule (module docs).
struct Baseline {
    older: Vec<u64>,
    newer: Vec<u64>,
    newer_ms: u64,
}

impl Baseline {
    fn seed(buckets: &[u64], now_ms: u64) -> Self {
        Self {
            older: buckets.to_vec(),
            newer: buckets.to_vec(),
            newer_ms: now_ms,
        }
    }

    /// Folds the cumulative `h` read at `now_ms` into the baseline and
    /// returns its `(p50, p99)` over the window, or `None` when the
    /// window holds no observation or a bucket fell (which reseeds).
    fn advance(&mut self, h: &HistogramSnapshot, now_ms: u64) -> Option<(f64, f64)> {
        let fell = h.buckets.len() != self.newer.len()
            || h.buckets.iter().zip(&self.newer).any(|(c, n)| c < n);
        if fell {
            *self = Self::seed(&h.buckets, now_ms);
            return None;
        }
        if now_ms.saturating_sub(self.newer_ms) >= TIER_SECS[0] * 1000 {
            std::mem::swap(&mut self.older, &mut self.newer);
            self.newer.copy_from_slice(&h.buckets);
            self.newer_ms = now_ms;
        }
        let increments = || h.buckets.iter().zip(&self.older).map(|(c, o)| c - o);
        let count: u64 = increments().sum();
        // A read torn by a histogram's first record can show a bucket
        // before its min and max.
        let range = h
            .min
            .zip(h.max)
            .filter(|(min, max)| count > 0 && min <= max)?;
        let q = |q| bucket_quantile(&h.bounds, increments(), count, range, q);
        Some((q(0.50), q(0.99)))
    }
}

#[derive(Default)]
struct TsdbState {
    series: BTreeMap<String, Series>,
    /// Histogram sample id (`name{labels}`) → its quantile baseline.
    baselines: BTreeMap<String, Baseline>,
    scrapes: u64,
    dropped_series: u64,
}

impl TsdbState {
    fn series_mut(&mut self, id: &str) -> Option<&mut Series> {
        if !self.series.contains_key(id) {
            if self.series.len() >= MAX_SERIES {
                self.dropped_series += 1;
                return None;
            }
            self.series.insert(id.to_string(), Series::new());
        }
        self.series.get_mut(id)
    }
}

/// The store: create once, scrape periodically, query freely.
pub struct Tsdb {
    state: Mutex<TsdbState>,
    start: Instant,
}

impl Default for Tsdb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tsdb {
    /// Creates an empty store; its clock starts now.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(TsdbState::default()),
            start: Instant::now(),
        }
    }

    /// Milliseconds since the store was created.
    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Scrapes the registry at the store's own clock.
    pub fn scrape(&self, registry: &crate::registry::Registry) {
        self.scrape_families_at_ms(&registry.gather(), self.now_ms());
    }

    /// Folds one gathered exposition into the store at `now_ms`. This
    /// is the deterministic core: identical families and stamps yield
    /// identical series.
    pub fn scrape_families_at_ms(&self, families: &[Family], now_ms: u64) {
        let mut state = self.state.lock().expect("tsdb lock");
        state.scrapes += 1;
        for fam in families {
            let base = rendered_name(fam);
            for sample in &fam.samples {
                let tagged = |suffix: &str| series_id(&base, &sample.labels, suffix);
                match (&sample.value, fam.kind) {
                    (SampleValue::Scalar(v), Kind::Counter) => {
                        if let Some(s) = state.series_mut(&tagged(":rate")) {
                            s.push_rate(now_ms, *v);
                        }
                    }
                    (SampleValue::Scalar(v), _) => {
                        if let Some(s) = state.series_mut(&tagged("")) {
                            s.push(now_ms, *v);
                        }
                    }
                    (SampleValue::Hist(h), _) => {
                        let id = tagged("");
                        let quantiles = match state.baselines.get_mut(&id) {
                            Some(baseline) => baseline.advance(h, now_ms),
                            None => {
                                if state.baselines.len() < MAX_SERIES {
                                    state
                                        .baselines
                                        .insert(id, Baseline::seed(&h.buckets, now_ms));
                                }
                                None
                            }
                        };
                        if let Some((p50, p99)) = quantiles {
                            for (suffix, v) in [(":p50", p50), (":p99", p99)] {
                                if let Some(s) = state.series_mut(&tagged(suffix)) {
                                    s.push(now_ms, v);
                                }
                            }
                        }
                        if let Some(s) = state.series_mut(&tagged(":rate")) {
                            s.push_rate(now_ms, h.count as f64);
                        }
                    }
                }
            }
        }
    }

    /// Points of `metric` over the trailing `range_secs`, from the
    /// finest tier that spans the range, at the store's clock.
    pub fn query(&self, metric: &str, range_secs: u64) -> QueryResult {
        self.query_at_ms(metric, range_secs, self.now_ms())
    }

    /// [`query`](Self::query) with an injected clock. Unknown metrics
    /// yield an empty point set (the id may simply not have data yet).
    /// A range longer than any tier spans (up to `u64::MAX` seconds) is
    /// answered by the coarsest tier.
    pub fn query_at_ms(&self, metric: &str, range_secs: u64, now_ms: u64) -> QueryResult {
        let state = self.state.lock().expect("tsdb lock");
        let tier_idx = TIER_SECS
            .iter()
            .position(|&s| s * SLOTS_PER_TIER as u64 >= range_secs)
            .unwrap_or(TIER_SECS.len() - 1);
        let (tier_secs, points) = match state.series.get(metric) {
            Some(series) => {
                let tier = &series.tiers[tier_idx];
                (
                    tier.secs,
                    tier.collect(now_ms, range_secs.saturating_mul(1000)),
                )
            }
            None => (TIER_SECS[tier_idx], Vec::new()),
        };
        QueryResult {
            metric: metric.to_string(),
            tier_secs,
            points,
        }
    }

    /// Mean of `metric` over the trailing `window_secs` (`None` when
    /// the window holds no points). The alert evaluator's primitive.
    pub fn window_mean_at_ms(&self, metric: &str, window_secs: u64, now_ms: u64) -> Option<f64> {
        let r = self.query_at_ms(metric, window_secs, now_ms);
        if r.points.is_empty() {
            return None;
        }
        Some(r.points.iter().map(|p| p.value).sum::<f64>() / r.points.len() as f64)
    }

    /// Every known series id, sorted. Answers a `/v1/timeseries` call
    /// without a `metric` parameter.
    pub fn series_ids(&self) -> Vec<String> {
        let state = self.state.lock().expect("tsdb lock");
        state.series.keys().cloned().collect()
    }

    /// Number of scrapes folded in so far.
    pub fn scrapes(&self) -> u64 {
        self.state.lock().expect("tsdb lock").scrapes
    }

    /// Samples dropped because [`MAX_SERIES`] was reached.
    pub fn dropped_series(&self) -> u64 {
        self.state.lock().expect("tsdb lock").dropped_series
    }
}

/// Builds a series id: `name{labels}suffix` (no braces when the label
/// body is empty).
fn series_id(base: &str, labels: &str, suffix: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{{{labels}}}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{Kind, Sample, SampleValue};

    fn counter_family(name: &str, v: f64) -> Family {
        Family {
            name: name.into(),
            help: "test".into(),
            kind: Kind::Counter,
            samples: vec![Sample {
                labels: String::new(),
                value: SampleValue::Scalar(v),
                exemplars: Vec::new(),
            }],
        }
    }

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

    fn hist_family(name: &str, labels: &str, buckets: Vec<u64>) -> Family {
        let count = buckets.iter().sum();
        Family {
            name: name.into(),
            help: "test".into(),
            kind: Kind::Histogram,
            samples: vec![Sample {
                labels: labels.into(),
                value: SampleValue::Hist(HistogramSnapshot {
                    bounds: vec![1.0, 10.0, 100.0],
                    buckets,
                    count,
                    sum: 1.0,
                    min: (count > 0).then_some(0.5),
                    max: (count > 0).then_some(90.0),
                }),
                exemplars: Vec::new(),
            }],
        }
    }

    #[test]
    fn counters_become_rates() {
        let db = Tsdb::new();
        db.scrape_families_at_ms(&[counter_family("reqs", 100.0)], 1_000);
        db.scrape_families_at_ms(&[counter_family("reqs", 300.0)], 2_000);
        db.scrape_families_at_ms(&[counter_family("reqs", 400.0)], 3_000);
        let r = db.query_at_ms("reqs_total:rate", 60, 3_000);
        assert_eq!(r.tier_secs, 1);
        // First scrape seeds the baseline; two rate points follow.
        let vals: Vec<f64> = r.points.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![200.0, 100.0]);
    }

    #[test]
    fn counter_reset_restarts_the_baseline() {
        let db = Tsdb::new();
        db.scrape_families_at_ms(&[counter_family("reqs", 500.0)], 1_000);
        db.scrape_families_at_ms(&[counter_family("reqs", 10.0)], 2_000); // reset
        db.scrape_families_at_ms(&[counter_family("reqs", 20.0)], 3_000);
        let vals: Vec<f64> = db
            .query_at_ms("reqs_total:rate", 60, 3_000)
            .points
            .iter()
            .map(|p| p.value)
            .collect();
        // No negative spike from the reset; only the post-reset delta.
        assert_eq!(vals, vec![10.0]);
    }

    #[test]
    fn gauges_store_raw_values_and_downsample() {
        let db = Tsdb::new();
        // Two samples inside one 1 s slot average; a third lands in
        // the next slot.
        db.scrape_families_at_ms(&[gauge_family("depth", 4.0)], 100);
        db.scrape_families_at_ms(&[gauge_family("depth", 6.0)], 900);
        db.scrape_families_at_ms(&[gauge_family("depth", 9.0)], 1_100);
        let r = db.query_at_ms("depth", 60, 1_200);
        assert_eq!(
            r.points,
            vec![
                Point {
                    t_ms: 0,
                    value: 5.0
                },
                Point {
                    t_ms: 1_000,
                    value: 9.0
                },
            ]
        );
    }

    #[test]
    fn histograms_derive_quantiles_and_count_rate() {
        let db = Tsdb::new();
        let labels = "outcome=\"ok\"";
        db.scrape_families_at_ms(&[hist_family("lat", labels, vec![0, 0, 0, 0])], 1_000);
        db.scrape_families_at_ms(&[hist_family("lat", labels, vec![90, 9, 1, 0])], 2_000);
        let p50 = db.query_at_ms("lat{outcome=\"ok\"}:p50", 60, 2_000);
        let p99 = db.query_at_ms("lat{outcome=\"ok\"}:p99", 60, 2_000);
        let rate = db.query_at_ms("lat{outcome=\"ok\"}:rate", 60, 2_000);
        assert_eq!(p50.points.last().unwrap().value, 1.0);
        assert_eq!(p99.points.last().unwrap().value, 10.0);
        // Count went 0 → 100 over one second.
        assert_eq!(rate.points.last().unwrap().value, 100.0);
        // The empty first snapshot contributed no quantile points.
        assert_eq!(p50.points.len(), 1);
    }

    fn values(db: &Tsdb, id: &str, now_ms: u64) -> Vec<(u64, f64)> {
        db.query_at_ms(id, 60, now_ms)
            .points
            .iter()
            .map(|p| (p.t_ms, p.value))
            .collect()
    }

    #[test]
    fn a_slow_observation_leaves_p99_within_two_seconds() {
        let db = Tsdb::new();
        // Ten fast observations before every 250 ms scrape, and one
        // slow one (in the 100 bucket, clamped to max 90) before the
        // scrape at 250 ms.
        let mut buckets = vec![0, 0, 0, 0];
        for step in 0..16u64 {
            if step > 0 {
                buckets[0] += 10;
            }
            if step == 1 {
                buckets[2] += 1;
            }
            db.scrape_families_at_ms(&[hist_family("lat", "", buckets.clone())], step * 250);
        }
        // The rotation at 1 s keeps the slow observation in `older`'s
        // window; the one at 2 s, 1.75 s after it, drops it. Fast
        // traffic keeps every later slot filled.
        assert_eq!(
            values(&db, "lat:p99", 3_750),
            vec![(0, 90.0), (1_000, 90.0), (2_000, 1.0), (3_000, 1.0)]
        );
        assert_eq!(values(&db, "lat:p50", 3_750).len(), 4);
    }

    #[test]
    fn an_idle_scrape_pushes_no_quantile_and_a_zero_rate() {
        let db = Tsdb::new();
        let idle = || [hist_family("lat", "", vec![5, 0, 0, 0])];
        db.scrape_families_at_ms(&idle(), 0);
        db.scrape_families_at_ms(&idle(), 1_000);
        db.scrape_families_at_ms(&idle(), 1_500);
        assert!(values(&db, "lat:p50", 1_500).is_empty());
        assert!(values(&db, "lat:p99", 1_500).is_empty());
        assert_eq!(values(&db, "lat:rate", 1_500), vec![(1_000, 0.0)]);
        // The next observation brings the quantiles back.
        db.scrape_families_at_ms(&[hist_family("lat", "", vec![5, 1, 0, 0])], 2_000);
        assert_eq!(values(&db, "lat:p50", 2_000), vec![(2_000, 10.0)]);
    }

    #[test]
    fn a_falling_bucket_restarts_the_baseline() {
        let db = Tsdb::new();
        let scrape = |buckets: Vec<u64>, t_ms| {
            db.scrape_families_at_ms(&[hist_family("lat", "", buckets)], t_ms);
        };
        scrape(vec![50, 0, 0, 0], 0);
        scrape(vec![60, 0, 0, 0], 1_000);
        scrape(vec![0, 3, 0, 0], 2_000); // the process restarted
        scrape(vec![0, 5, 0, 0], 3_000);
        // No point at the reset; afterwards only the post-reset
        // increments count.
        assert_eq!(
            values(&db, "lat:p50", 3_000),
            vec![(1_000, 1.0), (3_000, 10.0)]
        );
        assert_eq!(
            values(&db, "lat:rate", 3_000),
            vec![(1_000, 10.0), (3_000, 2.0)]
        );
    }

    #[test]
    fn query_picks_the_finest_covering_tier() {
        let db = Tsdb::new();
        for t in 0..10 {
            db.scrape_families_at_ms(&[gauge_family("g", t as f64)], t * 1_000);
        }
        assert_eq!(db.query_at_ms("g", 60, 10_000).tier_secs, 1);
        assert_eq!(db.query_at_ms("g", 360, 10_000).tier_secs, 1);
        assert_eq!(db.query_at_ms("g", 361, 10_000).tier_secs, 10);
        assert_eq!(db.query_at_ms("g", 3_600, 10_000).tier_secs, 10);
        assert_eq!(db.query_at_ms("g", 3_601, 10_000).tier_secs, 60);
        // Way beyond the coarsest tier's span: still answered by it.
        assert_eq!(db.query_at_ms("g", 1_000_000, 10_000).tier_secs, 60);
        // The 10 s tier folded all ten samples into one slot.
        let r = db.query_at_ms("g", 3_600, 10_000);
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].value, 4.5);
    }

    #[test]
    fn rings_wrap_and_old_points_fall_out() {
        let db = Tsdb::new();
        // 400 seconds of 1 Hz gauge samples: the 1 s tier (360 slots)
        // must hold only the newest 360.
        for t in 0..400u64 {
            db.scrape_families_at_ms(&[gauge_family("g", t as f64)], t * 1_000);
        }
        let r = db.query_at_ms("g", 360, 399_000);
        assert_eq!(r.points.len(), 360);
        assert_eq!(r.points.first().unwrap().value, 40.0);
        assert_eq!(r.points.last().unwrap().value, 399.0);
        // A narrow range trims further.
        let r = db.query_at_ms("g", 5, 399_000);
        assert_eq!(r.points.len(), 6);
        assert_eq!(r.points.first().unwrap().value, 394.0);
    }

    #[test]
    fn unknown_metric_is_empty_not_an_error() {
        let db = Tsdb::new();
        let r = db.query_at_ms("nope", 60, 1_000);
        assert!(r.points.is_empty());
        assert_eq!(db.window_mean_at_ms("nope", 60, 1_000), None);
    }

    #[test]
    fn series_cap_drops_new_series() {
        let db = Tsdb::new();
        let fams: Vec<Family> = (0..MAX_SERIES + 5)
            .map(|i| gauge_family(&format!("g{i}"), 1.0))
            .collect();
        db.scrape_families_at_ms(&fams, 1_000);
        assert_eq!(db.series_ids().len(), MAX_SERIES);
        assert_eq!(db.dropped_series(), 5);
        // Existing series keep accepting samples at the cap.
        db.scrape_families_at_ms(&[gauge_family("g0", 2.0)], 2_000);
        assert_eq!(db.query_at_ms("g0", 60, 2_000).points.len(), 2);
    }

    #[test]
    fn window_mean_averages_points() {
        let db = Tsdb::new();
        for t in 0..4u64 {
            db.scrape_families_at_ms(&[gauge_family("g", (t * 10) as f64)], t * 1_000);
        }
        assert_eq!(db.window_mean_at_ms("g", 60, 3_000), Some(15.0));
        // Narrow window sees only the newest points.
        assert_eq!(db.window_mean_at_ms("g", 1, 3_000), Some(25.0));
    }

    #[test]
    fn scrape_from_live_registry_works() {
        let reg = crate::registry::global();
        reg.counter("test.tsdb.hits").add(5);
        let db = Tsdb::new();
        db.scrape_families_at_ms(&reg.gather(), 1_000);
        reg.counter("test.tsdb.hits").add(5);
        db.scrape_families_at_ms(&reg.gather(), 2_000);
        let r = db.query_at_ms("test_tsdb_hits_total:rate", 60, 2_000);
        assert_eq!(r.points.last().unwrap().value, 5.0);
        assert_eq!(db.scrapes(), 2);
    }
}
