//! Rolling time-window histograms: percentiles over the last N
//! seconds instead of the process lifetime.
//!
//! The lifetime histograms of [`crate::registry`] are the right tool
//! for batch runs — one artifact, one distribution — but a long-lived
//! server wants *recency*: after an hour of traffic, a p99 that still
//! remembers the cold-start requests is useless for spotting a tail
//! regression that began two minutes ago. A [`RollingHistogram`]
//! shards its window into a fixed number of time slices; recording
//! lands in the slice the observation's timestamp falls into, and a
//! snapshot merges only the slices that are still inside the window,
//! so old traffic ages out with slice granularity.
//!
//! # Window semantics
//!
//! A window of `W` seconds over `S` slices means: a snapshot taken at
//! time `t` covers observations from the current (partial) slice plus
//! the `S - 1` previous complete slices — between `W - W/S` and `W`
//! seconds of history, never more. Expired slices are lazily reset the
//! next time their slot is written, so an idle histogram decays to
//! empty without a background thread.
//!
//! # Determinism
//!
//! The wall clock is injected: every operation has an `_at_ms` variant
//! taking milliseconds-since-start, and the convenience wrappers read
//! the histogram's own monotonic clock. Tests drive the `_at_ms`
//! variants with synthetic timestamps and get bit-exact behavior.
//!
//! Recording takes one short per-slice mutex (slices are striped in
//! time, not across threads); this is a serving-path structure, not a
//! per-cycle one — the simulation hot loops keep the atomic lifetime
//! histograms.

use crate::prom::Exemplar;
use crate::registry::HistogramSnapshot;
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel slice index meaning "never written".
const EMPTY: u64 = u64::MAX;

/// Default slice count for registry-created rolling histograms.
pub const DEFAULT_SLICES: usize = 8;

struct Slice {
    /// Absolute slice index currently stored, [`EMPTY`] when unused.
    epoch: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Slice {
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

/// One stored exemplar: the rendered label body plus the observation
/// and its stamp (for aging out with the window).
struct ExemplarSlot {
    labels: String,
    value: f64,
    t_ms: u64,
}

/// A fixed-bucket histogram over a rolling time window.
pub struct RollingHistogram {
    bounds: Vec<f64>,
    slice_ms: u64,
    slices: Vec<Mutex<Slice>>,
    /// Latest exemplar per bucket (`bounds.len() + 1` slots, last =
    /// overflow). Latest-wins keeps memory fixed at one slot per
    /// bucket; stale entries age out of snapshots with the window.
    exemplars: Mutex<Vec<Option<ExemplarSlot>>>,
    start: Instant,
}

impl RollingHistogram {
    /// Creates a histogram with the given inclusive upper bucket
    /// edges, covering a window of `window_secs` split into `slices`
    /// time slices.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing, or
    /// when `window_secs`/`slices` is zero.
    pub fn new(bounds: &[f64], window_secs: f64, slices: usize) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(window_secs > 0.0 && slices > 0, "bad window spec");
        let slice_ms = ((window_secs * 1000.0 / slices as f64).round() as u64).max(1);
        Self {
            bounds: bounds.to_vec(),
            slice_ms,
            slices: (0..slices)
                .map(|_| {
                    Mutex::new(Slice {
                        epoch: EMPTY,
                        buckets: vec![0; bounds.len() + 1],
                        count: 0,
                        sum: 0.0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    })
                })
                .collect(),
            exemplars: Mutex::new((0..=bounds.len()).map(|_| None).collect()),
            start: Instant::now(),
        }
    }

    /// Milliseconds since this histogram was created (the clock the
    /// convenience wrappers feed to the `_at_ms` core).
    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// The window span in seconds (slice length × slice count).
    pub fn window_secs(&self) -> f64 {
        self.slice_ms.saturating_mul(self.slices.len() as u64) as f64 / 1000.0
    }

    /// Records one observation at the current wall clock.
    pub fn record(&self, v: f64) {
        self.record_at_ms(v, self.now_ms());
    }

    /// Records one observation stamped `now_ms` milliseconds after the
    /// histogram's creation. Out-of-order stamps within the window are
    /// fine; a stamp older than the whole window is dropped.
    pub fn record_at_ms(&self, v: f64, now_ms: u64) {
        let epoch = now_ms / self.slice_ms;
        let slot = (epoch as usize) % self.slices.len();
        let mut slice = self.slices[slot].lock().expect("rolling slice lock");
        if slice.epoch != epoch {
            if slice.epoch != EMPTY && slice.epoch > epoch {
                // The slot has been reused by a newer slice already;
                // this observation is older than the window.
                return;
            }
            slice.reset(epoch);
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        slice.buckets[idx] += 1;
        slice.count += 1;
        slice.sum += v;
        slice.min = slice.min.min(v);
        slice.max = slice.max.max(v);
    }

    /// Records one observation and stores an exemplar for its bucket:
    /// `labels` is a pre-escaped Prometheus label body (see
    /// [`crate::prom::escape_label_value`]), e.g.
    /// `request_id="42",track="req00000042"`. Latest-wins per bucket.
    pub fn record_with_exemplar(&self, v: f64, labels: &str) {
        self.record_with_exemplar_at_ms(v, self.now_ms(), labels);
    }

    /// [`record_with_exemplar`](Self::record_with_exemplar) with an
    /// injected clock.
    pub fn record_with_exemplar_at_ms(&self, v: f64, now_ms: u64, labels: &str) {
        self.record_at_ms(v, now_ms);
        let idx = self.bounds.partition_point(|&b| b < v);
        let mut slots = self.exemplars.lock().expect("exemplar lock");
        slots[idx] = Some(ExemplarSlot {
            labels: labels.to_string(),
            value: v,
            t_ms: now_ms,
        });
    }

    /// Per-bucket exemplars still inside the window, indexed like the
    /// snapshot's buckets (`None` where no recent exemplar exists).
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.exemplars_at_ms(self.now_ms())
    }

    /// [`exemplars`](Self::exemplars) with an injected clock: entries
    /// older than the window (or stamped in its future) are dropped.
    pub fn exemplars_at_ms(&self, now_ms: u64) -> Vec<Option<Exemplar>> {
        let window_ms = self.slice_ms.saturating_mul(self.slices.len() as u64);
        let slots = self.exemplars.lock().expect("exemplar lock");
        slots
            .iter()
            .map(|s| {
                s.as_ref()
                    .filter(|s| s.t_ms <= now_ms && now_ms - s.t_ms <= window_ms)
                    .map(|s| Exemplar {
                        labels: s.labels.clone(),
                        value: s.value,
                    })
            })
            .collect()
    }

    /// Merged view of the window ending at the current wall clock.
    pub fn window_snapshot(&self) -> HistogramSnapshot {
        self.window_snapshot_at_ms(self.now_ms())
    }

    /// Merged view of the window ending at `now_ms`: the current slice
    /// plus every earlier slice still inside the window.
    pub fn window_snapshot_at_ms(&self, now_ms: u64) -> HistogramSnapshot {
        let epoch = now_ms / self.slice_ms;
        let oldest = epoch.saturating_sub(self.slices.len() as u64 - 1);
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for slot in &self.slices {
            let slice = slot.lock().expect("rolling slice lock");
            if slice.epoch == EMPTY || slice.epoch < oldest || slice.epoch > epoch {
                continue;
            }
            for (acc, b) in buckets.iter_mut().zip(&slice.buckets) {
                *acc += b;
            }
            count += slice.count;
            sum += slice.sum;
            min = min.min(slice.min);
            max = max.max(slice.max);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets,
            count,
            sum,
            min: (count > 0).then_some(min),
            max: (count > 0).then_some(max),
        }
    }

    /// The `q`-quantile over the current window (`None` when the
    /// window holds no observations). Bucket-edge resolution, exact
    /// min/max — same estimator as the lifetime histograms.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.window_snapshot().percentile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> RollingHistogram {
        // 8-second window, 4 slices of 2 s.
        RollingHistogram::new(&[1.0, 10.0, 100.0], 8.0, 4)
    }

    #[test]
    fn records_merge_across_slices() {
        let h = hist();
        h.record_at_ms(0.5, 0); // slice 0
        h.record_at_ms(5.0, 2_500); // slice 1
        h.record_at_ms(50.0, 6_100); // slice 3
        let s = h.window_snapshot_at_ms(6_200);
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets, vec![1, 1, 1, 0]);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(50.0));
        assert!((s.sum - 55.5).abs() < 1e-12);
    }

    #[test]
    fn old_slices_age_out_of_the_window() {
        let h = hist();
        h.record_at_ms(5.0, 1_000); // slice 0
                                    // Still visible while the window covers slice 0 (epochs 0..=3).
        assert_eq!(h.window_snapshot_at_ms(7_900).count, 1);
        // At epoch 4 the window is slices 1..=4: slice 0 is out, even
        // though its slot has not been overwritten yet.
        assert_eq!(h.window_snapshot_at_ms(8_100).count, 0);
        assert_eq!(h.window_snapshot_at_ms(8_100).percentile(0.99), None);
    }

    #[test]
    fn slot_reuse_resets_stale_data() {
        let h = hist();
        h.record_at_ms(5.0, 500); // slice 0, slot 0
        h.record_at_ms(7.0, 8_500); // slice 4, same slot — must reset
        let s = h.window_snapshot_at_ms(8_600);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, Some(7.0));
    }

    #[test]
    fn stale_record_is_dropped_not_misfiled() {
        let h = hist();
        h.record_at_ms(7.0, 8_500); // slot 0 now holds epoch 4
        h.record_at_ms(5.0, 500); // epoch 0 hits the same slot: too old
        assert_eq!(h.window_snapshot_at_ms(8_600).count, 1);
    }

    #[test]
    fn percentiles_reflect_only_the_window() {
        let h = hist();
        for _ in 0..100 {
            h.record_at_ms(0.5, 100); // fast era, slice 0
        }
        for _ in 0..10 {
            h.record_at_ms(50.0, 15_000); // slow era, epoch 7
        }
        // After the fast era expired (window at 16.5 s covers epochs
        // 5..=8), p50 must jump to the slow cohort.
        let s = h.window_snapshot_at_ms(16_500);
        assert_eq!(s.count, 10);
        assert_eq!(s.percentile(0.5), Some(50.0));
    }

    #[test]
    fn wall_clock_wrappers_work() {
        let h = hist();
        h.record(3.0);
        assert_eq!(h.window_snapshot().count, 1);
        assert_eq!(h.percentile(0.5), Some(3.0));
        assert!((h.window_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = RollingHistogram::new(&[2.0, 1.0], 1.0, 2);
    }

    #[test]
    fn idle_gap_expires_slices_without_writes() {
        // No traffic arrives between scrapes: expiry must come from
        // the snapshot clock alone, with no record() to trigger the
        // lazy slot reset.
        let h = hist(); // 8 s window, 4 × 2 s slices
        for i in 0..20 {
            h.record_at_ms(5.0, 100 + i); // all in slice 0
        }
        assert_eq!(h.window_snapshot_at_ms(1_000).count, 20);
        // Scrapes during the idle gap watch the window drain...
        assert_eq!(h.window_snapshot_at_ms(7_999).count, 20);
        assert_eq!(h.window_snapshot_at_ms(8_000).count, 0);
        // ...and far past the gap it stays empty (slot epochs are long
        // stale but must never alias back into the window).
        for t in [20_000, 60_000, 3_600_000] {
            let s = h.window_snapshot_at_ms(t);
            assert_eq!(s.count, 0, "t={t}");
            assert_eq!(s.percentile(0.99), None, "t={t}");
            assert_eq!(s.min, None, "t={t}");
        }
        // Traffic resuming after the gap lands in a clean window.
        h.record_at_ms(7.0, 3_600_500);
        let s = h.window_snapshot_at_ms(3_600_600);
        assert_eq!((s.count, s.min), (1, Some(7.0)));
    }

    #[test]
    fn idle_gap_spanning_one_partial_window_keeps_recent_slices() {
        let h = hist();
        h.record_at_ms(1.5, 1_000); // slice 0
        h.record_at_ms(50.0, 7_000); // slice 3
                                     // A gap moves the window to epochs 1..=4: slice 0 is out,
                                     // slice 3 still in, with no intervening traffic.
        let s = h.window_snapshot_at_ms(9_900);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, Some(50.0));
    }

    #[test]
    fn exemplars_capture_latest_and_age_out() {
        let h = hist();
        h.record_with_exemplar_at_ms(0.5, 100, "request_id=\"1\"");
        h.record_with_exemplar_at_ms(0.7, 200, "request_id=\"2\"");
        h.record_with_exemplar_at_ms(50.0, 300, "request_id=\"3\"");
        let ex = h.exemplars_at_ms(400);
        // Bucket 0 (≤1.0): latest wins.
        assert_eq!(ex[0].as_ref().unwrap().labels, "request_id=\"2\"");
        assert_eq!(ex[0].as_ref().unwrap().value, 0.7);
        // Bucket 2 (≤100.0) holds request 3; bucket 1 and overflow are
        // empty.
        assert_eq!(ex[2].as_ref().unwrap().labels, "request_id=\"3\"");
        assert!(ex[1].is_none() && ex[3].is_none());
        // Past the window every exemplar ages out, matching the
        // histogram itself.
        assert!(h.exemplars_at_ms(9_000).iter().all(Option::is_none));
    }

    #[test]
    fn a_window_too_long_for_milliseconds_saturates() {
        // 1e300 s slices saturate at `u64::MAX` ms; the window span
        // must not overflow when the exposition reads it.
        let h = RollingHistogram::new(&[1.0], 1e300, 4);
        assert_eq!(h.window_secs(), u64::MAX as f64 / 1000.0);
        h.record_with_exemplar_at_ms(0.5, 10, "request_id=\"1\"");
        assert_eq!(h.window_snapshot_at_ms(20).count, 1);
        assert!(h.exemplars_at_ms(20)[0].is_some());
    }

    #[test]
    fn exemplar_counts_match_bucket_layout() {
        let h = hist();
        assert_eq!(h.exemplars().len(), 4); // 3 bounds + overflow
        h.record_with_exemplar(3.0, "t=\"x\"");
        let ex = h.exemplars();
        assert_eq!(ex[1].as_ref().map(|e| e.value), Some(3.0));
    }
}
