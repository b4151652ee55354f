//! Property tests for the ops plane's untrusted inputs: alert-rule
//! files and `/v1/timeseries` windows.
//!
//! * `parse_rules` never panics, whatever lines it is fed: its own
//!   keys with extreme or malformed values, structural lines, and
//!   random bytes. Every rule it accepts has finite numbers and
//!   `1 ≤ fast_window_s ≤ slow_window_s`.
//! * `Tsdb::query_at_ms` and `window_mean_at_ms` answer any range and
//!   clock without overflowing: the finest covering tier answers, an
//!   over-long range the coarsest, and every point lies in the window.
//! * The TSDB's histogram quantiles, over any cumulative bucket
//!   sequence with resets and torn reads, never panic, keep
//!   `p50 ≤ p99`, and lie within the histogram's min and max.

use accordion_telemetry::alerts::{parse_rules, AlertKind};
use accordion_telemetry::prom::{Family, Kind, Sample, SampleValue};
use accordion_telemetry::registry::HistogramSnapshot;
use accordion_telemetry::tsdb::{Tsdb, SLOTS_PER_TIER, TIER_SECS};
use proptest::prelude::*;
use proptest::TestRng;

/// The keys of each rule kind, with a value the parser accepts.
const THRESHOLD: [(&str, &str); 5] = [
    ("metric", "\"m\""),
    ("op", "\"gt\""),
    ("threshold", "1.5"),
    ("fast_window_s", "5"),
    ("slow_window_s", "60"),
];
const BURN_RATE: [(&str, &str); 8] = [
    ("kind", "\"burn_rate\""),
    ("bad", "\"b:rate\""),
    ("total", "\"t:rate\""),
    ("objective", "0.999"),
    ("fast_burn", "14.4"),
    ("slow_burn", "6"),
    ("fast_window_s", "5"),
    ("slow_window_s", "60"),
];

/// Values at and past the edges of what the keys accept.
const WILD: [&str; 24] = [
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "1e300",
    "-1e300",
    "1e400",
    "0",
    "-1",
    "0.5",
    "1",
    "3600",
    "\"unterminated",
    "\"bad \\q escape\"",
    "\"trailing\" garbage",
    "\"lt\"",
    "\"threshold\"",
    "bare_word",
    "1 # comment",
    "",
    "# only a comment",
    "[[alert]]",
    "= 1",
];

/// Lines that are not `key = value` pairs of a known key.
const STRUCTURE: [&str; 7] = [
    "[[alert]]",
    "[alert]",
    "[[misc]]",
    "# comment",
    "bogus = 1",
    "= 1",
    "no equals sign",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

/// A line that is a structural line or random bytes.
fn junk(rng: &mut TestRng) -> String {
    if rng.next_u64().is_multiple_of(2) {
        return pick(rng, &STRUCTURE).to_string();
    }
    let bytes: Vec<u8> = (0..rng.next_u64() % 24)
        .map(|_| rng.next_u64() as u8)
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One `[[alert]]` table of either kind. Each key keeps its accepted
/// value, takes a wild one, goes missing, or gives way to junk, so the
/// soup holds accepted rules beside rejected ones.
fn table(rng: &mut TestRng, index: u64) -> String {
    let keys: &[(&str, &str)] = if rng.next_u64().is_multiple_of(2) {
        &THRESHOLD
    } else {
        &BURN_RATE
    };
    let mut text = format!("[[alert]]\nname = \"rule{index}\"\n");
    for (key, accepted) in keys {
        let line = match rng.next_u64() % 8 {
            0 => continue,
            1 => junk(rng),
            2 | 3 => format!("{key} = {}", pick(rng, &WILD)),
            _ => format!("{key} = {accepted}"),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

fn gauge(v: f64) -> Family {
    Family {
        name: "g".into(),
        help: "test".into(),
        kind: Kind::Gauge,
        samples: vec![Sample {
            labels: String::new(),
            value: SampleValue::Scalar(v),
            exemplars: Vec::new(),
        }],
    }
}

/// Integer bucket edges, so every quantile (an edge, the min or the
/// max) and every slot sum is exact.
const BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// The histogram family `h` holding cumulative `buckets` observed
/// within `range`. A read torn by the first record shows its bucket
/// beside no min and max (`None`) or beside their initial `+∞`/`−∞`.
fn histogram(buckets: &[u64], range: Option<(f64, f64)>) -> Family {
    let count = buckets.iter().sum();
    Family {
        name: "h".into(),
        help: "test".into(),
        kind: Kind::Histogram,
        samples: vec![Sample {
            labels: String::new(),
            value: SampleValue::Hist(HistogramSnapshot {
                bounds: BOUNDS.to_vec(),
                buckets: buckets.to_vec(),
                count,
                sum: 0.0,
                min: range.map(|r| r.0),
                max: range.map(|r| r.1),
            }),
            exemplars: Vec::new(),
        }],
    }
}

/// A `u64` with a uniformly drawn bit length, so small, mid-range and
/// extreme values (up to `u64::MAX`) all occur.
fn any_u64(rng: &mut TestRng) -> u64 {
    let bits = rng.next_u64() % 65;
    if bits == 0 {
        0
    } else {
        rng.next_u64() >> (64 - bits)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rule_files_parse_without_panicking(seed in 0u64..1_000_000) {
        let mut rng = TestRng::deterministic(&format!("alert-soup-{seed}"));
        let text: String = (0..1 + rng.next_u64() % 3).map(|i| table(&mut rng, i)).collect();
        // The vendored runner inlines this body in its case loop, so
        // a rejected soup skips the checks rather than returning.
        for rule in parse_rules(&text).unwrap_or_default() {
            prop_assert!(
                1 <= rule.fast_window_s && rule.fast_window_s <= rule.slow_window_s,
                "{text}"
            );
            let numbers = match rule.kind {
                AlertKind::Threshold { threshold, .. } => vec![threshold],
                AlertKind::BurnRate { objective, fast_burn, slow_burn, .. } => {
                    vec![objective, fast_burn, slow_burn]
                }
            };
            prop_assert!(numbers.iter().all(|x| x.is_finite()), "{text}");
        }
    }

    #[test]
    fn any_window_is_answered_without_overflow(seed in 0u64..1_000_000) {
        let mut rng = TestRng::deterministic(&format!("tsdb-window-{seed}"));
        let db = Tsdb::new();
        for t in 0..rng.next_u64() % 16 {
            db.scrape_families_at_ms(&[gauge(t as f64)], t * 700);
        }
        let (range_secs, now_ms) = (any_u64(&mut rng), any_u64(&mut rng));
        for metric in ["g", "unknown"] {
            let r = db.query_at_ms(metric, range_secs, now_ms);
            let finest = TIER_SECS
                .iter()
                .find(|&&s| s * SLOTS_PER_TIER as u64 >= range_secs)
                .unwrap_or(&TIER_SECS[TIER_SECS.len() - 1]);
            prop_assert_eq!(r.tier_secs, *finest, "range {}", range_secs);
            let from_ms = now_ms.saturating_sub(range_secs.saturating_mul(1000));
            for p in &r.points {
                prop_assert!(p.t_ms <= now_ms && p.t_ms + r.tier_secs * 1000 > from_ms);
            }
            prop_assert!(r.points.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
            let mean = db.window_mean_at_ms(metric, range_secs, now_ms);
            prop_assert_eq!(mean.is_some(), !r.points.is_empty());
        }
    }

    #[test]
    fn histogram_quantiles_stay_ordered_and_in_range(seed in 0u64..1_000_000) {
        let mut rng = TestRng::deterministic(&format!("tsdb-histogram-{seed}"));
        let (a, b) = (rng.next_u64() % 48, rng.next_u64() % 48);
        let range = (a.min(b) as f64, a.max(b) as f64);
        let db = Tsdb::new();
        let mut buckets = [0u64; BOUNDS.len() + 1];
        let mut now_ms = 0;
        for _ in 0..rng.next_u64() % 64 {
            if rng.next_u64().is_multiple_of(8) {
                buckets = [0; BOUNDS.len() + 1]; // the process restarted
            }
            for bucket in &mut buckets {
                if rng.next_u64().is_multiple_of(3) {
                    *bucket += rng.next_u64() % 5;
                }
            }
            let read = match rng.next_u64() % 16 {
                0 => None,
                1 => Some((f64::INFINITY, f64::NEG_INFINITY)),
                _ => Some(range),
            };
            let family = histogram(&buckets, read);
            now_ms += rng.next_u64() % 1_500;
            db.scrape_families_at_ms(&[family], now_ms);
        }
        let p50 = db.query_at_ms("h:p50", 360, now_ms).points;
        let p99 = db.query_at_ms("h:p99", 360, now_ms).points;
        prop_assert_eq!(p50.len(), p99.len());
        for (lo, hi) in p50.iter().zip(&p99) {
            prop_assert_eq!(lo.t_ms, hi.t_ms);
            prop_assert!(lo.value <= hi.value, "p50 {} above p99 {}", lo.value, hi.value);
            prop_assert!(
                range.0 <= lo.value && hi.value <= range.1,
                "{:?} outside {:?}", (lo, hi), range
            );
        }
    }
}

#[test]
fn the_longest_ranges_are_answered_by_the_coarsest_tier() {
    let db = Tsdb::new();
    for t in 0..4u64 {
        db.scrape_families_at_ms(&[gauge(t as f64)], t * 1_000);
    }
    for range_secs in [u64::MAX / 1000 + 1, u64::MAX] {
        let r = db.query_at_ms("g", range_secs, 3_000);
        assert_eq!(r.tier_secs, 60);
        assert_eq!(
            r.points.len(),
            1,
            "every sample sits in the first 60 s slot"
        );
        assert_eq!(db.window_mean_at_ms("g", range_secs, 3_000), Some(1.5));
    }
}

#[test]
fn non_finite_rule_numbers_are_rejected() {
    for (key, value) in [
        ("threshold", "nan"),
        ("threshold", "inf"),
        ("fast_burn", "inf"),
        ("slow_burn", "nan"),
    ] {
        let kind = if key == "threshold" {
            "metric = \"m\"\n"
        } else {
            "bad = \"b\"\ntotal = \"t\"\nobjective = 0.99\n"
        };
        let text = format!("[[alert]]\nname = \"x\"\n{kind}{key} = {value}\n");
        let errors = parse_rules(&text).expect_err(&text);
        assert!(
            errors.iter().any(|e| e.contains("must be finite")),
            "{text}: {errors:?}"
        );
    }
}
