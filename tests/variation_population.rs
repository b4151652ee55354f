//! Integration: variation statistics over a chip population (the
//! paper's Monte-Carlo methodology, Figures 5a/5b).

use accordion_chip::chip::Chip;
use accordion_chip::topology::{ClusterId, Topology};
use accordion_stats::rng::SeedStream;
use accordion_stats::summary::{quantile, Summary};
use accordion_varius::params::VariationParams;
use std::sync::OnceLock;

const POP: usize = 12;

fn population() -> &'static Vec<Chip> {
    static POPULATION: OnceLock<Vec<Chip>> = OnceLock::new();
    POPULATION.get_or_init(|| {
        Chip::fabricate_population(
            Topology::paper_default(),
            &VariationParams::default(),
            SeedStream::new(2014),
            0,
            POP,
        )
        .expect("population")
    })
}

#[test]
fn vddmin_distribution_in_figure5a_band() {
    let mut all = Vec::new();
    for chip in population() {
        all.extend_from_slice(chip.cluster_vddmin_v());
    }
    assert_eq!(all.len(), POP * 36);
    let s = Summary::of(&all).unwrap();
    // Paper Figure 5a: per-cluster VddMIN spans ≈0.46-0.58 V. Our
    // calibration sits in the same neighbourhood (±0.05 V), with a
    // clearly non-degenerate spread.
    assert!(s.min > 0.44 && s.min < 0.56, "min={}", s.min);
    assert!(s.max > 0.54 && s.max < 0.66, "max={}", s.max);
    assert!(s.max - s.min > 0.05, "spread={}", s.max - s.min);
}

#[test]
fn vdd_ntv_is_the_worst_cluster_everywhere() {
    for chip in population() {
        let max = chip
            .cluster_vddmin_v()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(chip.vdd_ntv_v(), max);
    }
}

#[test]
fn safe_frequency_slowdown_band_matches_figure5b() {
    // Paper Section 6.1: at acceptably low Perr, the slowest core per
    // cluster runs 0.14-0.72x slower than the 1 GHz NTV nominal. Our
    // per-cluster safe frequencies should show a comparable spread.
    let mut fs = Vec::new();
    for chip in population() {
        for c in 0..36 {
            fs.push(chip.cluster_safe_f_ghz(ClusterId(c)));
        }
    }
    let p5 = quantile(&fs, 0.05);
    let p95 = quantile(&fs, 0.95);
    let slowdown_hi = 1.0 - p5; // worst clusters
    let slowdown_lo = 1.0 - p95; // best clusters
    assert!(
        slowdown_hi > 0.3 && slowdown_hi < 0.8,
        "worst-cluster slowdown {slowdown_hi}"
    );
    assert!(
        slowdown_lo < 0.35,
        "best-cluster slowdown {slowdown_lo} too large"
    );
}

#[test]
fn chip_indexing_is_stable_across_batch_sizes() {
    // Every chip of the population, fabricated alone and inside an
    // offset batch, is the same chip: the same VddMIN map and VddNTV,
    // every core's timing (μ and σ), and the same safe-frequency bits.
    let fabricate = |first: u64, count: usize| {
        Chip::fabricate_population(
            Topology::paper_default(),
            &VariationParams::default(),
            SeedStream::new(2014),
            first,
            count,
        )
        .expect("fabrication")
    };
    let offset = fabricate(5, 7);
    assert_eq!(offset.len(), 7);
    let safe_f_bits = |chip: &Chip| -> Vec<u64> {
        (0..chip.topology().num_clusters())
            .map(|c| chip.cluster_safe_f_ghz(ClusterId(c)).to_bits())
            .collect()
    };
    for (i, reference) in population().iter().enumerate() {
        let single = fabricate(i as u64, 1).pop().expect("one chip");
        let batched = i.checked_sub(5).map(|k| &offset[k]);
        for other in std::iter::once(&single).chain(batched) {
            assert_eq!(
                other.cluster_vddmin_v(),
                reference.cluster_vddmin_v(),
                "chip {i}"
            );
            assert_eq!(other.vdd_ntv_v().to_bits(), reference.vdd_ntv_v().to_bits());
            assert_eq!(other.sample().timing, reference.sample().timing, "chip {i}");
            assert_eq!(safe_f_bits(other), safe_f_bits(reference), "chip {i}");
        }
    }
}

#[test]
fn speculation_gains_vary_across_population() {
    // Different chips have different binding clusters, so the
    // speculative frequency gain at a fixed error rate varies.
    let mut gains = Vec::new();
    for chip in population() {
        let c = ClusterId(0);
        let safe = chip.cluster_safe_f_ghz(c);
        let spec = chip.cluster_f_for_perr_ghz(c, 1e-7);
        gains.push(spec / safe - 1.0);
    }
    let s = Summary::of(&gains).unwrap();
    assert!(s.min >= 0.0);
    assert!(s.max > s.min, "population must show gain diversity");
    assert!(s.max < 0.6, "gain {} implausible", s.max);
}

#[test]
fn efficiency_ordering_differs_across_chips() {
    // Variation should reshuffle which cluster is the most efficient.
    let mut best_clusters = std::collections::HashSet::new();
    for chip in population() {
        let best = (0..36)
            .max_by(|&a, &b| {
                chip.cluster_efficiency(ClusterId(a))
                    .partial_cmp(&chip.cluster_efficiency(ClusterId(b)))
                    .unwrap()
            })
            .unwrap();
        best_clusters.insert(best);
    }
    assert!(
        best_clusters.len() > 1,
        "the best cluster should differ across chips"
    );
}
