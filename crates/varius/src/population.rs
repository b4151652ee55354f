//! Monte-Carlo chip populations.
//!
//! The paper evaluates variation effects over a sample of 100
//! fabricated chips (Table 2, "Sample size"). [`generate`] draws any
//! index range of that population over one layout and derives, per
//! chip:
//!
//! * per-cluster `VddMIN` and the chip-wide `VddNTV` designation
//!   (Figure 5a),
//! * every core's timing at `VddNTV`, from which the per-cluster safe
//!   frequencies follow (Figure 5b).

use crate::columns::TimingColumns;
use crate::layout::SitePlan;
use crate::params::VariationParams;
use crate::sram::SramModel;
use crate::vmap::ChipVariation;
use accordion_stats::field::FieldError;
use accordion_stats::rng::SeedStream;
use accordion_telemetry::{counter, flight_track, span};
use accordion_vlsi::freq::FreqModel;
use std::ops::Range;

/// One fabricated chip with its derived variation-dependent data.
#[derive(Debug, Clone)]
pub struct ChipSample {
    /// The raw variation realization.
    pub variation: ChipVariation,
    /// `VddMIN` of each cluster in volts.
    pub cluster_vddmin_v: Vec<f64>,
    /// The chip's designated near-threshold supply: the maximum
    /// per-cluster `VddMIN`.
    pub vdd_ntv_v: f64,
    /// Every core's timing at `vdd_ntv_v`.
    pub timing: TimingColumns,
}

impl ChipSample {
    /// Safe frequency of every cluster at the chip's `VddNTV`.
    pub fn cluster_safe_f_ghz(&self, params: &VariationParams) -> Vec<f64> {
        (0..self.timing.num_clusters())
            .map(|i| {
                // One flight-recorder track per simulated cluster,
                // nested under the fabricating chip's track.
                let _track = flight_track!("cluster{i}");
                self.timing.cluster_safe_f_ghz(i, params)
            })
            .collect()
    }
}

/// Generates chips `chips` of the population seeded by `seed` for
/// `plan` under `params`, deriving timing with the calibrated
/// frequency model `fm`. Chip `i` draws only from the `("chip", i)`
/// substream, so it is the same chip whichever range it is generated
/// in.
///
/// # Errors
///
/// Propagates [`FieldError`] if the layout's correlation matrix
/// cannot be factored.
pub fn generate(
    plan: &SitePlan,
    params: &VariationParams,
    fm: &FreqModel,
    chips: Range<usize>,
    seed: SeedStream,
) -> Result<Vec<ChipSample>, FieldError> {
    let _span = span!("varius.population.generate");
    // The sampler comes from the process-wide cache: sweep
    // artifacts that revisit the same (plan, φ, technology)
    // structure reuse one envelope factorization.
    let sampler = ChipVariation::cached_sampler_for_tech(plan, params, fm.technology())?;
    // One pool task per chip, so the parallel result is bit-identical
    // to the sequential loop at any `--jobs` count.
    let first = chips.start;
    let samples = accordion_pool::par_map_indexed(chips.len(), |k| {
        let variation = sampler.sample(&mut seed.stream("chip", (first + k) as u64));
        derive(plan, params, fm, variation)
    });
    counter!("varius.chips_generated").add(samples.len() as u64);
    Ok(samples)
}

fn derive(
    plan: &SitePlan,
    params: &VariationParams,
    fm: &FreqModel,
    variation: ChipVariation,
) -> ChipSample {
    let sram = SramModel::new(params);

    // Per-cluster VddMIN from the memory sites.
    let mut cluster_blocks: Vec<Vec<(crate::layout::MemKind, f64)>> =
        vec![Vec::new(); plan.num_clusters()];
    for (site, &dv) in plan.mem_sites.iter().zip(&variation.mem_vth_delta_v) {
        cluster_blocks[site.cluster].push((site.kind, dv));
    }
    let cluster_vddmin_v: Vec<f64> = cluster_blocks
        .iter()
        .map(|blocks| sram.cluster_vddmin_v(blocks))
        .collect();
    let vdd_ntv_v = cluster_vddmin_v
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);

    let timing = TimingColumns::derive(fm, params, vdd_ntv_v, &variation, &plan.core_clusters);
    ChipSample {
        variation,
        cluster_vddmin_v,
        vdd_ntv_v,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{MemKind, MemSite};
    use accordion_vlsi::tech::Technology;

    /// A small paper-like plan: 2×2 clusters of 2×2 cores each on a
    /// 20 mm die, one shared memory per cluster plus per-core private
    /// memories.
    fn small_plan() -> SitePlan {
        let mut core_sites = Vec::new();
        let mut core_clusters = Vec::new();
        let mut mem_sites = Vec::new();
        for cy in 0..2 {
            for cx in 0..2 {
                let cluster = cy * 2 + cx;
                let (ox, oy) = (cx as f64 * 10.0, cy as f64 * 10.0);
                for k in 0..4 {
                    let pos = (
                        ox + 2.5 + 5.0 * (k % 2) as f64,
                        oy + 2.5 + 5.0 * (k / 2) as f64,
                    );
                    core_sites.push(pos);
                    core_clusters.push(cluster);
                    mem_sites.push(MemSite {
                        pos_mm: pos,
                        kind: MemKind::CorePrivate,
                        cluster,
                    });
                }
                mem_sites.push(MemSite {
                    pos_mm: (ox + 5.0, oy + 5.0),
                    kind: MemKind::ClusterShared,
                    cluster,
                });
            }
        }
        SitePlan {
            chip_w_mm: 20.0,
            chip_h_mm: 20.0,
            core_sites_mm: core_sites,
            core_clusters,
            mem_sites,
        }
    }

    fn chips(range: Range<usize>) -> Vec<ChipSample> {
        let fm = FreqModel::calibrate(&Technology::node_11nm());
        generate(
            &small_plan(),
            &VariationParams::default(),
            &fm,
            range,
            SeedStream::new(2014),
        )
        .unwrap()
    }

    fn population(n: usize) -> Vec<ChipSample> {
        chips(0..n)
    }

    #[test]
    fn population_size_and_shape() {
        let pop = population(5);
        assert_eq!(pop.len(), 5);
        for s in &pop {
            assert_eq!(s.cluster_vddmin_v.len(), 4);
            assert_eq!(s.timing.num_clusters(), 4);
            assert_eq!(s.timing.cluster_cores(0).len(), 4);
        }
    }

    #[test]
    fn an_offset_range_generates_the_same_chips() {
        let all = population(4);
        let tail = chips(2..4);
        for (a, b) in all[2..].iter().zip(&tail) {
            assert_eq!(a.variation, b.variation);
            assert_eq!(a.timing, b.timing);
        }
    }

    #[test]
    fn vdd_ntv_is_max_cluster_vddmin() {
        let pop = population(3);
        for s in &pop {
            let max = s
                .cluster_vddmin_v
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.vdd_ntv_v, max);
        }
    }

    #[test]
    fn vddmin_spread_matches_figure5a_band() {
        // Figure 5a: per-cluster VddMIN spans ≈0.46–0.58 V.
        let pop = population(30);
        let all: Vec<f64> = pop
            .iter()
            .flat_map(|s| s.cluster_vddmin_v.iter().copied())
            .collect();
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo > 0.42 && lo < 0.52, "lo={lo}");
        assert!(hi > 0.52 && hi < 0.64, "hi={hi}");
    }

    #[test]
    fn safe_frequencies_show_figure5b_spread() {
        // At VddNTV, per-cluster safe frequencies must sit well below
        // the 1 GHz nominal and vary substantially across clusters.
        let params = VariationParams::default();
        let pop = population(20);
        let mut all = Vec::new();
        for s in &pop {
            all.extend(s.cluster_safe_f_ghz(&params));
        }
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi < 1.0, "even the best cluster is below nominal, hi={hi}");
        assert!(lo > 0.1, "slowest cluster {lo} implausible");
        assert!(hi / lo > 1.15, "cross-cluster spread {} too small", hi / lo);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = population(2);
        let b = population(2);
        assert_eq!(a[1].cluster_vddmin_v, b[1].cluster_vddmin_v);
    }
}
