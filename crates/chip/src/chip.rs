//! A fabricated chip: topology plus one variation realization, with
//! the calibrated technology models attached.

use crate::floorplan::Floorplan;
use crate::memory::MemoryParams;
use crate::network::NetworkParams;
use crate::power::ChipPowerModel;
use crate::topology::{ClusterId, Topology};
use accordion_stats::field::FieldError;
use accordion_stats::rng::SeedStream;
use accordion_telemetry::{counter, flight_track, span};
use accordion_varius::params::VariationParams;
use accordion_varius::population::{self, ChipSample};
use accordion_vlsi::freq::FreqModel;
use accordion_vlsi::tech::Technology;

/// A fabricated Accordion chip.
///
/// Combines the static description (topology, floorplan, memory,
/// network, power budget) with one Monte-Carlo variation sample and
/// caches the per-cluster operating limits derived from it.
///
/// # Example
///
/// ```
/// use accordion_chip::chip::Chip;
///
/// let chip = Chip::fabricate_small(0)?;
/// let f0 = chip.cluster_safe_f_ghz(accordion_chip::topology::ClusterId(0));
/// assert!(f0 > 0.1 && f0 < 1.0);
/// # Ok::<(), accordion_stats::field::FieldError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Chip {
    topo: Topology,
    memory: MemoryParams,
    network: NetworkParams,
    fm: FreqModel,
    power: ChipPowerModel,
    vparams: VariationParams,
    sample: ChipSample,
    cluster_safe_f_ghz: Vec<f64>,
    /// Vth corner of each cluster's shared-memory site, precomputed at
    /// fabrication so latency queries never rebuild the floorplan.
    cluster_shared_mem_dv: Vec<f64>,
}

impl Chip {
    /// Fabricates one paper-default 288-core chip; `index` selects the
    /// Monte-Carlo instance (chips 0..99 form the paper's population).
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] from the variation sampler.
    pub fn fabricate_default(index: u64) -> Result<Self, FieldError> {
        Self::fabricate(
            Topology::paper_default(),
            &VariationParams::default(),
            SeedStream::new(2014),
            index,
        )
    }

    /// Fabricates a small 16-core chip (2×2 clusters of 4) for fast
    /// tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] from the variation sampler.
    pub fn fabricate_small(index: u64) -> Result<Self, FieldError> {
        Self::fabricate(
            Topology::small(),
            &VariationParams::default(),
            SeedStream::new(2014),
            index,
        )
    }

    /// Fabricates chip `index` of the population seeded by `seed` for
    /// an arbitrary topology.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] from the variation sampler.
    pub fn fabricate(
        topo: Topology,
        vparams: &VariationParams,
        seed: SeedStream,
        index: u64,
    ) -> Result<Self, FieldError> {
        let mut chips = Self::fabricate_population(topo, vparams, seed, index, 1)?;
        Ok(chips.pop().expect("population of one"))
    }

    /// Fabricates chips `first..first + count` of a population,
    /// sharing one correlation factorization across all of them.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] from the variation sampler.
    pub fn fabricate_population(
        topo: Topology,
        vparams: &VariationParams,
        seed: SeedStream,
        first: u64,
        count: usize,
    ) -> Result<Vec<Self>, FieldError> {
        let _span = span!("chip.fabricate_population");
        counter!("chip.fabricated").add(count as u64);
        let tech = Technology::node_11nm();
        let fm = FreqModel::calibrate(&tech);
        let plan = Floorplan::paper_default().site_plan(&topo);
        // Chip `i` draws only from its own substream, so it is the same
        // chip however it is requested.
        let first = first as usize;
        let samples = population::generate(&plan, vparams, &fm, first..first + count, seed)?;
        let power = ChipPowerModel::paper_default(&tech);
        // Deriving per-cluster operating limits is per-chip work with
        // no cross-chip state; fan it out while preserving index order
        // (the determinism contract of `accordion-pool`).
        let indexed: Vec<(usize, ChipSample)> = (first..).zip(samples).collect();
        Ok(accordion_pool::par_map(indexed, |(i, sample)| {
            // Track identity is (topology, population index) — stable
            // whichever worker fabricates the chip, and disjoint from
            // other topologies fabricated in the same recording.
            let _track = flight_track!("fab{}/chip{}", topo.num_clusters(), i);
            Self::from_sample(topo, vparams, &fm, &power, &plan, sample)
        }))
    }

    fn from_sample(
        topo: Topology,
        vparams: &VariationParams,
        fm: &FreqModel,
        power: &ChipPowerModel,
        plan: &accordion_varius::layout::SitePlan,
        sample: ChipSample,
    ) -> Self {
        use accordion_varius::layout::MemKind;
        let cluster_safe_f_ghz = sample.cluster_safe_f_ghz(vparams);
        // The cluster's first shared-memory site carries its local
        // corner; keep it per cluster so `cluster_mem_latency_ns` is a
        // lookup instead of a floorplan rebuild + scan.
        let mut shared_dv: Vec<Option<f64>> = vec![None; plan.num_clusters()];
        for (site, &dv) in plan.mem_sites.iter().zip(&sample.variation.mem_vth_delta_v) {
            if site.kind == MemKind::ClusterShared && shared_dv[site.cluster].is_none() {
                shared_dv[site.cluster] = Some(dv);
            }
        }
        let cluster_shared_mem_dv = shared_dv.into_iter().map(|d| d.unwrap_or(0.0)).collect();
        Self {
            topo,
            memory: MemoryParams::paper_default(),
            network: NetworkParams::paper_default(),
            fm: fm.clone(),
            power: power.clone(),
            vparams: vparams.clone(),
            sample,
            cluster_safe_f_ghz,
            cluster_shared_mem_dv,
        }
    }

    /// Chip topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Memory-hierarchy parameters.
    pub fn memory(&self) -> &MemoryParams {
        &self.memory
    }

    /// Network parameters.
    pub fn network(&self) -> &NetworkParams {
        &self.network
    }

    /// The calibrated frequency model.
    pub fn freq_model(&self) -> &FreqModel {
        &self.fm
    }

    /// The chip power model.
    pub fn power_model(&self) -> &ChipPowerModel {
        &self.power
    }

    /// Variation parameters used at fabrication.
    pub fn variation_params(&self) -> &VariationParams {
        &self.vparams
    }

    /// The underlying variation sample.
    pub fn sample(&self) -> &ChipSample {
        &self.sample
    }

    /// The chip's designated near-threshold supply (max per-cluster
    /// `VddMIN`, Section 6.1).
    pub fn vdd_ntv_v(&self) -> f64 {
        self.sample.vdd_ntv_v
    }

    /// Per-cluster `VddMIN` values (the Figure 5a data).
    pub fn cluster_vddmin_v(&self) -> &[f64] {
        &self.sample.cluster_vddmin_v
    }

    /// Safe frequency of a cluster at the chip's `VddNTV`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn cluster_safe_f_ghz(&self, cluster: ClusterId) -> f64 {
        self.cluster_safe_f_ghz[cluster.0]
    }

    /// Frequency at which a cluster's slowest core sees per-cycle
    /// error rate `perr` (speculative operation, Section 4.1).
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn cluster_f_for_perr_ghz(&self, cluster: ClusterId, perr: f64) -> f64 {
        self.sample
            .timing
            .cluster_frequency_for_perr(cluster.0, perr)
    }

    /// Power of one cluster with all cores active at `f_ghz` and the
    /// chip's `VddNTV`, accounting for each member core's leakage
    /// corner, plus the cluster's uncore share.
    pub fn cluster_power_w(&self, cluster: ClusterId, f_ghz: f64) -> f64 {
        self.power_at_w([cluster], self.vdd_ntv_v(), f_ghz)
    }

    /// Power of `clusters` with every core active at `f_ghz` and
    /// `vdd_v`: each core's variation-aware dynamic and leakage power,
    /// then the cluster's uncore share, added to one running sum in the
    /// order the clusters are given (the order fixes the result's low
    /// bits, so callers that pin goldens keep theirs).
    pub fn power_at_w(
        &self,
        clusters: impl IntoIterator<Item = ClusterId>,
        vdd_v: f64,
        f_ghz: f64,
    ) -> f64 {
        let core_model = self.power.core_model();
        let variation = &self.sample.variation;
        let f_norm = f_ghz / self.fm.technology().f_nom_ghz;
        let mut total = 0.0;
        for cluster in clusters {
            for core in self.topo.cores_of(cluster) {
                let dv = variation.core_vth_delta_v[core.0];
                let lm = variation.core_leff_mult[core.0];
                total += core_model.core_power(vdd_v, f_ghz, dv, lm).total_w();
            }
            total += self.power.cluster_uncore_w(vdd_v, f_norm);
        }
        total
    }

    /// Cluster energy efficiency at its safe frequency, in
    /// core-GHz per watt — the ordering key for the paper's
    /// "most energy-efficient cores first" selection.
    pub fn cluster_efficiency(&self, cluster: ClusterId) -> f64 {
        let f = self.cluster_safe_f_ghz(cluster);
        let p = self.cluster_power_w(cluster, f);
        self.topo.cores_per_cluster as f64 * f / p
    }

    /// The STV baseline core count (`N_STV`) for this chip's budget.
    pub fn n_stv(&self) -> usize {
        self.power.n_stv(&self.topo)
    }

    /// Variation-derated access latency of a cluster's shared memory
    /// at the chip's `VddNTV`, in ns (VARIUS-NTV's memory-timing side:
    /// blocks in slow regions take longer).
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn cluster_mem_latency_ns(&self, cluster: ClusterId) -> f64 {
        let timing = accordion_varius::mem_timing::MemTiming::new(&self.fm, self.vdd_ntv_v());
        timing.access_ns(
            self.memory.cluster_access_ns,
            self.cluster_shared_mem_dv[cluster.0],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_chip_fabrication() {
        let chip = Chip::fabricate_small(0).unwrap();
        assert_eq!(chip.topology().num_cores(), 16);
        assert_eq!(chip.cluster_vddmin_v().len(), 4);
        assert!(chip.vdd_ntv_v() >= 0.44 && chip.vdd_ntv_v() <= 0.64);
    }

    #[test]
    fn population_indexing_is_stable() {
        let direct = Chip::fabricate_small(2).unwrap();
        let batch = Chip::fabricate_population(
            Topology::small(),
            &VariationParams::default(),
            SeedStream::new(2014),
            0,
            3,
        )
        .unwrap();
        assert_eq!(
            direct.sample().cluster_vddmin_v,
            batch[2].sample().cluster_vddmin_v
        );
    }

    #[test]
    fn safe_frequencies_below_nominal() {
        let chip = Chip::fabricate_small(1).unwrap();
        for c in 0..4 {
            let f = chip.cluster_safe_f_ghz(ClusterId(c));
            assert!(f > 0.1 && f < 1.0, "cluster {c}: {f}");
        }
    }

    #[test]
    fn speculative_frequency_above_safe() {
        let chip = Chip::fabricate_small(1).unwrap();
        for c in 0..4 {
            let f_safe = chip.cluster_safe_f_ghz(ClusterId(c));
            let f_spec = chip.cluster_f_for_perr_ghz(ClusterId(c), 1e-8);
            assert!(f_spec > f_safe, "cluster {c}");
        }
    }

    #[test]
    fn cluster_power_grows_with_frequency() {
        let chip = Chip::fabricate_small(0).unwrap();
        let p1 = chip.cluster_power_w(ClusterId(0), 0.4);
        let p2 = chip.cluster_power_w(ClusterId(0), 0.8);
        assert!(p2 > p1);
    }

    #[test]
    fn memory_latency_varies_under_variation() {
        let chip = Chip::fabricate_small(2).unwrap();
        let lats: Vec<f64> = (0..4)
            .map(|c| chip.cluster_mem_latency_ns(ClusterId(c)))
            .collect();
        let base = chip.memory().cluster_access_ns;
        // Derated latencies bracket the nominal and differ across
        // clusters.
        assert!(lats.iter().any(|l| (l - base).abs() > 1e-3));
        let min = lats.iter().copied().fold(f64::INFINITY, f64::min);
        let max = lats.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min);
        assert!(min > 0.3 * base && max < 3.0 * base, "{lats:?}");
    }

    #[test]
    fn efficiency_varies_across_clusters() {
        let chip = Chip::fabricate_small(3).unwrap();
        let effs: Vec<f64> = (0..4)
            .map(|c| chip.cluster_efficiency(ClusterId(c)))
            .collect();
        let min = effs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = effs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min, "variation must differentiate clusters");
    }
}
