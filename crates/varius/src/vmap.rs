//! Per-chip realizations of the correlated variation fields.
//!
//! One [`VariationSampler`] factors the spatial correlation structure
//! of a [`SitePlan`] once; each [`ChipVariation`] drawn from it is one
//! "fabricated chip" with concrete systematic `Vth` and `Leff`
//! deviations at every core and memory site.

use crate::layout::SitePlan;
use crate::params::VariationParams;
use accordion_pool::Memo;
use accordion_stats::field::{CorrelatedField, CorrelationModel, FieldError};
use accordion_stats::rng::StreamRng;
use accordion_telemetry::{counter, gauge, span};
use accordion_vlsi::tech::Technology;
use std::cell::RefCell;
use std::sync::{Arc, LazyLock};

/// Reusable sampler of chip-variation instances over a fixed layout.
#[derive(Debug, Clone)]
pub struct VariationSampler {
    field: CorrelatedField,
    num_cores: usize,
    vth_sigma_sys_v: f64,
    leff_sigma_sys: f64,
}

/// Everything that determines a [`VariationSampler`]'s content, with
/// float inputs keyed by their exact bits. Two equal keys produce
/// bit-identical samplers, so the cross-artifact cache can never
/// change results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SamplerKey {
    points_bits: Vec<(u64, u64)>,
    num_cores: usize,
    range_bits: u64,
    vth_sigma_bits: u64,
    leff_sigma_bits: u64,
}

/// Most correlation structures a process keeps resident at once. A
/// full `repro all` touches well under a dozen distinct structures;
/// the bound exists so a long-lived serving process fed adversarial
/// (plan, φ) combinations cannot grow the cache without limit.
const SAMPLER_CACHE_CAP: usize = 32;

/// Process-wide sampler cache, `varius.sampler_cache`. `repro all` and
/// the sweep artifacts re-request identical (plan, φ, technology)
/// correlation structures many times; each structure is assembled and
/// factored once and reused until it is the least recently used of
/// [`SAMPLER_CACHE_CAP`]. The value is the construction `Result`, so a
/// structure that fails to factor is not re-factored either.
static SAMPLER_CACHE: LazyLock<Memo<SamplerKey, Result<Arc<VariationSampler>, FieldError>>> =
    LazyLock::new(|| Memo::new("varius.sampler_cache", SAMPLER_CACHE_CAP));

// Per-thread scratch holding the two raw field draws of one chip;
// reused across the whole fabrication hot loop.
thread_local! {
    static FIELD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One fabricated chip: systematic parameter deviations at every site.
///
/// `Leff` deviations are expressed as multiplicative factors around 1;
/// `Vth` deviations as additive volts around the nominal.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipVariation {
    /// Additive systematic Vth deviation per core, in volts.
    pub core_vth_delta_v: Vec<f64>,
    /// Multiplicative systematic Leff factor per core.
    pub core_leff_mult: Vec<f64>,
    /// Additive systematic Vth deviation per memory site, in volts
    /// (indexed like `SitePlan::mem_sites`).
    pub mem_vth_delta_v: Vec<f64>,
}

impl ChipVariation {
    /// Builds a sampler for `plan` under `params`, using the default
    /// 11 nm technology's variation magnitudes.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] if the correlation matrix over the
    /// plan's sites cannot be factored.
    pub fn sampler(
        plan: &SitePlan,
        params: &VariationParams,
    ) -> Result<VariationSampler, FieldError> {
        Self::sampler_for_tech(plan, params, &Technology::node_11nm())
    }

    /// Builds a sampler with explicit technology variation magnitudes.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] if the correlation matrix over the
    /// plan's sites cannot be factored.
    pub fn sampler_for_tech(
        plan: &SitePlan,
        params: &VariationParams,
        tech: &Technology,
    ) -> Result<VariationSampler, FieldError> {
        // Factoring the site-correlation matrix (envelope Cholesky
        // over all core+memory sites) dominates sampler construction;
        // the span makes that cost visible per layout.
        let _span = span!("varius.field.factor");
        counter!("varius.field.factorizations").inc();
        let range = params.phi * plan.chip_w_mm;
        let field =
            CorrelatedField::new(&plan.all_points_mm(), CorrelationModel::Spherical { range })?;
        let n = field.len();
        gauge!("varius.field.envelope_occupancy_pct")
            .set(100.0 * field.factor_stored() as f64 / (n * (n + 1) / 2) as f64);
        Ok(VariationSampler {
            field,
            num_cores: plan.num_cores(),
            vth_sigma_sys_v: params.systematic_sigma(tech.vth_sigma_v()),
            leff_sigma_sys: params.systematic_sigma(tech.leff_sigma_over_mu),
        })
    }

    /// Like [`ChipVariation::sampler_for_tech`], but served from a
    /// process-wide cache keyed on everything that determines the
    /// sampler (site coordinates, correlation range, variation
    /// magnitudes). Artifact sweeps that revisit the same structure
    /// pay for assembly + factorization exactly once; hits and misses
    /// are observable as `varius.sampler_cache.{hits,misses}`.
    ///
    /// # Errors
    ///
    /// Propagates [`FieldError`] from sampler construction (the error
    /// is cached too, so a failing structure is not re-factored).
    pub fn cached_sampler_for_tech(
        plan: &SitePlan,
        params: &VariationParams,
        tech: &Technology,
    ) -> Result<Arc<VariationSampler>, FieldError> {
        let range = params.phi * plan.chip_w_mm;
        let key = SamplerKey {
            points_bits: plan
                .all_points_mm()
                .iter()
                .map(|p| (p.0.to_bits(), p.1.to_bits()))
                .collect(),
            num_cores: plan.num_cores(),
            range_bits: range.to_bits(),
            vth_sigma_bits: params.systematic_sigma(tech.vth_sigma_v()).to_bits(),
            leff_sigma_bits: params.systematic_sigma(tech.leff_sigma_over_mu).to_bits(),
        };
        // Factor outside the map lock so distinct structures (e.g. the
        // φ ablation's parallel sweep points) factor concurrently;
        // same-structure callers wait for the one factorization.
        SAMPLER_CACHE.get_or_insert_with(&key, || {
            Self::sampler_for_tech(plan, params, tech).map(Arc::new)
        })
    }
}

/// Number of correlation structures resident in the process-wide
/// sampler cache — the same value the `varius.sampler_cache.entries`
/// gauge tracks, exposed directly for the serving layer's health
/// endpoint and for tests.
pub fn sampler_cache_len() -> usize {
    SAMPLER_CACHE.len()
}

impl VariationSampler {
    /// Draws one chip instance. `Vth` and `Leff` fields use independent
    /// draws of the same spatial structure (VARIUS models them as
    /// independent parameters with their own magnitudes).
    pub fn sample(&self, rng: &mut StreamRng) -> ChipVariation {
        let _span = span!("varius.variation.sample");
        counter!("varius.chip_samples").inc();
        let n = self.field.len();
        let nc = self.num_cores;
        // The two raw field draws land in per-thread scratch; the only
        // allocations left in the hot loop are the returned vectors.
        FIELD_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            buf.resize(2 * n, 0.0);
            let (vth_field, leff_field) = buf.split_at_mut(n);
            self.field.sample_into(rng, vth_field);
            self.field.sample_into(rng, leff_field);
            let core_vth_delta_v = vth_field[..nc]
                .iter()
                .map(|z| z * self.vth_sigma_sys_v)
                .collect();
            // Leff factor floor guards against non-physical (≤0) channel
            // lengths at extreme field draws.
            let core_leff_mult = leff_field[..nc]
                .iter()
                .map(|z| (1.0 + z * self.leff_sigma_sys).max(0.5))
                .collect();
            let mem_vth_delta_v = vth_field[nc..]
                .iter()
                .map(|z| z * self.vth_sigma_sys_v)
                .collect();
            ChipVariation {
                core_vth_delta_v,
                core_leff_mult,
                mem_vth_delta_v,
            }
        })
    }

    /// Systematic Vth sigma baked into this sampler, in volts.
    pub fn vth_sigma_sys_v(&self) -> f64 {
        self.vth_sigma_sys_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_stats::rng::SeedStream;

    fn sampler() -> VariationSampler {
        let plan = SitePlan::regular_grid(6, 6, 20.0, 20.0);
        ChipVariation::sampler(&plan, &VariationParams::default()).unwrap()
    }

    #[test]
    fn sample_dimensions() {
        let s = sampler();
        let chip = s.sample(&mut SeedStream::new(1).stream("c", 0));
        assert_eq!(chip.core_vth_delta_v.len(), 36);
        assert_eq!(chip.core_leff_mult.len(), 36);
        assert_eq!(chip.mem_vth_delta_v.len(), 36);
    }

    #[test]
    fn chips_differ_but_are_reproducible() {
        let s = sampler();
        let root = SeedStream::new(9);
        let a = s.sample(&mut root.stream("chip", 0));
        let b = s.sample(&mut root.stream("chip", 1));
        let a2 = s.sample(&mut root.stream("chip", 0));
        assert_ne!(a.core_vth_delta_v, b.core_vth_delta_v);
        assert_eq!(a, a2);
    }

    #[test]
    fn vth_deviations_have_expected_magnitude() {
        let s = sampler();
        let root = SeedStream::new(17);
        let mut all = Vec::new();
        for i in 0..200 {
            let chip = s.sample(&mut root.stream("chip", i));
            all.extend(chip.core_vth_delta_v);
        }
        let sum: f64 = all.iter().sum();
        let mean = sum / all.len() as f64;
        let var: f64 = all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / all.len() as f64;
        let sigma_target =
            VariationParams::default().systematic_sigma(Technology::node_11nm().vth_sigma_v());
        assert!(mean.abs() < 0.004, "mean={mean}");
        assert!(
            (var.sqrt() - sigma_target).abs() < 0.1 * sigma_target,
            "sigma={} target={sigma_target}",
            var.sqrt()
        );
    }

    #[test]
    fn nearby_cores_correlate() {
        // Correlation range is 2 mm (φ·20); adjacent grid cores are
        // ~3.3 mm apart, so use a denser plan to see correlation.
        let plan = SitePlan::regular_grid(20, 20, 20.0, 20.0);
        let s = ChipVariation::sampler(&plan, &VariationParams::default()).unwrap();
        let root = SeedStream::new(4);
        let (mut c01, mut v0, mut v1) = (0.0, 0.0, 0.0);
        let n = 1500;
        for i in 0..n {
            let chip = s.sample(&mut root.stream("chip", i));
            // Cores 0 and 1 are 1 mm apart (20 mm / 20 cols).
            let (a, b) = (chip.core_vth_delta_v[0], chip.core_vth_delta_v[1]);
            c01 += a * b;
            v0 += a * a;
            v1 += b * b;
        }
        let corr = c01 / (v0.sqrt() * v1.sqrt());
        assert!(corr > 0.2, "adjacent-core correlation {corr}");
    }

    // The sampler cache is process-wide; tests that fill it past
    // capacity must not interleave with tests asserting entry
    // identity across consecutive calls.
    static CACHE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cached_sampler_is_shared_and_identical_to_fresh() {
        let _serial = CACHE_TESTS.lock().unwrap();
        let plan = SitePlan::regular_grid(5, 5, 20.0, 20.0);
        let params = VariationParams::default();
        let tech = Technology::node_11nm();
        let a = ChipVariation::cached_sampler_for_tech(&plan, &params, &tech).unwrap();
        let b = ChipVariation::cached_sampler_for_tech(&plan, &params, &tech).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same structure must share one entry");
        let fresh = ChipVariation::sampler_for_tech(&plan, &params, &tech).unwrap();
        let chip_cached = a.sample(&mut SeedStream::new(3).stream("c", 0));
        let chip_fresh = fresh.sample(&mut SeedStream::new(3).stream("c", 0));
        assert_eq!(chip_cached, chip_fresh, "cache must never change draws");
        // A different φ is a different structure.
        let other = ChipVariation::cached_sampler_for_tech(
            &plan,
            &VariationParams {
                phi: 0.31,
                ..VariationParams::default()
            },
            &tech,
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn sampler_cache_evicts_lru_beyond_capacity() {
        let _serial = CACHE_TESTS.lock().unwrap();
        let plan = SitePlan::regular_grid(2, 2, 20.0, 20.0);
        let tech = Technology::node_11nm();
        let cap = SAMPLER_CACHE_CAP;
        let params_for = |i: usize| VariationParams {
            // Distinct φ ⇒ distinct correlation range ⇒ distinct key.
            phi: 0.05 + 1e-4 * i as f64,
            ..VariationParams::default()
        };
        let evicted_before = accordion_telemetry::counter!("varius.sampler_cache.evictions").get();
        let first = ChipVariation::cached_sampler_for_tech(&plan, &params_for(0), &tech).unwrap();
        for i in 1..=cap + 1 {
            ChipVariation::cached_sampler_for_tech(&plan, &params_for(i), &tech).unwrap();
        }
        assert!(
            sampler_cache_len() <= cap,
            "cache grew past capacity: {} > {cap}",
            sampler_cache_len()
        );
        let evicted_after = accordion_telemetry::counter!("varius.sampler_cache.evictions").get();
        assert!(
            evicted_after > evicted_before,
            "filling past capacity must evict"
        );
        // An evicted structure is re-factored on demand and must draw
        // the same bits as the original sampler.
        let again = ChipVariation::cached_sampler_for_tech(&plan, &params_for(0), &tech).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &again),
            "structure 0 should have been evicted and rebuilt"
        );
        let a = first.sample(&mut SeedStream::new(9).stream("c", 0));
        let b = again.sample(&mut SeedStream::new(9).stream("c", 0));
        assert_eq!(a, b, "eviction must not change draws");
    }

    #[test]
    fn leff_mult_stays_positive() {
        let s = sampler();
        let root = SeedStream::new(23);
        for i in 0..100 {
            let chip = s.sample(&mut root.stream("chip", i));
            assert!(chip.core_leff_mult.iter().all(|&m| m > 0.0));
        }
    }
}
