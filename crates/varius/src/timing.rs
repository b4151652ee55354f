//! Per-core timing under variation: path-delay distributions, the
//! per-cycle timing-error rate `Perr(f)` and frequency solvers.
//!
//! This is the model behind Figure 5b: each core has `Ncp` critical
//! paths whose delays are normally distributed around the systematic
//! (core-specific) mean; clocking faster than the slow tail can settle
//! produces timing errors at a per-cycle rate
//!
//! `Perr(f) = 1 − Φ((1/f − μ)/σ)^Ncp`
//!
//! which rises from "never" (1e-16) to "every cycle" within a narrow
//! frequency band — the knee shape of the paper's per-cluster curves.

use crate::params::VariationParams;
use accordion_stats::normal::StdNormal;
use accordion_vlsi::freq::FreqModel;

/// Timing model of one core at a fixed supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTiming {
    /// Mean critical-path delay in ns.
    mu_ns: f64,
    /// Path-delay standard deviation in ns (random variation averaged
    /// over the path's logic depth).
    sigma_ns: f64,
    /// Number of critical paths competing each cycle.
    ncp: usize,
}

impl CoreTiming {
    /// Builds the timing model of a core whose systematic deviations
    /// are `vth_delta_v` / `leff_mult`, operating at `vdd_v`.
    ///
    /// The random component's effect on delay is obtained by
    /// finite-difference propagation through the calibrated frequency
    /// model, which keeps the (strong) nonlinearity of delay-vs-Vth
    /// near threshold.
    pub fn new(
        fm: &FreqModel,
        params: &VariationParams,
        vdd_v: f64,
        vth_delta_v: f64,
        leff_mult: f64,
    ) -> Self {
        let (s_vth, s_leff) = Self::path_sigmas(fm, params);
        let (mu_ns, sigma_ns) =
            Self::delay_moments(fm, vdd_v, vth_delta_v, leff_mult, s_vth, s_leff);
        Self::from_moments(mu_ns, sigma_ns, params.critical_paths_per_core)
    }

    /// A core whose delay moments are already known.
    pub(crate) fn from_moments(mu_ns: f64, sigma_ns: f64, ncp: usize) -> Self {
        Self {
            mu_ns,
            sigma_ns,
            ncp,
        }
    }

    /// The random per-path `(Vth, Leff)` sigmas. They depend only on
    /// the technology and the variation parameters, so a chip computes
    /// them once for all of its cores.
    pub(crate) fn path_sigmas(fm: &FreqModel, params: &VariationParams) -> (f64, f64) {
        let tech = fm.technology();
        let s_vth = params.random_sigma_per_path(tech.vth_sigma_v(), tech.critical_path_stages);
        let s_leff =
            params.random_sigma_per_path(tech.leff_sigma_over_mu, tech.critical_path_stages);
        (s_vth, s_leff)
    }

    /// Mean and sigma of a core's critical-path delay in ns, given its
    /// systematic corner and the per-path sigmas of
    /// [`Self::path_sigmas`].
    pub(crate) fn delay_moments(
        fm: &FreqModel,
        vdd_v: f64,
        vth_delta_v: f64,
        leff_mult: f64,
        s_vth: f64,
        s_leff: f64,
    ) -> (f64, f64) {
        // The nominal and the long-channel corner share an overdrive,
        // so one EKV evaluation prices both.
        let [mu_ns, long_ns] =
            fm.path_delays_ns(vdd_v, vth_delta_v, [leff_mult, leff_mult * (1.0 + s_leff)]);
        // One-sided differences toward the slow corner: delay is convex
        // in Vth near threshold, and the slow tail is what matters.
        let d_vth = fm.path_delay_ns(vdd_v, vth_delta_v + s_vth, leff_mult) - mu_ns;
        let d_leff = long_ns - mu_ns;
        let sigma_ns = (d_vth * d_vth + d_leff * d_leff).sqrt().max(1e-9 * mu_ns);
        (mu_ns, sigma_ns)
    }

    /// Mean critical-path delay in ns.
    pub fn mean_delay_ns(&self) -> f64 {
        self.mu_ns
    }

    /// Path-delay sigma in ns.
    pub fn sigma_delay_ns(&self) -> f64 {
        self.sigma_ns
    }

    /// Per-cycle timing-error probability when clocked at `f_ghz`.
    pub fn perr(&self, f_ghz: f64) -> f64 {
        assert!(f_ghz > 0.0, "frequency must be positive");
        let t_ns = 1.0 / f_ghz;
        let z = (t_ns - self.mu_ns) / self.sigma_ns;
        let p_path = StdNormal.sf(z);
        if p_path <= 0.0 {
            return 0.0;
        }
        if p_path >= 1.0 {
            return 1.0;
        }
        // 1 − (1 − p)^N, computed stably for tiny p and huge N.
        -f64::ln_1p(-p_path).mul_add(self.ncp as f64, 0.0).exp_m1()
    }

    /// The highest frequency whose per-cycle error rate does not
    /// exceed `perr_target` — `f_NTV,Safe` when the target is the
    /// "error-free" rate of [`VariationParams::perr_safe_target`].
    ///
    /// # Panics
    ///
    /// Panics if `perr_target` is not in `(0, 1)`.
    pub fn frequency_for_perr(&self, perr_target: f64) -> f64 {
        self.frequency_at_z(Self::z_for_perr(self.ncp, perr_target))
    }

    /// The slow-tail quantile `z = Φ̄⁻¹(1 − (1−Perr)^(1/N))` shared by
    /// every core with the same path count: the `inv_cdf` inversion
    /// depends only on `(ncp, perr_target)`, so cluster-level solvers
    /// compute it once and reuse it across member cores.
    ///
    /// # Panics
    ///
    /// Panics if `perr_target` is not in `(0, 1)`.
    pub(crate) fn z_for_perr(ncp: usize, perr_target: f64) -> f64 {
        assert!(
            perr_target > 0.0 && perr_target < 1.0,
            "error-rate target must be in (0,1)"
        );
        // Invert analytically: Perr = 1 − (1−p)^N  ⇒
        // p = 1 − (1−Perr)^(1/N), then z = Φ̄⁻¹(p), t = μ + zσ.
        let n = ncp as f64;
        // ln(1−p) = ln(1−Perr)/N; for tiny Perr this is −Perr/N.
        let ln_1m_p = f64::ln_1p(-perr_target) / n;
        let p_path = -f64::exp_m1(ln_1m_p);
        -StdNormal.inv_cdf(p_path.clamp(1e-300, 1.0 - 1e-16))
    }

    /// Frequency whose period sits `z` path-sigmas above the mean
    /// delay — the cheap per-core half of [`Self::frequency_for_perr`].
    #[inline]
    pub(crate) fn frequency_at_z(&self, z: f64) -> f64 {
        let t_ns = self.mu_ns + z * self.sigma_ns;
        1.0 / t_ns
    }

    /// Convenience: the safe frequency under `params`.
    pub fn safe_frequency_ghz(&self, params: &VariationParams) -> f64 {
        self.frequency_for_perr(params.perr_safe_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_vlsi::tech::Technology;
    use proptest::prelude::*;

    /// The three-`path_delay_ns` form of [`CoreTiming::delay_moments`],
    /// kept as the oracle its shared-overdrive form must equal bit for
    /// bit.
    fn delay_moments_oracle(
        fm: &FreqModel,
        vdd_v: f64,
        vth_delta_v: f64,
        leff_mult: f64,
        s_vth: f64,
        s_leff: f64,
    ) -> (f64, f64) {
        let mu_ns = fm.path_delay_ns(vdd_v, vth_delta_v, leff_mult);
        let d_vth = fm.path_delay_ns(vdd_v, vth_delta_v + s_vth, leff_mult) - mu_ns;
        let d_leff = fm.path_delay_ns(vdd_v, vth_delta_v, leff_mult * (1.0 + s_leff)) - mu_ns;
        let sigma_ns = (d_vth * d_vth + d_leff * d_leff).sqrt().max(1e-9 * mu_ns);
        (mu_ns, sigma_ns)
    }

    /// The calibrated model re-evaluated at `temperature_k`, with the
    /// moments of a core `vth_sigmas` systematic sigmas off nominal,
    /// from both forms, as bits.
    fn both_moments(
        temperature_k: f64,
        vdd_v: f64,
        vth_sigmas: f64,
        leff_mult: f64,
    ) -> ([u64; 2], [u64; 2]) {
        let (fm, p) = fixture();
        let tech = Technology {
            temperature_k,
            ..fm.technology().clone()
        };
        let fm = fm.with_technology(&tech);
        let (s_vth, s_leff) = CoreTiming::path_sigmas(&fm, &p);
        let dv = vth_sigmas * tech.vth_sigma_v();
        let (mu, sigma) = CoreTiming::delay_moments(&fm, vdd_v, dv, leff_mult, s_vth, s_leff);
        let (mu_o, sigma_o) = delay_moments_oracle(&fm, vdd_v, dv, leff_mult, s_vth, s_leff);
        (
            [mu.to_bits(), sigma.to_bits()],
            [mu_o.to_bits(), sigma_o.to_bits()],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Draws span the paper's 353 K down to 77 K, where a strong
        /// overdrive takes `ln(1 + eˣ)`'s `x > 30` branch.
        #[test]
        fn delay_moments_equal_the_three_evaluation_oracle(
            vdd_v in 0.3f64..1.2,
            vth_sigmas in -6.0f64..6.0,
            leff_mult in 0.8f64..1.2,
            temperature_k in 77.0f64..400.0,
        ) {
            let (got, want) = both_moments(temperature_k, vdd_v, vth_sigmas, leff_mult);
            prop_assert_eq!(
                got,
                want,
                "T={} K, Vdd={} V, {} sigma, Leff x{}",
                temperature_k,
                vdd_v,
                vth_sigmas,
                leff_mult
            );
        }
    }

    #[test]
    fn delay_moments_equal_the_oracle_on_the_saturated_branch() {
        // 77 K, 1.2 V, a −6σ threshold: x = overdrive / (2 n φt) > 30.
        let tech = Technology {
            temperature_k: 77.0,
            ..Technology::node_11nm()
        };
        let vdd_v = 1.2;
        let vth = tech.vth_nom_v - 6.0 * tech.vth_sigma_v() - tech.dibl_lambda * vdd_v;
        let x = (vdd_v - vth) / (2.0 * tech.subthreshold_n * tech.thermal_voltage_v());
        assert!(x > 30.0, "x = {x}");
        let (got, want) = both_moments(77.0, vdd_v, -6.0, 0.8);
        assert_eq!(got, want);
    }

    fn fixture() -> (FreqModel, VariationParams) {
        (
            FreqModel::calibrate(&Technology::node_11nm()),
            VariationParams::default(),
        )
    }

    fn nominal_core() -> (CoreTiming, VariationParams) {
        let (fm, p) = fixture();
        (CoreTiming::new(&fm, &p, 0.55, 0.0, 1.0), p)
    }

    #[test]
    fn perr_monotone_in_frequency() {
        let (ct, _) = nominal_core();
        let mut prev = 0.0;
        for k in 1..=40 {
            let f = 0.05 * k as f64;
            let p = ct.perr(f);
            assert!(p >= prev - 1e-18, "perr must not decrease (f={f})");
            prev = p;
        }
    }

    #[test]
    fn perr_saturates_at_one_beyond_mean_delay() {
        let (ct, _) = nominal_core();
        let f_at_mu = 1.0 / ct.mean_delay_ns();
        assert!(ct.perr(1.5 * f_at_mu) > 0.999999);
    }

    #[test]
    fn safe_frequency_hits_target_rate() {
        let (ct, p) = nominal_core();
        let f_safe = ct.safe_frequency_ghz(&p);
        let perr = ct.perr(f_safe);
        // Within an order of magnitude at these extreme quantiles.
        assert!(
            perr < 10.0 * p.perr_safe_target && perr > 0.01 * p.perr_safe_target,
            "perr at safe f = {perr}"
        );
    }

    #[test]
    fn safe_frequency_below_nominal() {
        // Guardbanding for 1e-16 must cost frequency vs the nominal
        // (variation-free) 1 GHz point.
        let (ct, p) = nominal_core();
        let f_safe = ct.safe_frequency_ghz(&p);
        assert!(f_safe < 1.0, "safe f = {f_safe}");
        assert!(f_safe > 0.3, "safe f = {f_safe} is implausibly low");
    }

    #[test]
    fn speculative_frequency_exceeds_safe() {
        // Tolerating 1e-9 errors/cycle buys frequency over 1e-16.
        let (ct, p) = nominal_core();
        let f_safe = ct.safe_frequency_ghz(&p);
        let f_spec = ct.frequency_for_perr(1e-9);
        assert!(f_spec > f_safe);
        // Paper Section 6.3 reports 8–41 % speculative f gain; a single
        // nominal core at a mild target should land in single digits to
        // tens of percent.
        let gain = f_spec / f_safe - 1.0;
        assert!(gain > 0.005 && gain < 0.6, "gain={gain}");
    }

    #[test]
    fn slow_core_has_lower_safe_frequency() {
        let (fm, p) = fixture();
        let nominal = CoreTiming::new(&fm, &p, 0.55, 0.0, 1.0);
        let slow = CoreTiming::new(&fm, &p, 0.55, 0.05, 1.05);
        assert!(slow.safe_frequency_ghz(&p) < nominal.safe_frequency_ghz(&p));
    }

    #[test]
    fn higher_vdd_speeds_up_and_tightens() {
        let (fm, p) = fixture();
        let ntv = CoreTiming::new(&fm, &p, 0.55, 0.0, 1.0);
        let stv = CoreTiming::new(&fm, &p, 1.0, 0.0, 1.0);
        assert!(stv.safe_frequency_ghz(&p) > 2.0 * ntv.safe_frequency_ghz(&p));
        // Relative sigma shrinks at STV (variation is amplified at NTV).
        let rel_ntv = ntv.sigma_delay_ns() / ntv.mean_delay_ns();
        let rel_stv = stv.sigma_delay_ns() / stv.mean_delay_ns();
        assert!(rel_ntv > 2.0 * rel_stv);
    }

    #[test]
    fn figure5b_knee_is_narrow() {
        // The climb from 1e-16 to ~1 should span well under 2× in f.
        let (ct, p) = nominal_core();
        let f_lo = ct.safe_frequency_ghz(&p);
        let f_hi = ct.frequency_for_perr(0.5);
        assert!(f_hi / f_lo < 2.0, "knee width {}", f_hi / f_lo);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn perr_target_validated() {
        let (ct, _) = nominal_core();
        ct.frequency_for_perr(0.0);
    }
}
