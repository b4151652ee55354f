//! EKV-based transistor model, smooth across the threshold.
//!
//! The standard alpha-power law breaks down near and below `Vth`; the
//! EKV interpolation stays accurate from sub-threshold (exponential
//! current) through super-threshold (square-law, damped by velocity
//! saturation), which is exactly the regime NTC sweeps across. The same
//! current expression underlies VARIUS-NTV's delay model.

use crate::tech::Technology;

/// Effective threshold voltage after DIBL: `Vth − λ·Vdd`.
pub fn vth_effective(tech: &Technology, vdd_v: f64, vth_v: f64) -> f64 {
    vth_v - tech.dibl_lambda * vdd_v
}

/// Normalized EKV saturation drain current (arbitrary units, scaled by
/// the caller's path constant).
///
/// `I ∝ (n φt² / Leff) · ln²(1 + exp((Vdd − Vth,eff) / (2 n φt))) / (1 + θ·max(0, Vdd − Vth,eff))`
///
/// * `vth_delta_v` shifts the local threshold (process variation),
/// * `leff_mult` scales the local channel length (variation; > 1 means
///   a longer, slower device),
/// * `theta` is the velocity-saturation coefficient fitted during
///   frequency calibration.
pub fn drain_current(
    tech: &Technology,
    vdd_v: f64,
    vth_delta_v: f64,
    leff_mult: f64,
    theta: f64,
) -> f64 {
    DrainCurrent::at(tech, vdd_v, vth_delta_v, theta).scaled(leff_mult)
}

/// The `Leff`-independent parts of [`drain_current`] at one overdrive:
/// the numerator `n φt² · ln²(1 + eˣ)` and the velocity-saturation
/// denominator `1 + θ·max(0, Vdd − Vth,eff)`. Devices that differ only
/// in channel length share one of these, and so one `ln(1 + eˣ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainCurrent {
    num: f64,
    den: f64,
}

impl DrainCurrent {
    /// The parts at `vdd_v` for a threshold shifted by `vth_delta_v`.
    pub fn at(tech: &Technology, vdd_v: f64, vth_delta_v: f64, theta: f64) -> Self {
        assert!(vdd_v > 0.0, "supply voltage must be positive");
        let phi_t = tech.thermal_voltage_v();
        let n = tech.subthreshold_n;
        let vth = vth_effective(tech, vdd_v, tech.vth_nom_v + vth_delta_v);
        let overdrive = vdd_v - vth;
        let x = overdrive / (2.0 * n * phi_t);
        // ln(1 + e^x) computed stably for both signs of x.
        let ln1pex = if x > 30.0 { x } else { x.exp().ln_1p() };
        Self {
            num: n * phi_t * phi_t * ln1pex * ln1pex,
            den: 1.0 + theta * overdrive.max(0.0),
        }
    }

    /// The current of a device whose channel length is scaled by
    /// `leff_mult`: `num / Leff / den`, in [`drain_current`]'s order of
    /// operations, so both give the same bits.
    pub fn scaled(self, leff_mult: f64) -> f64 {
        assert!(leff_mult > 0.0, "Leff multiplier must be positive");
        self.num / leff_mult / self.den
    }
}

/// Normalized sub-threshold leakage current at `Vgs = 0`:
/// `I_leak ∝ exp(−Vth,eff / (n φt)) · (1 − exp(−Vdd/φt)) / Leff`.
///
/// DIBL makes leakage grow with `Vdd`; lowering `Vth` (fast corners)
/// raises it exponentially — the classic leakage/speed trade-off that
/// makes variation-afflicted fast cores power-hungry.
pub fn leakage_current(tech: &Technology, vdd_v: f64, vth_delta_v: f64, leff_mult: f64) -> f64 {
    assert!(vdd_v >= 0.0, "supply voltage must be non-negative");
    assert!(leff_mult > 0.0, "Leff multiplier must be positive");
    let phi_t = tech.thermal_voltage_v();
    let n = tech.subthreshold_n;
    let vth = vth_effective(tech, vdd_v, tech.vth_nom_v + vth_delta_v);
    (-vth / (n * phi_t)).exp() * (1.0 - (-vdd_v / phi_t).exp()) / leff_mult
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::node_11nm()
    }

    #[test]
    fn current_increases_with_vdd() {
        let t = tech();
        let mut prev = 0.0;
        for k in 1..=24 {
            let v = 0.05 * k as f64;
            let i = drain_current(&t, v, 0.0, 1.0, 0.7);
            assert!(i > prev, "current must grow with Vdd at {v}");
            prev = i;
        }
    }

    #[test]
    fn current_decreases_with_vth() {
        let t = tech();
        let lo = drain_current(&t, 0.55, 0.05, 1.0, 0.7);
        let hi = drain_current(&t, 0.55, -0.05, 1.0, 0.7);
        assert!(hi > lo);
    }

    #[test]
    fn longer_channel_is_slower() {
        let t = tech();
        let long = drain_current(&t, 0.55, 0.0, 1.1, 0.7);
        let short = drain_current(&t, 0.55, 0.0, 0.9, 0.7);
        assert!(short > long);
    }

    #[test]
    fn subthreshold_current_is_exponential() {
        // Below threshold, decreasing Vdd by one subthreshold swing
        // (n·φt·ln10 per decade of current) should cut current ~10×
        // (DIBL makes it slightly more).
        let t = tech();
        let phi_t = t.thermal_voltage_v();
        let swing = t.subthreshold_n * phi_t * std::f64::consts::LN_10;
        let i1 = drain_current(&t, 0.25, 0.0, 1.0, 0.7);
        let i2 = drain_current(&t, 0.25 - swing, 0.0, 1.0, 0.7);
        let ratio = i1 / i2;
        assert!(ratio > 8.0 && ratio < 20.0, "per-decade ratio {ratio}");
    }

    #[test]
    fn leakage_grows_with_vdd_via_dibl() {
        let t = tech();
        let lo = leakage_current(&t, 0.55, 0.0, 1.0);
        let hi = leakage_current(&t, 1.0, 0.0, 1.0);
        assert!(hi > lo);
        // The DIBL factor e^(λ·ΔV/(nφt)) ≈ e^(0.08·0.45/0.0456) ≈ 2.2.
        let ratio = hi / lo;
        assert!(ratio > 1.8 && ratio < 3.0, "leakage ratio {ratio}");
    }

    #[test]
    fn leakage_explodes_for_low_vth() {
        let t = tech();
        let nominal = leakage_current(&t, 0.55, 0.0, 1.0);
        let fast = leakage_current(&t, 0.55, -0.10, 1.0);
        assert!(fast / nominal > 5.0);
    }

    #[test]
    fn zero_vdd_leaks_nothing() {
        let t = tech();
        assert_eq!(leakage_current(&t, 0.0, 0.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_vdd_rejected() {
        drain_current(&tech(), -0.1, 0.0, 1.0, 0.7);
    }
}
