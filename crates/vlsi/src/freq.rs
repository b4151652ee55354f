//! Frequency versus supply voltage.
//!
//! A core's maximum frequency is the inverse of its critical-path
//! delay; the path delay scales as `C·Vdd / Id(Vdd)`. The model has two
//! free constants — the velocity-saturation coefficient `θ` and an
//! overall path constant — which are calibrated against the paper's two
//! anchors: `f(Vdd_NTV) = f_nom` (1 GHz at 0.55 V) and
//! `f(Vdd_STV) = f_stv` (≈3.3 GHz at 1.0 V) for the 11 nm node.

use crate::device::{drain_current, DrainCurrent};
use crate::tech::Technology;

/// A calibrated frequency model for one technology node.
///
/// # Example
///
/// ```
/// use accordion_vlsi::{FreqModel, Technology};
///
/// let tech = Technology::node_11nm();
/// let fm = FreqModel::calibrate(&tech);
/// // The near-threshold cliff: well below Vth, frequency collapses.
/// assert!(fm.frequency_ghz(0.20, 0.0, 1.0) < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FreqModel {
    tech: Technology,
    theta: f64,
    k_path: f64,
}

impl FreqModel {
    /// Calibrates `θ` and the path constant against the node's two
    /// frequency anchors.
    ///
    /// # Panics
    ///
    /// Panics if the anchors cannot be met with `θ ∈ [0, 20]` — which
    /// would indicate a nonsensical technology description.
    pub fn calibrate(tech: &Technology) -> Self {
        // Bisection on θ for the STV/NTV frequency ratio.
        let target_ratio = tech.f_stv_ghz / tech.f_nom_ghz;
        let ratio = |theta: f64| {
            let i_ntv = drain_current(tech, tech.vdd_nom_v, 0.0, 1.0, theta);
            let i_stv = drain_current(tech, tech.vdd_stv_v, 0.0, 1.0, theta);
            (i_stv / tech.vdd_stv_v) / (i_ntv / tech.vdd_nom_v)
        };
        let (mut lo, mut hi) = (0.0, 20.0);
        assert!(
            ratio(lo) >= target_ratio && ratio(hi) <= target_ratio,
            "frequency anchors unreachable: ratio({lo})={}, ratio({hi})={}, target={target_ratio}",
            ratio(lo),
            ratio(hi)
        );
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if ratio(mid) > target_ratio {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let theta = 0.5 * (lo + hi);
        let i_ntv = drain_current(tech, tech.vdd_nom_v, 0.0, 1.0, theta);
        let k_path = tech.f_nom_ghz * tech.vdd_nom_v / i_ntv;
        Self {
            tech: tech.clone(),
            theta,
            k_path,
        }
    }

    /// The technology this model was calibrated for.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// A model with the same calibrated constants evaluated under a
    /// different technology record — for sensitivity sweeps (e.g.
    /// operating temperature) where re-anchoring would hide the very
    /// effect being studied.
    pub fn with_technology(&self, tech: &Technology) -> FreqModel {
        FreqModel {
            tech: tech.clone(),
            theta: self.theta,
            k_path: self.k_path,
        }
    }

    /// The fitted velocity-saturation coefficient.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Maximum operating frequency in GHz at `vdd_v` for a device whose
    /// local threshold deviates by `vth_delta_v` and whose channel
    /// length is scaled by `leff_mult`.
    pub fn frequency_ghz(&self, vdd_v: f64, vth_delta_v: f64, leff_mult: f64) -> f64 {
        let i = drain_current(&self.tech, vdd_v, vth_delta_v, leff_mult, self.theta);
        self.k_path * i / vdd_v
    }

    /// Critical-path delay in nanoseconds (inverse of frequency).
    pub fn path_delay_ns(&self, vdd_v: f64, vth_delta_v: f64, leff_mult: f64) -> f64 {
        1.0 / self.frequency_ghz(vdd_v, vth_delta_v, leff_mult)
    }

    /// [`Self::path_delay_ns`] of two devices that share a threshold
    /// deviation and differ only in channel length, from one EKV
    /// overdrive evaluation; each delay has the same bits as its own
    /// `path_delay_ns` call.
    pub fn path_delays_ns(&self, vdd_v: f64, vth_delta_v: f64, leff_mults: [f64; 2]) -> [f64; 2] {
        let current = DrainCurrent::at(&self.tech, vdd_v, vth_delta_v, self.theta);
        leff_mults.map(|leff_mult| 1.0 / (self.k_path * current.scaled(leff_mult) / vdd_v))
    }

    /// Sensitivity `|d(delay)/d(Vth)| / delay` (per volt) at the given
    /// operating point, computed by central finite difference. Grows
    /// sharply as `Vdd` approaches `Vth` — the root cause of NTC's
    /// variation amplification (paper Section 2.3).
    pub fn delay_vth_sensitivity(&self, vdd_v: f64) -> f64 {
        let h = 1e-4;
        let d0 = self.path_delay_ns(vdd_v, -h, 1.0);
        let d1 = self.path_delay_ns(vdd_v, h, 1.0);
        let d = self.path_delay_ns(vdd_v, 0.0, 1.0);
        ((d1 - d0) / (2.0 * h)) / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FreqModel {
        FreqModel::calibrate(&Technology::node_11nm())
    }

    #[test]
    fn anchors_hold() {
        let m = model();
        let t = m.technology().clone();
        assert!((m.frequency_ghz(t.vdd_nom_v, 0.0, 1.0) - t.f_nom_ghz).abs() < 1e-9);
        assert!((m.frequency_ghz(t.vdd_stv_v, 0.0, 1.0) - t.f_stv_ghz).abs() < 1e-6);
    }

    #[test]
    fn five_to_ten_x_slowdown_at_ntv() {
        // Paper Figure 1a: NTV costs 5–10× in frequency vs STV. Our two
        // anchors put it at 3.3×; sweeping to deeper NTV (0.45 V) the
        // slowdown must enter the 5–10× band.
        let m = model();
        let f_stv = m.frequency_ghz(1.0, 0.0, 1.0);
        let f_deep = m.frequency_ghz(0.45, 0.0, 1.0);
        let slowdown = f_stv / f_deep;
        assert!(slowdown > 5.0 && slowdown < 12.0, "slowdown={slowdown}");
    }

    #[test]
    fn monotone_in_vdd() {
        let m = model();
        let mut prev = 0.0;
        for k in 4..=30 {
            let f = m.frequency_ghz(0.04 * k as f64, 0.0, 1.0);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn sensitivity_explodes_near_threshold() {
        let m = model();
        let s_ntv = m.delay_vth_sensitivity(0.45).abs();
        let s_stv = m.delay_vth_sensitivity(1.0).abs();
        assert!(
            s_ntv > 2.0 * s_stv,
            "NTV sensitivity {s_ntv} should dwarf STV {s_stv}"
        );
    }

    #[test]
    fn delay_is_inverse_frequency() {
        let m = model();
        let f = m.frequency_ghz(0.6, 0.01, 1.02);
        let d = m.path_delay_ns(0.6, 0.01, 1.02);
        assert!((f * d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_works_for_22nm_too() {
        let m = FreqModel::calibrate(&Technology::node_22nm());
        let t = m.technology().clone();
        assert!((m.frequency_ghz(t.vdd_nom_v, 0.0, 1.0) - t.f_nom_ghz).abs() < 1e-9);
        assert!((m.frequency_ghz(t.vdd_stv_v, 0.0, 1.0) - t.f_stv_ghz).abs() < 1e-6);
    }
}
