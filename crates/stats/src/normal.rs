//! The standard normal distribution: `erf`, CDF `Φ`, inverse CDF `Φ⁻¹`.
//!
//! The variation model needs both tails of the normal distribution at
//! extreme quantiles (timing-error rates down to 1e-16), so the CDF is
//! implemented via a high-accuracy complementary error function and the
//! inverse via Acklam's rational approximation refined with one Halley
//! step.

/// The standard normal distribution (μ = 0, σ = 1).
///
/// # Example
///
/// ```
/// use accordion_stats::normal::StdNormal;
///
/// let z = StdNormal.inv_cdf(0.995);
/// assert!((StdNormal.cdf(z) - 0.995).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StdNormal;

impl StdNormal {
    /// Cumulative distribution function `Φ(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    /// Upper-tail probability `1 − Φ(x)`, accurate for large `x`.
    pub fn sf(&self, x: f64) -> f64 {
        0.5 * erfc(x / std::f64::consts::SQRT_2)
    }

    /// Inverse CDF (quantile function) `Φ⁻¹(p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile argument must be in (0,1), got {p}"
        );
        let x = acklam_inv_cdf(p);
        // One Halley refinement step using the accurate cdf.
        let e = self.cdf(x) - p;
        let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
        x - u / (1.0 + x * u / 2.0)
    }

    /// Natural log of the upper-tail probability, usable far beyond the
    /// range where `sf` underflows to zero (|x| up to ~1e8).
    pub fn log_sf(&self, x: f64) -> f64 {
        if x < 30.0 {
            let s = self.sf(x);
            if s > 0.0 {
                return s.ln();
            }
        }
        // Asymptotic expansion: ln(φ(x)/x · (1 − 1/x² + 3/x⁴ − …))
        let x2 = x * x;
        -0.5 * x2 - x.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
            + (1.0 - 1.0 / x2 + 3.0 / (x2 * x2)).ln()
    }
}

/// The error function `erf(x)`, |error| < 1.2e-7 everywhere and much
/// better than that away from zero (complement computed directly).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x)`.
///
/// Uses the Chebyshev-fitted expansion from Numerical Recipes (erfccheb)
/// with double-precision coefficients; relative error below 1e-12 on the
/// positive axis, with symmetry `erfc(-x) = 2 − erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        erfc_positive(x)
    } else {
        2.0 - erfc_positive(-x)
    }
}

/// Chebyshev coefficients for erfc on x ≥ 0 (Numerical Recipes 3rd ed.).
const ERFC_COF: [f64; 28] = [
    -1.3026537197817094,
    6.419_697_923_564_902e-1,
    1.9476473204185836e-2,
    -9.561_514_786_808_63e-3,
    -9.46595344482036e-4,
    3.66839497852761e-4,
    4.2523324806907e-5,
    -2.0278578112534e-5,
    -1.624290004647e-6,
    1.303655835580e-6,
    1.5626441722e-8,
    -8.5238095915e-8,
    6.529054439e-9,
    5.059343495e-9,
    -9.91364156e-10,
    -2.27365122e-10,
    9.6467911e-11,
    2.394038e-12,
    -6.886027e-12,
    8.94487e-13,
    3.13092e-13,
    -1.12708e-13,
    3.81e-16,
    7.106e-15,
    -1.523e-15,
    -9.4e-17,
    1.21e-16,
    -2.8e-17,
];

fn erfc_positive(z: f64) -> f64 {
    debug_assert!(z >= 0.0);
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0;
    let mut dd = 0.0;
    for j in (1..ERFC_COF.len()).rev() {
        let tmp = d;
        d = ty * d - dd + ERFC_COF[j];
        dd = tmp;
    }
    t * (-z * z + 0.5 * (ERFC_COF[0] + ty * d) - dd).exp()
}

/// Acklam's rational approximation to the normal quantile function.
fn acklam_inv_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-9, "erf({x})");
        }
    }

    #[test]
    fn erfc_deep_tail() {
        // erfc(5) = 1.5374597944280347e-12
        assert!((erfc(5.0) / 1.5374597944280347e-12 - 1.0).abs() < 1e-6);
        // erfc(8) = 1.1224297172982928e-29
        assert!((erfc(8.0) / 1.1224297172982928e-29 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cdf_symmetry() {
        let n = StdNormal;
        for &x in &[0.1, 0.7, 1.3, 2.9, 4.4] {
            assert!((n.cdf(x) + n.cdf(-x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn sf_matches_known_quantiles() {
        let n = StdNormal;
        assert!((n.sf(1.6448536269514722) - 0.05).abs() < 1e-10);
        assert!((n.sf(3.090232306167813) - 0.001).abs() < 1e-10);
    }

    #[test]
    fn inv_cdf_round_trip() {
        let n = StdNormal;
        for &p in &[1e-12, 1e-6, 0.01, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-9] {
            let x = n.inv_cdf(p);
            assert!(
                (n.cdf(x) - p).abs() / p.min(1.0 - p).max(1e-300) < 1e-6,
                "p={p}"
            );
        }
    }

    #[test]
    fn log_sf_extends_past_underflow() {
        let n = StdNormal;
        // At x = 9 the direct sf still works; compare the two paths.
        let direct = n.sf(9.0).ln();
        assert!((n.log_sf(9.0) - direct).abs() < 1e-6);
        // At x = 60 the direct path would underflow; log path stays finite.
        let l = n.log_sf(60.0);
        assert!(l.is_finite() && l < -1000.0);
    }

    #[test]
    #[should_panic(expected = "quantile argument")]
    fn inv_cdf_rejects_out_of_range() {
        StdNormal.inv_cdf(1.5);
    }
}
