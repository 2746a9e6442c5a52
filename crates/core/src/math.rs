//! Numerical primitives for the samplers.
//!
//! The likelihood works in log space throughout: a path's non-damping
//! probability is `exp(Σ log q_i)`, which underflows quickly for long
//! paths with small `q`, so the damping branch `log(1 − ∏ q_i)` is
//! evaluated as `log1mexp(Σ log q_i)` with the standard numerically-stable
//! split.

/// `1 − e^x` for `x ≤ 0`, held in the form the Mächler split computes it
/// with one `expm1` or `exp`: the single definition of that branch, behind
/// both [`log1mexp`] and the HMC gradient's per-path odds.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OneMinusExp {
    /// `x > −ln 2`: `m = −expm1(x) = 1 − e^x`, in `[0, ½)`.
    Near(f64),
    /// `x ≤ −ln 2`: `e = exp(x) = e^x`, in `[0, ½]`.
    Far(f64),
}

impl OneMinusExp {
    /// Split `x ≤ 0`. Costs one `expm1` or one `exp`; `x > 0` is invalid
    /// input (debug-asserted).
    #[inline]
    pub(crate) fn new(x: f64) -> Self {
        debug_assert!(x <= 0.0, "1 − e^x needs x ≤ 0, got {x}");
        if x == 0.0 {
            // `−expm1(0.0)` is `−0.0`, whose odds would be `−∞`.
            OneMinusExp::Near(0.0)
        } else if x > -std::f64::consts::LN_2 {
            OneMinusExp::Near(-x.exp_m1())
        } else {
            OneMinusExp::Far(x.exp())
        }
    }

    /// `log(1 − e^x)`: `ln m` or `ln_1p(−e)`.
    #[inline]
    pub(crate) fn ln(self) -> f64 {
        match self {
            OneMinusExp::Near(m) => m.ln(),
            OneMinusExp::Far(e) => (-e).ln_1p(),
        }
    }

    /// The odds `e^x / (1 − e^x)`: `(1 − m)/m` or `e/(1 − e)`, without a
    /// further transcendental. `+∞` at `x = 0`.
    #[inline]
    pub(crate) fn odds(self) -> f64 {
        match self {
            OneMinusExp::Near(m) => (1.0 - m) / m,
            OneMinusExp::Far(e) => e / (1.0 - e),
        }
    }
}

/// `log(1 − e^x)` for `x < 0`, numerically stable.
///
/// Uses the Mächler split (`OneMinusExp`, shared with HMC's gradient):
/// `log(−expm1(x))` for `x > −ln 2`, otherwise `log1p(−exp(x))`. Returns
/// `−∞` at `x = 0` (the event is impossible) and `NaN` for `x > 0`
/// (invalid input, debug-asserted).
#[inline]
pub fn log1mexp(x: f64) -> f64 {
    OneMinusExp::new(x).ln()
}

/// The logistic sigmoid `1 / (1 + e^{−x})`, stable for large `|x|`.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The logit `ln(p / (1 − p))`, inverse of [`sigmoid`]. Input is clamped
/// away from 0 and 1 so boundary values stay finite.
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    (p / (1.0 - p)).ln()
}

/// `log(e^a + e^b)` without overflow.
pub fn logaddexp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// `log Γ(x)` via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for positive arguments — used by Beta prior normalisation.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma needs a positive argument, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `log B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Inverse of the standard normal CDF, `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (relative error < 1.15e-9 across the
/// full domain), used by the rank-normalization step of the modern
/// convergence diagnostics. Returns `±∞` at the boundaries and `NaN`
/// outside `[0, 1]`.
pub fn inv_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239e0,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838e0,
        -2.549732539343734e0,
        4.374664141464968e0,
        2.938163982698783e0,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996e0,
        3.754408661907416e0,
    ];
    const P_LOW: f64 = 0.024_25;

    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail, by symmetry.
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log1mexp_matches_naive_in_safe_range() {
        for &x in &[-0.1_f64, -0.5, -1.0, -3.0, -10.0] {
            let naive = (1.0 - x.exp()).ln();
            assert!((log1mexp(x) - naive).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn log1mexp_extremes() {
        assert_eq!(log1mexp(0.0), f64::NEG_INFINITY);
        // Tiny |x|: 1 − e^x ≈ −x; naive evaluation would lose precision.
        let x = -1e-15;
        assert!((log1mexp(x) - (-x).ln()).abs() < 1e-6);
        // Very negative x: result ≈ −e^x ≈ 0⁻.
        assert!(log1mexp(-100.0).abs() < 1e-40);
    }

    /// The form [`log1mexp`] had before it delegated to [`OneMinusExp`].
    fn log1mexp_inline(x: f64) -> f64 {
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x > -std::f64::consts::LN_2 {
            (-x.exp_m1()).ln()
        } else {
            (-x.exp()).ln_1p()
        }
    }

    #[test]
    fn one_minus_exp_keeps_log1mexp_bits_and_gives_the_odds() {
        let ln_2 = std::f64::consts::LN_2;
        let mut xs = vec![
            0.0,
            -0.0,
            -1e-300,
            -1e-15,
            -1e-9,
            -0.3,
            -ln_2,
            -ln_2 * (1.0 + f64::EPSILON),
            -1.0,
            -20.7,
            -745.0,
            -800.0,
            f64::NEG_INFINITY,
        ];
        xs.push(f64::from_bits((-ln_2).to_bits() - 1)); // just above −ln 2
        for k in 1..2000 {
            xs.push(-(k as f64) * 0.0173);
        }
        for x in xs {
            let split = OneMinusExp::new(x);
            assert_eq!(log1mexp(x).to_bits(), log1mexp_inline(x).to_bits(), "x={x}");
            assert_eq!(split.ln().to_bits(), log1mexp(x).to_bits(), "x={x}");
            // The odds against the old `exp(x − log1mexp(x))`.
            let odds = split.odds();
            let reference = (x - log1mexp(x)).exp();
            if x == 0.0 {
                assert_eq!(odds, f64::INFINITY);
                assert_eq!(reference, f64::INFINITY);
            } else {
                assert!(
                    (odds - reference).abs() <= 1e-12 * reference,
                    "x={x}: odds {odds} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_logit_roundtrip() {
        for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-12, "p={p}");
        }
        // |x| ≤ 20 stays inside the 1e-12 boundary clamp of `logit`; the
        // tolerance allows for the catastrophic cancellation in 1 − p
        // near the saturated end.
        for &x in &[-20.0, -1.0, 0.0, 1.0, 20.0] {
            assert!((logit(sigmoid(x)) - x).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn sigmoid_saturates_without_nan() {
        assert!((sigmoid(800.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(-800.0) < 1e-300);
    }

    #[test]
    fn logit_clamps_boundaries() {
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
        assert!(logit(0.0) < -20.0);
        assert!(logit(1.0) > 20.0);
    }

    #[test]
    fn logaddexp_basic() {
        let v = logaddexp(1.0_f64.ln(), 2.0_f64.ln());
        assert!((v - 3.0_f64.ln()).abs() < 1e-12);
        assert_eq!(logaddexp(f64::NEG_INFINITY, 5.0), 5.0);
        assert_eq!(logaddexp(5.0, f64::NEG_INFINITY), 5.0);
        // Large magnitudes must not overflow.
        let v = logaddexp(1000.0, 1000.0);
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x) over a range of x.
        for i in 1..50 {
            let x = i as f64 * 0.3;
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn inv_normal_cdf_known_quantiles() {
        // Reference values from the standard normal tables.
        let cases = [
            (0.5, 0.0),
            (0.8413447460685429, 1.0), // Φ(1)
            (0.9772498680518208, 2.0), // Φ(2)
            (0.05, -1.6448536269514722),
            (0.975, 1.959963984540054),
            (0.001, -3.090232306167813),
        ];
        for (p, z) in cases {
            let got = inv_normal_cdf(p);
            assert!((got - z).abs() < 2e-8, "p={p}: got {got}, want {z}");
        }
    }

    #[test]
    fn inv_normal_cdf_symmetry_and_edges() {
        for &p in &[0.001, 0.024, 0.3, 0.49] {
            let lo = inv_normal_cdf(p);
            let hi = inv_normal_cdf(1.0 - p);
            assert!((lo + hi).abs() < 1e-9, "p={p}: {lo} vs {hi}");
        }
        // Monotone across the branch boundaries at p = 0.02425.
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let z = inv_normal_cdf(i as f64 / 1000.0);
            assert!(z > prev, "not monotone at p={}", i as f64 / 1000.0);
            prev = z;
        }
        assert_eq!(inv_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_normal_cdf(1.0), f64::INFINITY);
        assert!(inv_normal_cdf(-0.1).is_nan());
        assert!(inv_normal_cdf(1.1).is_nan());
        assert!(inv_normal_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn ln_beta_symmetry_and_value() {
        assert!((ln_beta(2.0, 3.0) - ln_beta(3.0, 2.0)).abs() < 1e-12);
        // B(2,3) = 1/12.
        assert!((ln_beta(2.0, 3.0) - (1.0 / 12.0_f64).ln()).abs() < 1e-10);
        // B(1,1) = 1.
        assert!(ln_beta(1.0, 1.0).abs() < 1e-10);
    }
}
