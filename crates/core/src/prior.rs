//! Prior distributions over each node's proportion `p_i`.
//!
//! The paper (§3.2) tests uniform and Beta priors and finds the data
//! dominates for most ASs; the prior mainly shapes the *no-data* marginals
//! (Fig. 9(d) shows a recovered Beta prior). The default used throughout
//! the reproduction is `Beta(1, 4)` — mass near zero, encoding "most ASs
//! do not damp" — with the uniform available for sensitivity runs.

use netsim::SimRng;
use serde::{Deserialize, Serialize};

use crate::likelihood::clamp_p;
use crate::math::ln_beta;

/// An independent per-node prior on `p ∈ [0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Prior {
    /// Uniform on `[0, 1]` (uninformative).
    Uniform,
    /// `Beta(alpha, beta)`.
    Beta {
        /// Shape α.
        alpha: f64,
        /// Shape β.
        beta: f64,
    },
}

impl Default for Prior {
    fn default() -> Self {
        // "Most ASs do not damp": mean 0.2, decreasing density.
        Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        }
    }
}

impl Prior {
    /// Log density at `p` (normalised). Evaluates the normaliser on
    /// every call; the samplers hoist it with `Prior::normalised`.
    pub fn log_density(&self, p: f64) -> f64 {
        self.normalised().log_density(p)
    }

    /// This prior with its normalising constant evaluated once.
    pub(crate) fn normalised(self) -> NormalisedPrior {
        let log_norm = match self {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => ln_beta(alpha, beta),
        };
        NormalisedPrior {
            prior: self,
            log_norm,
        }
    }

    /// `d log density / d p`.
    pub fn grad(&self, p: f64) -> f64 {
        let p = clamp_p(p);
        match *self {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => (alpha - 1.0) / p - (beta - 1.0) / (1.0 - p),
        }
    }

    /// Draw an initial state from the prior.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Prior::Uniform => rng.uniform(),
            Prior::Beta { alpha, beta } => rng.beta(alpha, beta),
        }
    }

    /// The prior mean (useful as a reference line in reports).
    pub fn mean(&self) -> f64 {
        match *self {
            Prior::Uniform => 0.5,
            Prior::Beta { alpha, beta } => alpha / (alpha + beta),
        }
    }
}

/// A [`Prior`] with `ln B(α, β)` evaluated once, for the samplers' per-
/// proposal and per-gradient loops: the Lanczos `ln Γ` behind it costs
/// more than the rest of the density.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NormalisedPrior {
    prior: Prior,
    /// `ln B(α, β)`; 0 for the uniform prior.
    log_norm: f64,
}

impl NormalisedPrior {
    /// Log density at `p`, as [`Prior::log_density`].
    #[inline]
    pub(crate) fn log_density(&self, p: f64) -> f64 {
        self.log_density_with(p, (1.0 - clamp_p(p)).ln())
    }

    /// Log density at `p`, given `log_q = ln(1 − clamp_p(p))` from the
    /// caller (HMC reuses the likelihood's, MH the one its likelihood
    /// delta took for the candidate). The single definition behind
    /// [`Self::log_density`]: keep the term order
    /// `(α−1)·ln p + (β−1)·ln(1−p) − ln B(α, β)`, because the golden
    /// outputs pin its rounding (DESIGN.md §5c).
    #[inline]
    pub(crate) fn log_density_with(&self, p: f64, log_q: f64) -> f64 {
        match self.prior {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => {
                (alpha - 1.0) * clamp_p(p).ln() + (beta - 1.0) * log_q - self.log_norm
            }
        }
    }

    /// `d log density / d p`, as [`Prior::grad`].
    #[inline]
    pub(crate) fn grad(&self, p: f64) -> f64 {
        self.prior.grad(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat() {
        let u = Prior::Uniform;
        assert_eq!(u.log_density(0.2), 0.0);
        assert_eq!(u.log_density(0.9), 0.0);
        assert_eq!(u.grad(0.3), 0.0);
        assert_eq!(u.mean(), 0.5);
    }

    #[test]
    fn beta_density_integrates_to_one() {
        // Trapezoid integration of exp(log_density) over (0,1).
        let b = Prior::Beta {
            alpha: 2.0,
            beta: 5.0,
        };
        let n = 20_000;
        let mut sum = 0.0;
        for k in 1..n {
            let p = k as f64 / n as f64;
            sum += b.log_density(p).exp();
        }
        let integral = sum / n as f64;
        assert!((integral - 1.0).abs() < 1e-3, "integral={integral}");
    }

    #[test]
    fn beta_gradient_matches_finite_difference() {
        let b = Prior::Beta {
            alpha: 2.0,
            beta: 5.0,
        };
        let h = 1e-7;
        for &p in &[0.1, 0.3, 0.7, 0.9] {
            let fd = (b.log_density(p + h) - b.log_density(p - h)) / (2.0 * h);
            assert!((b.grad(p) - fd).abs() < 1e-4, "p={p}");
        }
    }

    #[test]
    fn normalised_density_is_bit_identical() {
        for prior in [
            Prior::Uniform,
            Prior::default(),
            Prior::Beta {
                alpha: 2.5,
                beta: 0.7,
            },
        ] {
            // The per-call form `Prior::log_density` had before the
            // normaliser was hoisted.
            let per_call = |p: f64| {
                let p = clamp_p(p);
                match prior {
                    Prior::Uniform => 0.0,
                    Prior::Beta { alpha, beta } => {
                        (alpha - 1.0) * p.ln() + (beta - 1.0) * (1.0 - p).ln()
                            - ln_beta(alpha, beta)
                    }
                }
            };
            let cached = prior.normalised();
            for p in [0.0, 1e-12, 0.1, 0.5, 0.93, 1.0] {
                let want: f64 = per_call(p);
                assert_eq!(cached.log_density(p).to_bits(), want.to_bits());
                assert_eq!(prior.log_density(p).to_bits(), want.to_bits());
                assert_eq!(cached.grad(p).to_bits(), prior.grad(p).to_bits());
            }
        }
    }

    #[test]
    fn beta_mean() {
        let b = Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        };
        assert!((b.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn samples_match_prior_mean() {
        let mut rng = SimRng::new(5);
        let b = Prior::default();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| b.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - b.mean()).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn density_finite_at_boundaries() {
        for prior in [
            Prior::Uniform,
            Prior::default(),
            Prior::Beta {
                alpha: 2.0,
                beta: 2.0,
            },
        ] {
            assert!(prior.log_density(0.0).is_finite());
            assert!(prior.log_density(1.0).is_finite());
            assert!(prior.grad(0.0).is_finite());
            assert!(prior.grad(1.0).is_finite());
        }
    }
}
