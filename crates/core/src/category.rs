//! The five-way categorisation of Table 1.
//!
//! Marginal summaries are mapped to categories 1–5: 1/2 = (highly)
//! likely *not* showing the property, 3 = uncertain (contradictory or
//! insufficient data), 4/5 = (highly) likely showing it. Each summary
//! metric votes — the mean by its band, the HPDI by where its bounds
//! fall — and, as in the paper, **the highest flag wins**, across both
//! metrics and both samplers.

use serde::{Deserialize, Serialize};

use crate::summary::Marginal;

/// Table-1 category.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Highly likely not damping (mean / HPDI-low in `[0, 0.15)`).
    C1 = 1,
    /// Likely not damping (`[0.15, 0.3)`).
    C2 = 2,
    /// Uncertain: contradictory or missing data.
    C3 = 3,
    /// Likely damping (`[0.7, 0.85)`).
    C4 = 4,
    /// Highly likely damping (`[0.85, 1]`).
    C5 = 5,
}

impl Category {
    /// Numeric value 1–5.
    pub fn value(self) -> u8 {
        self as u8
    }

    /// The paper accepts categories 4 and 5 as "RFD-enabled".
    pub fn is_property(self) -> bool {
        matches!(self, Category::C4 | Category::C5)
    }

    /// Category vote from the posterior mean (Table 1, left column).
    pub fn from_mean(mean: f64) -> Category {
        match mean {
            m if m < 0.15 => Category::C1,
            m if m < 0.3 => Category::C2,
            m if m < 0.7 => Category::C3,
            m if m < 0.85 => Category::C4,
            _ => Category::C5,
        }
    }

    /// Category vote from the HPDI `[A, B]` (Table 1, right column):
    /// a *high lower bound* is evidence for the property; the bands on
    /// `A` flag non-damping and the bands on `B`… flag damping only when
    /// the whole interval sits high. Concretely, per Table 1: `A ∈
    /// [0, 0.15) → C1`, `A ∈ [0.15, 0.3) → C2`, `B ∈ [0.7, 0.85) → C4`,
    /// `B ∈ [0.85, 1] → C5` (with the damping votes requiring the lower
    /// bound to clear the uncertain band, so a wide interval stays C3),
    /// else C3.
    pub fn from_hpdi(low: f64, high: f64) -> Category {
        // Damping flags: the interval must sit high, not merely reach high.
        if low >= 0.7 {
            return if high >= 0.85 {
                Category::C5
            } else {
                Category::C4
            };
        }
        // Non-damping flags: the interval must sit low.
        if high < 0.15 {
            return Category::C1;
        }
        if high < 0.3 {
            return Category::C2;
        }
        Category::C3
    }

    /// Combined vote of one marginal: the higher of its mean and HPDI
    /// categories.
    pub fn from_marginal(m: &Marginal) -> Category {
        Self::from_mean(m.mean).max(Self::from_hpdi(m.hpdi_low, m.hpdi_high))
    }

    /// The paper's final flag: the highest category voted by any
    /// (sampler, metric) combination.
    pub fn combine(votes: impl IntoIterator<Item = Category>) -> Category {
        votes.into_iter().max().unwrap_or(Category::C3)
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Category {}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_bands_match_table1() {
        assert_eq!(Category::from_mean(0.0), Category::C1);
        assert_eq!(Category::from_mean(0.149), Category::C1);
        assert_eq!(Category::from_mean(0.15), Category::C2);
        assert_eq!(Category::from_mean(0.299), Category::C2);
        assert_eq!(Category::from_mean(0.3), Category::C3);
        assert_eq!(Category::from_mean(0.699), Category::C3);
        assert_eq!(Category::from_mean(0.7), Category::C4);
        assert_eq!(Category::from_mean(0.849), Category::C4);
        assert_eq!(Category::from_mean(0.85), Category::C5);
        assert_eq!(Category::from_mean(1.0), Category::C5);
    }

    #[test]
    fn hpdi_votes() {
        // Tight high interval → C5.
        assert_eq!(Category::from_hpdi(0.9, 0.99), Category::C5);
        // High but not extreme → C4.
        assert_eq!(Category::from_hpdi(0.7, 0.84), Category::C4);
        // Tight low interval → C1.
        assert_eq!(Category::from_hpdi(0.0, 0.1), Category::C1);
        assert_eq!(Category::from_hpdi(0.05, 0.25), Category::C2);
        // Wide interval → uncertain.
        assert_eq!(Category::from_hpdi(0.05, 0.95), Category::C3);
        assert_eq!(Category::from_hpdi(0.3, 0.6), Category::C3);
    }

    #[test]
    fn highest_flag_wins() {
        let votes = [Category::C1, Category::C3, Category::C4];
        assert_eq!(Category::combine(votes), Category::C4);
        assert_eq!(Category::combine([]), Category::C3);
    }

    #[test]
    fn property_acceptance() {
        assert!(Category::C4.is_property());
        assert!(Category::C5.is_property());
        assert!(!Category::C3.is_property());
        assert!(!Category::C1.is_property());
    }

    #[test]
    fn marginal_combination() {
        use crate::summary::Marginal;
        // Strong damper: mean 0.95, tight interval.
        let m = Marginal {
            mean: 0.95,
            hpdi_low: 0.9,
            hpdi_high: 0.99,
            level: 0.95,
        };
        assert_eq!(Category::from_marginal(&m), Category::C5);
        // Uncertain: mean 0.5, wide interval.
        let m = Marginal {
            mean: 0.5,
            hpdi_low: 0.05,
            hpdi_high: 0.95,
            level: 0.95,
        };
        assert_eq!(Category::from_marginal(&m), Category::C3);
        // Mean in C2 band, interval agrees.
        let m = Marginal {
            mean: 0.2,
            hpdi_low: 0.1,
            hpdi_high: 0.28,
            level: 0.95,
        };
        assert_eq!(Category::from_marginal(&m), Category::C2);
    }

    #[test]
    fn ordering_reflects_severity() {
        assert!(Category::C5 > Category::C4);
        assert!(Category::C4 > Category::C3);
        assert!(Category::C2 > Category::C1);
    }
}
