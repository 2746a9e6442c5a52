//! Precision/recall evaluation against a ground-truth set.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use bgpsim::AsId;

/// Classification quality against ground truth (Table 4's cells).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PrecisionRecall {
    /// Correctly flagged ASs.
    pub true_positives: Vec<AsId>,
    /// Flagged but not in ground truth.
    pub false_positives: Vec<AsId>,
    /// Ground truth missed.
    pub false_negatives: Vec<AsId>,
}

impl PrecisionRecall {
    /// Compare a flagged set against ground truth, restricted to a
    /// universe of *detectable* ASs (the paper removes ASs its setup
    /// cannot see, e.g. AS 8218/AS 7575, before computing the numbers).
    pub fn compute(
        flagged: &BTreeSet<AsId>,
        ground_truth: &BTreeSet<AsId>,
        universe: &BTreeSet<AsId>,
    ) -> PrecisionRecall {
        let truth: BTreeSet<AsId> = ground_truth.intersection(universe).copied().collect();
        let flagged: BTreeSet<AsId> = flagged.intersection(universe).copied().collect();
        PrecisionRecall {
            true_positives: flagged.intersection(&truth).copied().collect(),
            false_positives: flagged.difference(&truth).copied().collect(),
            false_negatives: truth.difference(&flagged).copied().collect(),
        }
    }

    /// `TP / (TP + FP)`; 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        let tp = self.true_positives.len();
        let fp = self.false_positives.len();
        if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        }
    }

    /// `TP / (TP + FN)`; 1.0 when the ground truth is empty.
    pub fn recall(&self) -> f64 {
        let tp = self.true_positives.len();
        let fnn = self.false_negatives.len();
        if tp + fnn == 0 {
            1.0
        } else {
            tp as f64 / (tp + fnn) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<AsId> {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    #[test]
    fn perfect_classification() {
        let pr = PrecisionRecall::compute(&set(&[1, 2]), &set(&[1, 2]), &set(&[1, 2, 3, 4]));
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
    }

    #[test]
    fn false_positive_hurts_precision_only() {
        let pr = PrecisionRecall::compute(&set(&[1, 2, 3]), &set(&[1, 2]), &set(&[1, 2, 3, 4]));
        assert!((pr.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pr.recall(), 1.0);
    }

    #[test]
    fn false_negative_hurts_recall_only() {
        let pr = PrecisionRecall::compute(&set(&[1]), &set(&[1, 2]), &set(&[1, 2, 3]));
        assert_eq!(pr.precision(), 1.0);
        assert!((pr.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn universe_restriction_removes_undetectables() {
        // AS 9 is in the truth but outside the universe (not measurable):
        // it must not count as a miss.
        let pr = PrecisionRecall::compute(&set(&[1]), &set(&[1, 9]), &set(&[1, 2]));
        assert_eq!(pr.recall(), 1.0);
        assert!(pr.false_negatives.is_empty());
    }

    #[test]
    fn empty_cases() {
        let pr = PrecisionRecall::compute(&set(&[]), &set(&[]), &set(&[1]));
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
        let pr = PrecisionRecall::compute(&set(&[]), &set(&[1]), &set(&[1]));
        assert_eq!(pr.recall(), 0.0);
    }
}
