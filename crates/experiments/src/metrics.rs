//! Evaluation against the deployment oracle (Tables 3 and 4).

use std::collections::BTreeSet;

use bgpsim::AsId;
use netsim::SimDuration;
use rov::PrecisionRecall;
use serde::{Deserialize, Serialize};

use crate::pipeline::CampaignOutput;

/// A full evaluation of one method against the oracle.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OracleEvaluation {
    /// Precision/recall over the detectable universe.
    pub pr: PrecisionRecall,
    /// The universe the numbers were computed over.
    pub universe_size: usize,
    /// Ground-truth dampers inside the universe.
    pub truth_size: usize,
}

impl OracleEvaluation {
    /// Short "P/R" string for reports.
    pub fn summary(&self) -> String {
        format!(
            "precision {:5.1}%  recall {:5.1}%  (TP {}, FP {}, FN {})",
            100.0 * self.pr.precision(),
            100.0 * self.pr.recall(),
            self.pr.true_positives.len(),
            self.pr.false_positives.len(),
            self.pr.false_negatives.len()
        )
    }
}

/// The *detectable universe* for an experiment: ASs that appear on at
/// least one labeled path (the method cannot reason about ASs it never
/// saw), excluding the beacon sites. The paper similarly removes ASs
/// "not detectable with our current measurement setup" (§6.3) before
/// computing precision/recall.
pub fn detectable_universe(output: &CampaignOutput) -> BTreeSet<AsId> {
    let sites: BTreeSet<AsId> = output.topology.beacon_sites.iter().copied().collect();
    output
        .labels
        .iter()
        .flat_map(|l| l.path.asns().iter().copied())
        .filter(|a| !sites.contains(a))
        .collect()
}

/// Ground truth restricted to dampers the measurement *could* identify —
/// the paper's §6.3 step of removing ASs "not detectable with our current
/// measurement setup" (its AS 8218 / AS 7575) before scoring. A planted
/// damper counts as observable when:
///
/// 1. it is in the universe and its parameters trigger at the beacon
///    interval;
/// 2. one of its *damping* sessions lies on an RFD-labeled path
///    (receiver side) — signals actually crossed it; and
/// 3. it is **identifiable** on at least one such path: every other AS on
///    the path is exonerated by appearing on some non-RFD path. Without
///    that, binary tomography fundamentally cannot attribute the signal
///    (two ASs only ever seen together on showing paths are
///    indistinguishable — the same limitation behind the paper's ROV
///    recall analysis).
pub fn observable_truth(
    output: &CampaignOutput,
    interval: SimDuration,
    universe: &BTreeSet<AsId>,
) -> BTreeSet<AsId> {
    let exonerated: BTreeSet<AsId> = output
        .labels
        .iter()
        .filter(|l| !l.rfd)
        .flat_map(|l| l.path.asns().iter().copied())
        .collect();
    let sites: BTreeSet<AsId> = output.topology.beacon_sites.iter().copied().collect();
    output
        .deployment
        .damping
        .iter()
        .filter(|(asn, dep)| {
            universe.contains(asn)
                && dep.params.triggers_at(interval)
                && output.labels.iter().any(|l| {
                    l.rfd
                        && l.path.asns().windows(2).any(|w| {
                            w[0] == **asn && output.deployment.damps_session(w[0], w[1]).is_some()
                        })
                        && l.path
                            .asns()
                            .iter()
                            .all(|a| a == *asn || sites.contains(a) || exonerated.contains(a))
                })
        })
        .map(|(&a, _)| a)
        .collect()
}

/// Evaluate a flagged set against the oracle for a single-interval
/// campaign.
pub fn evaluate_against_oracle(
    output: &CampaignOutput,
    flagged: &BTreeSet<AsId>,
    interval: SimDuration,
) -> OracleEvaluation {
    let universe = detectable_universe(output);
    let truth = observable_truth(output, interval, &universe);
    let pr = PrecisionRecall::compute(flagged, &truth, &universe);
    OracleEvaluation {
        pr,
        universe_size: universe.len(),
        truth_size: truth.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_with_supervision;
    use crate::pipeline::{run_campaign, ExperimentConfig};
    use because::{AnalysisConfig, SupervisorConfig};
    use heuristics::HeuristicConfig;

    #[test]
    fn universe_excludes_beacon_sites() {
        let out = run_campaign(&ExperimentConfig::small(1, 31));
        let u = detectable_universe(&out);
        for s in &out.topology.beacon_sites {
            assert!(!u.contains(s));
        }
        assert!(!u.is_empty());
    }

    #[test]
    fn observable_truth_is_subset_of_truth_and_universe() {
        let out = run_campaign(&ExperimentConfig::small(1, 32));
        let u = detectable_universe(&out);
        let t = observable_truth(&out, netsim::SimDuration::from_mins(1), &u);
        let full = out.deployment.ground_truth();
        assert!(t.is_subset(&full));
        assert!(t.is_subset(&u));
    }

    #[test]
    fn because_evaluation_has_reasonable_quality() {
        let out = run_campaign(&ExperimentConfig::small(1, 33));
        let inf = infer_with_supervision(
            &out,
            &AnalysisConfig::fast(33),
            &HeuristicConfig::default(),
            &SupervisorConfig::default(),
        );
        let eval = evaluate_against_oracle(
            &out,
            &inf.because_flagged(),
            netsim::SimDuration::from_mins(1),
        );
        // On a small clean campaign the method should be precise; recall
        // depends on visibility but must be non-trivial when dampers are
        // observable.
        assert!(eval.pr.precision() >= 0.7, "{}", eval.summary());
        if eval.truth_size > 0 {
            assert!(eval.pr.recall() >= 0.5, "{}", eval.summary());
        }
    }

    #[test]
    fn fifteen_minute_interval_has_empty_observable_truth() {
        let out = run_campaign(&ExperimentConfig::small(15, 34));
        let u = detectable_universe(&out);
        let t = observable_truth(&out, netsim::SimDuration::from_mins(15), &u);
        assert!(t.is_empty(), "no profile triggers at 15 min: {t:?}");
    }
}
