//! Running BeCAUSe and the heuristics on a campaign's labeled paths.

use std::collections::{BTreeMap, BTreeSet};

use because::{Analysis, AnalysisConfig, NodeId, PathData, PathObservation, SupervisorConfig};
use bgpsim::AsId;
use heuristics::{evaluate, HeuristicConfig, HeuristicScores};
use signature::LabeledPath;

use crate::pipeline::CampaignOutput;

/// What measurement-plane degradation cost the inference: paths whose
/// Burst–Break evidence an outage swallowed are *unobservable* — they
/// carry no signal either way — and are excluded from the BeCAUSe
/// dataset rather than counted as clean.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Labeled paths in the campaign, observable or not.
    pub paths_total: usize,
    /// Paths excluded because faults left no observable Burst–Break pair.
    pub paths_unobservable: usize,
    /// Burst–Break pairs lost to outages across all paths.
    pub pairs_unobservable: usize,
    /// Per-AS count of unobservable paths crossing that AS — the
    /// coverage each AS lost to measurement faults.
    pub lost_paths_per_as: BTreeMap<AsId, u64>,
}

impl Coverage {
    /// Tally coverage loss over a campaign's labels.
    pub fn from_labels(labels: &[LabeledPath]) -> Coverage {
        let mut cov = Coverage {
            paths_total: labels.len(),
            ..Coverage::default()
        };
        for l in labels {
            cov.pairs_unobservable += l.pairs_unobservable;
            if l.unobservable {
                cov.paths_unobservable += 1;
                for &asn in l.path.asns() {
                    *cov.lost_paths_per_as.entry(asn).or_insert(0) += 1;
                }
            }
        }
        cov
    }

    /// True when faults actually cost coverage.
    pub fn is_degraded(&self) -> bool {
        self.paths_unobservable > 0 || self.pairs_unobservable > 0
    }

    /// The `coverage` report section: totals plus one `lost.AS<n>`
    /// counter per affected AS.
    pub fn obs_section(&self) -> obs::Section {
        let mut section = obs::Section::new("coverage");
        section.counter("paths_total", self.paths_total as u64);
        section.counter("paths_unobservable", self.paths_unobservable as u64);
        section.counter("pairs_unobservable", self.pairs_unobservable as u64);
        for (asn, lost) in &self.lost_paths_per_as {
            section.counter(&format!("lost.{asn}"), *lost);
        }
        section
    }
}

/// Joint inference output.
#[derive(Debug)]
pub struct InferenceOutput {
    /// The dataset fed to BeCAUSe.
    pub data: PathData,
    /// The BeCAUSe analysis.
    pub analysis: Analysis,
    /// Heuristic scores.
    pub heuristics: HeuristicScores,
    /// Heuristic decision threshold used.
    pub heuristic_threshold: f64,
    /// Coverage lost to measurement-plane faults. All-zero (and absent
    /// from reports) on fault-free runs.
    pub coverage: Coverage,
}

impl InferenceOutput {
    /// ASs BeCAUSe flags (category 4/5).
    pub fn because_flagged(&self) -> BTreeSet<AsId> {
        self.analysis
            .property_nodes()
            .iter()
            .map(|n| AsId(n.0))
            .collect()
    }

    /// ASs the heuristics flag.
    pub fn heuristics_flagged(&self) -> BTreeSet<AsId> {
        self.heuristics
            .rfd_ases(self.heuristic_threshold)
            .into_iter()
            .collect()
    }

    /// Export the analysis sections plus, on degraded runs, the
    /// `coverage` section — fault-free reports stay unchanged.
    pub fn export_obs(&self, report: &mut obs::RunReport) {
        self.analysis.export_obs(report);
        if self.coverage.is_degraded() {
            report.push_section(self.coverage.obs_section());
        }
    }
}

/// Build the BeCAUSe dataset from a campaign's labeled paths, beacon-site
/// ASs excluded (known non-damping, §3.2); see [`path_data`].
pub fn path_data_from_labels(output: &CampaignOutput) -> PathData {
    let exclude: Vec<NodeId> = output
        .topology
        .beacon_sites
        .iter()
        .map(|a| NodeId(a.0))
        .collect();
    path_data(&output.labels, &exclude)
}

/// Build the BeCAUSe dataset from labeled paths: one observation per
/// Burst–Break pair (paths measured over many pairs carry more weight),
/// `exclude`d ASs left out. Paths with no observable Burst–Break pair (a
/// fault window ate their evidence) are excluded entirely — an
/// unobserved path is not a clean path.
pub fn path_data(labels: &[LabeledPath], exclude: &[NodeId]) -> PathData {
    let observations: Vec<PathObservation> = labels
        .iter()
        .filter(|l| !l.unobservable)
        .flat_map(|l| {
            let nodes: Vec<NodeId> = l.path.asns().iter().map(|a| NodeId(a.0)).collect();
            // Weight by the number of pairs backing the label: matching
            // pairs are "shows", the rest are "does not show". This keeps
            // per-pair information without pretending one path is one
            // observation.
            let shows = l.pairs_matching;
            let clean = l.pairs_total - l.pairs_matching;
            std::iter::repeat_n(PathObservation::new(nodes.clone(), true), shows).chain(
                std::iter::repeat_n(PathObservation::new(nodes, false), clean),
            )
        })
        .collect();
    PathData::from_observations(&observations, exclude)
}

/// Run BeCAUSe and the three heuristics on a campaign output, BeCAUSe's
/// chains under `supervisor`: checkpoint/resume, per-chain panic
/// isolation and a wall-clock watchdog. The default supervisor
/// reproduces the unsupervised run bitwise.
pub fn infer_with_supervision(
    output: &CampaignOutput,
    analysis_config: &AnalysisConfig,
    heuristic_config: &HeuristicConfig,
    supervisor: &SupervisorConfig,
) -> InferenceOutput {
    let data = path_data_from_labels(output);
    let analysis = Analysis::run_supervised(&data, analysis_config, supervisor);
    let schedules: Vec<&beacon::BeaconSchedule> = output.campaign.beacon_schedules().collect();
    let heuristics = evaluate(&output.labels, &output.dump, &schedules, heuristic_config);
    InferenceOutput {
        data,
        analysis,
        heuristics,
        heuristic_threshold: heuristic_config.threshold,
        coverage: Coverage::from_labels(&output.labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_campaign, ExperimentConfig};

    #[test]
    fn end_to_end_inference_flags_a_real_damper() {
        let out = run_campaign(&ExperimentConfig::small(1, 21));
        let inf = infer_with_supervision(
            &out,
            &AnalysisConfig::fast(21),
            &HeuristicConfig::default(),
            &SupervisorConfig::default(),
        );
        assert!(inf.data.num_paths() > 0);
        let truth = out.deployment.ground_truth();
        let flagged = inf.because_flagged();
        // Precision-style sanity: flagged ASs should overwhelmingly be
        // true dampers (the strict check lives in metrics tests).
        if !flagged.is_empty() {
            let tp = flagged.intersection(&truth).count();
            assert!(
                tp * 2 >= flagged.len(),
                "flagged {flagged:?} vs truth {truth:?}"
            );
        }
    }

    #[test]
    fn beacon_sites_excluded_from_data() {
        let out = run_campaign(&ExperimentConfig::small(1, 22));
        let data = path_data_from_labels(&out);
        for site in &out.topology.beacon_sites {
            assert!(data.index(NodeId(site.0)).is_none());
        }
    }

    #[test]
    fn weights_reflect_pair_counts() {
        let out = run_campaign(&ExperimentConfig::small(1, 23));
        let data = path_data_from_labels(&out);
        let total_pairs: u64 = out.labels.iter().map(|l| l.pairs_total as u64).sum();
        assert_eq!(data.num_observations(), total_pairs);
    }

    #[test]
    fn outages_cost_coverage_not_cleanliness() {
        // Every VP suffers an outage long enough to swallow the rest of
        // the campaign from wherever it starts.
        let mut cfg = ExperimentConfig::small(1, 24);
        cfg.faults = Some(netsim::faults::FaultSpec {
            vp_outage_rate: 1.0,
            vp_outage_duration: netsim::SimDuration::from_hours(500),
            seed: 3,
            ..Default::default()
        });
        let out = run_campaign(&cfg);
        assert!(
            out.labels.iter().any(|l| l.unobservable),
            "total outages must make some paths unobservable"
        );
        // Unobservable paths contribute nothing: the dataset holds
        // exactly the observable pairs, not zeros for the lost ones.
        let data = path_data_from_labels(&out);
        let observable_pairs: u64 = out
            .labels
            .iter()
            .filter(|l| !l.unobservable)
            .map(|l| l.pairs_total as u64)
            .sum();
        assert_eq!(data.num_observations(), observable_pairs);

        let cov = Coverage::from_labels(&out.labels);
        assert!(cov.is_degraded());
        assert_eq!(
            cov.paths_unobservable,
            out.labels.iter().filter(|l| l.unobservable).count()
        );
        assert!(!cov.lost_paths_per_as.is_empty());
        let section = cov.obs_section();
        assert_eq!(section.name, "coverage");
    }

    #[test]
    fn coverage_is_all_zero_on_clean_runs() {
        let out = run_campaign(&ExperimentConfig::small(1, 25));
        let cov = Coverage::from_labels(&out.labels);
        assert!(!cov.is_degraded());
        assert_eq!(cov.paths_unobservable, 0);
        assert!(cov.lost_paths_per_as.is_empty());
    }
}
