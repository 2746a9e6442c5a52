//! The three workloads: how each builds its inputs from the seed, the
//! untraced run through the public entry points, and the digest of the
//! result that every run of a seed must reproduce.

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::time::Instant;

use because::chain::ChainConfig;
use because::{AnalysisConfig, Prior};
use bgpsim::AsId;
use experiments::{
    evaluate_against_oracle, infer_with_supervision, run_campaign, Deployment, ExperimentConfig,
};
use heuristics::HeuristicConfig;
use netsim::faults::FaultSpec;
use netsim::SimDuration;
use rov::{RovScenario, RovScenarioConfig};
use signature::LabeledPath;
use topology::{generate, Topology, TopologyConfig};

/// A benchmark workload. Each runs at the figure binaries' default
/// scale, `REPRO_SCALE=small`, so that one run takes a few seconds and
/// a measuring window holds enough runs for a steady median.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The RFD half of Table 4 (and Fig. 9): 1-minute beacons, BeCAUSe,
    /// heuristics and oracle precision/recall.
    RfdSmall,
    /// The ROV half of Table 4: the §7 benchmark, inference-bound.
    RovSmall,
    /// All six beacon intervals in one faulted campaign, no inference.
    MultiIntervalFaults,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [
        Workload::RfdSmall,
        Workload::RovSmall,
        Workload::MultiIntervalFaults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RfdSmall => "rfd_small",
            Workload::RovSmall => "rov_small",
            Workload::MultiIntervalFaults => "multi_interval_faults",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The seed of every workload's scenario: the AS topology and, for the
/// campaigns, the planted RFD/MRAI deployment. The scenario sets how
/// much work a run is: at paper scale, scenario seeds 1–5 gave the RFD
/// campaign 10.2M–12.8M simulated events and 16–27 s of wall time. So
/// the scenario stays fixed and `--seed` draws what runs on it:
/// propagation jitter, collector assignment and noise, the fault plan
/// and the MCMC chains. With `--seed 2020` the two Table 4 workloads
/// are exactly `table4_precision_recall`'s default run.
pub const SCENARIO_SEED: u64 = 2020;

/// The 6/60/150-AS topology of `REPRO_SCALE=small`.
fn small_topology() -> TopologyConfig {
    TopologyConfig {
        n_tier1: 6,
        n_transit: 60,
        n_stub: 150,
        n_beacon_sites: 7,
        n_vantage_points: 40,
        seed: SCENARIO_SEED,
        ..TopologyConfig::default()
    }
}

/// The `REPRO_SCALE=small` sampler settings: two chains per kernel, 400
/// warmup and 800 retained draws each.
pub fn analysis_config(seed: u64) -> AnalysisConfig {
    AnalysisConfig {
        prior: Prior::default(),
        chain: ChainConfig {
            warmup: 400,
            samples: 800,
            thin: 1,
        },
        n_chains: 2,
        seed,
        ..AnalysisConfig::default()
    }
}

/// The measurement campaign of a simulator-driven workload.
fn experiment_config(workload: Workload, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::single_interval(1, seed);
    cfg.topology = small_topology();
    cfg.deployment.seed = SCENARIO_SEED;
    cfg.break_duration = SimDuration::from_hours(2);
    match workload {
        Workload::RfdSmall => cfg.cycles = 4,
        Workload::MultiIntervalFaults => {
            cfg.intervals = [1, 2, 3, 5, 10, 15]
                .into_iter()
                .map(SimDuration::from_mins)
                .collect();
            // One cycle left the simulator at 65% of the run and labeling
            // at 31%; two keep the simulator above 70%, as the design asks.
            cfg.cycles = 2;
            cfg.faults = Some(FaultSpec::drill(seed));
        }
        Workload::RovSmall => unreachable!("the ROV workload runs no beacon campaign"),
    }
    cfg
}

/// The ROV scenario settings: small topology, observed everywhere. Its
/// seed also seeds the topology, so it is [`SCENARIO_SEED`]; the
/// workload seed draws the MCMC chains.
fn rov_config() -> RovScenarioConfig {
    RovScenarioConfig {
        topology: small_topology(),
        seed: SCENARIO_SEED,
        ..RovScenarioConfig::default()
    }
}

/// A workload's inputs, built from the seed during set-up.
// A process holds one value at a time, so the variants' sizes don't matter.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A beacon campaign, with the topology and planted deployment the
    /// oracle scores against.
    Campaign {
        workload: Workload,
        config: ExperimentConfig,
        topology: Topology,
        deployment: Deployment,
    },
    /// The converged ROV scenario with its planted ground truth, and the
    /// seed of the chains that infer it.
    Rov { seed: u64, scenario: RovScenario },
}

impl Inputs {
    /// Build `workload`'s inputs from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::RovSmall => Inputs::Rov {
                seed,
                scenario: rov::build(&rov_config()),
            },
            _ => {
                let config = experiment_config(workload, seed);
                let topology = generate(&config.topology);
                let deployment = Deployment::assign(&topology, &config.deployment);
                Inputs::Campaign {
                    workload,
                    config,
                    topology,
                    deployment,
                }
            }
        }
    }
}

/// What a run produced, reduced to what the checks and the report need.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Digest of the labels, the flagged sets and the category counts.
    pub digest: u64,
    /// Labeled paths (campaigns) or collected paths (ROV).
    pub labels: usize,
    /// Worst rank-normalized R̂ across kernels (inference workloads).
    pub max_rank_r_hat: Option<f64>,
    /// Smallest bulk ESS across kernels (inference workloads).
    pub min_ess_bulk: Option<f64>,
    /// BeCAUSe precision and recall against the oracle.
    pub precision_recall: Option<(f64, f64)>,
    /// The labels agree with the inputs (see [`labels_consistent`]).
    pub consistent: bool,
}

impl Outcome {
    /// The run-level failure rule: no labels at all, or labels that
    /// contradict the inputs.
    pub fn failed(&self) -> bool {
        self.labels == 0 || !self.consistent
    }

    /// Chains that did not converge: R̂ ≥ 1.1, or no R̂ because a chain
    /// was lost. Counted and reported, but not a failed run. With two
    /// chains per kernel it happens on some seeds (see the README for
    /// the rates seen). Precision and recall on those seeds matched the
    /// converged ones, so this is a sampler finding, not a wrong result.
    pub fn unconverged(&self) -> bool {
        self.max_rank_r_hat.is_some_and(|r| r.is_nan() || r >= 1.1)
    }
}

/// Output checks against the campaign's inputs: every label was seen at
/// a vantage point of the topology, for a path that starts there and
/// ends at a beacon site; on a fault-free campaign every RFD label also
/// crosses a session the planted deployment damps (the receiver side
/// first, as paths run vantage → origin).
pub fn labels_consistent(inputs: &Inputs, labels: &[LabeledPath]) -> bool {
    let Inputs::Campaign {
        config,
        topology,
        deployment,
        ..
    } = inputs
    else {
        return true;
    };
    labels.iter().all(|l| {
        topology.vantage_points.contains(&l.vantage)
            && l.path.vantage() == Some(l.vantage)
            && l.path
                .origin()
                .is_some_and(|o| topology.beacon_sites.contains(&o))
            && (!l.rfd
                || config.faults.is_some()
                || l.path
                    .asns()
                    .windows(2)
                    .any(|w| deployment.damps_session(w[0], w[1]).is_some()))
    })
}

/// One timed untraced run.
pub struct Run {
    /// Wall time of the run after set-up.
    pub wall_secs: f64,
    /// Wall time of the inference call alone (inference workloads).
    pub infer_secs: Option<f64>,
    /// The checked result.
    pub outcome: Outcome,
}

/// Run the workload once through the public entry points.
pub fn run_untraced(inputs: &Inputs) -> Run {
    match inputs {
        Inputs::Campaign {
            workload: Workload::MultiIntervalFaults,
            config,
            ..
        } => {
            let start = Instant::now();
            let out = run_campaign(config);
            let wall_secs = start.elapsed().as_secs_f64();
            Run {
                wall_secs,
                infer_secs: None,
                outcome: Outcome {
                    digest: digest(&[&out.labels, &out.fault_counters]),
                    labels: out.labels.len(),
                    max_rank_r_hat: None,
                    min_ess_bulk: None,
                    precision_recall: None,
                    consistent: labels_consistent(inputs, &out.labels),
                },
            }
        }
        Inputs::Campaign { config, .. } => {
            let start = Instant::now();
            let out = run_campaign(config);
            let infer_start = Instant::now();
            let inf = infer_with_supervision(
                &out,
                &analysis_config(config.seed),
                &HeuristicConfig::default(),
                &because::SupervisorConfig::default(),
            );
            let infer_secs = infer_start.elapsed().as_secs_f64();
            let interval = config.intervals[0];
            let because_flagged = inf.because_flagged();
            let heuristics_flagged = inf.heuristics_flagged();
            let because_eval = evaluate_against_oracle(&out, &because_flagged, interval);
            let heuristics_eval = evaluate_against_oracle(&out, &heuristics_flagged, interval);
            let wall_secs = start.elapsed().as_secs_f64();
            let counts = inf.analysis.category_counts();
            Run {
                wall_secs,
                infer_secs: Some(infer_secs),
                outcome: Outcome {
                    digest: digest(&[
                        &out.labels,
                        &because_flagged,
                        &counts,
                        &heuristics_flagged,
                        &heuristics_eval.pr,
                    ]),
                    labels: out.labels.len(),
                    max_rank_r_hat: Some(inf.analysis.max_rank_r_hat),
                    min_ess_bulk: Some(inf.analysis.min_ess_bulk),
                    precision_recall: Some((because_eval.pr.precision(), because_eval.pr.recall())),
                    consistent: labels_consistent(inputs, &out.labels),
                },
            }
        }
        Inputs::Rov { seed, scenario } => {
            let start = Instant::now();
            let (analysis, pr) = scenario.evaluate(&analysis_config(*seed));
            let wall_secs = start.elapsed().as_secs_f64();
            let flagged = as_set(&analysis.property_nodes());
            Run {
                wall_secs,
                infer_secs: Some(wall_secs),
                outcome: Outcome {
                    digest: digest(&[&scenario.paths, &flagged, &analysis.category_counts()]),
                    labels: scenario.paths.len(),
                    max_rank_r_hat: Some(analysis.max_rank_r_hat),
                    min_ess_bulk: Some(analysis.min_ess_bulk),
                    precision_recall: Some((pr.precision(), pr.recall())),
                    consistent: true,
                },
            }
        }
    }
}

/// Node ids as a set of AS numbers.
pub fn as_set(nodes: &[because::NodeId]) -> BTreeSet<AsId> {
    nodes.iter().map(|n| AsId(n.0)).collect()
}

/// FNV-1a over the `Debug` rendering of each part: every field of the
/// labels and flagged sets takes part, in their deterministic order.
pub fn digest(parts: &[&dyn fmt::Debug]) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for part in parts {
        write!(h, "{part:?}|").expect("hashing never fails");
    }
    h.0
}
