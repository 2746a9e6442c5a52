//! # experiments — end-to-end reproduction pipelines
//!
//! This crate assembles the substrate crates into the paper's experiments:
//!
//! 1. [`deployment`] plants a ground-truth **RFD deployment** into a
//!    topology: which ASs damp, with which parameter set (the §6.2 mix —
//!    ~60 % deprecated vendor defaults, the rest following the
//!    RFC 7454/RIPE recommendations), which damp **inconsistently**
//!    (per-neighbor, the AS-701 pattern), plus the max-suppress-time mix
//!    behind Fig. 13 and MRAI deployment.
//! 2. [`pipeline`] runs a measurement campaign end to end: simulate the
//!    beacons through the network, collect dumps at the vantage points,
//!    and label paths with the RFD signature. [`pipeline::measure`] is
//!    the one place that fixes that order (fault plan → run → collect →
//!    VP outages → label), for the campaign and for every hand-built
//!    network alike.
//! 3. [`infer`] feeds the labeled paths to BeCAUSe and to the heuristics
//!    and evaluates both against the deployment oracle ([`metrics`]).
//! 4. [`coverage`] computes the measurement-infrastructure statistics
//!    (Fig. 6 link similarity, Fig. 7 project overlap, Fig. 8
//!    propagation delays), each reading a dump stream at most once.
//! 5. [`figures`] renders each table and figure of the paper from one
//!    [`suite::Suite`], which runs the default campaign and its
//!    inference once for all of them; [`report`] renders their aligned
//!    text tables. `src/bin/` holds one binary per figure and
//!    `repro_all`, which renders them all.
//! 6. [`dash`] assembles the single-file HTML diagnostics dashboard
//!    (`--dash <path>` on any binary) from an inference run.

pub mod coverage;
pub mod dash;
pub mod deployment;
pub mod figures;
pub mod infer;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod suite;

pub use deployment::{AsDeployment, DampMode, Deployment, DeploymentConfig};
pub use infer::{infer_with_supervision, Coverage, InferenceOutput};
pub use metrics::{detectable_universe, evaluate_against_oracle, OracleEvaluation};
pub use pipeline::{run_campaign, CampaignOutput, ExperimentConfig};
