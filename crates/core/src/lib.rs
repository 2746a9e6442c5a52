//! # because — BayEsian Computation for AUtonomous SystEms
//!
//! The algorithmic contribution of *"BGP Beacons, Network Tomography, and
//! Bayesian Computation to Locate Route Flap Damping"* (IMC 2020):
//! a binary-network-tomography framework that infers, for every node
//! (AS) `i`, the proportion `p_i ∈ [0, 1]` of routes to which it applies a
//! property **A** (route flap damping, route origin validation, …), from
//! end-to-end *path* observations alone.
//!
//! ## The model
//!
//! With `q_i = 1 − p_i`, a path `J` avoids showing property A only if every
//! AS on it declined to apply A to this route:
//!
//! ```text
//! P(J does not show A) = ∏_{i∈J} q_i
//! P(J shows A)         = 1 − ∏_{i∈J} q_i
//! ```
//!
//! The posterior `P(p | D) ∝ P(D | p) · P(p)` has no closed form (the
//! likelihood is a variant of the Poisson binomial), so it is *sampled*
//! with two hand-rolled MCMC kernels:
//!
//! * [`mh::MetropolisHastings`] — component-wise random-walk
//!   Metropolis–Hastings with reflective boundaries and warmup scale
//!   adaptation, using an incremental likelihood cache (updating one
//!   coordinate touches only the paths through that AS);
//! * [`hmc::Hmc`] — Hamiltonian Monte Carlo in logit space with an exact
//!   analytic gradient, leapfrog integration, and dual-averaging step-size
//!   adaptation during warmup.
//!
//! ## The pipeline
//!
//! [`analysis::Analysis`] reproduces the paper's §5 end to end: run both
//! kernels, summarise each marginal by its **mean** and **95 % highest
//! posterior density interval**, map the summaries to categories 1–5
//! (Table 1), and run the *inconsistent-damper* pass (Eq. 8): for every
//! property-showing path with no flagged AS, flag the AS most often
//! responsible across posterior samples.
//!
//! No ground truth is needed at any point — the likelihood, the paths and
//! a prior are the only inputs, which is what lets the same code locate
//! RFD (§5–6) and ROV (§7) unchanged.

pub mod analysis;
pub mod category;
pub mod chain;
pub mod checkpoint;
pub mod diagnostics;
pub mod hmc;
pub mod likelihood;
pub mod math;
pub mod mh;
pub mod model;
pub mod pinpoint;
pub mod prior;
pub mod progress;
pub mod summary;
pub mod supervisor;

pub use analysis::{Analysis, AnalysisConfig, AsReport, ChainFailure, KernelDiagnostics};
pub use category::Category;
pub use chain::{Chain, SamplerKind};
pub use checkpoint::{CheckpointError, Checkpointable};
pub use likelihood::LogLikelihood;
pub use model::{NodeId, PathData, PathObservation, PathRef};
pub use prior::Prior;
pub use progress::{
    ChainPhase, NoProgress, ProgressObserver, ProgressSnapshot, StderrTicker, TraceProgress,
};
pub use summary::Marginal;
pub use supervisor::{
    run_chains_supervised, ChainOutcome, SupervisedRun, SupervisorConfig, KILL_EXIT_CODE,
};
