//! # heuristics — the paper's three passive RFD-pinpointing baselines (§5.2)
//!
//! BeCAUSe is compared against three hand-crafted metrics, each scoring
//! every AS in `[0, 1]`; the final heuristic verdict averages the
//! available metrics and thresholds the result:
//!
//! * **M1 — RFD path ratio** ([`path_ratio`]): the share of an AS's
//!   observed paths that show the RFD signature. Robust for richly
//!   connected transit ASs; biased for stubs (they inherit their
//!   upstream's damping) — the false-positive mode the paper demonstrates
//!   with TekSavvy/AS 5645.
//! * **M2 — alternative paths** ([`alternative_paths`]): damped prefixes
//!   reveal alternative paths through path hunting, and an AS that damps
//!   will not appear on those alternatives. Scores the average share of
//!   alternatives *avoiding* the AS across the damped paths it sits on.
//! * **M3 — announcement distribution** ([`burst_distribution`]): a
//!   damping AS forwards fewer updates towards the end of a Burst. Bins
//!   announcements into a 40-bucket histogram over the Burst
//!   ([`burst_histograms`], which Fig. 10 plots),
//!   fits a line, and maps a declining trend to a score via the slope's
//!   relative change.
//!
//! The heuristics need the labeled paths (and, for M3, the raw dump) but
//! no stochastic machinery — and, unlike BeCAUSe, they embed
//! RFD-mechanics assumptions and a tunable threshold.

pub mod metrics;

pub use metrics::{
    alternative_paths, burst_distribution, burst_histograms, evaluate, path_ratio, AsScores,
    HeuristicConfig, HeuristicScores, M3_BINS,
};
