//! # signature — RFD signature detection and path labeling (§4.2)
//!
//! The measurement side of the paper reduces to one question per
//! (vantage point, beacon prefix, AS path): *did updates for this path
//! show the RFD signature?* The signature is:
//!
//! 1. during a Burst, announcements stop arriving (they are damped away);
//! 2. during the following Break, a **re-advertisement** arrives — the
//!    replay of the final Burst announcement, released when the damping
//!    penalty decayed below the reuse threshold;
//! 3. the delay between the final update observed from the Burst and that
//!    re-advertisement (**r-delta**) exceeds anything normal propagation
//!    or MRAI could produce. The paper separates the timescales at
//!    **5 minutes** (propagation ≤ 1 min, MRAI ≈ 30 s, suppression
//!    ≥ 21 min for Cisco defaults).
//!
//! A path is labeled RFD when **at least 90 %** of its Burst–Break pairs
//! match the signature — slack that absorbs session resets and other
//! infrastructure noise.
//!
//! Paths are *cleaned* before use: prepending removed, looped paths
//! dropped, and announcements with missing/corrupted aggregator stamps
//! discarded (the paper's validity filter).

pub mod clean;
pub mod label;

pub use clean::{clean_path, CleanPath};
pub use label::{label_dump_with_outages, obs_section, LabeledPath, LabelingConfig, PairOutcome};
