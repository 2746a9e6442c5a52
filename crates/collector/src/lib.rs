//! # collector — route-collector vantage points and update dumps
//!
//! The paper observes its beacons through three public route-collector
//! projects — RIPE RIS, RouteViews and Isolario — via ~400 "full feed"
//! peers. This crate models that observation layer on top of the
//! simulator's vantage-point taps:
//!
//! * each vantage point is **assigned to a project**, and each project has
//!   its own **export-delay behaviour** (§4.3 / Fig. 8: some RouteViews
//!   collectors export on a fixed 50-second cadence, Isolario exports
//!   within ~30 s, RIS is diverse);
//! * ~1 % of real announcements arrived with a **mangled aggregator
//!   field**; the same corruption can be injected here, and the analysis
//!   pipeline discards those records exactly as the paper does;
//! * **VP outages** (the "unexpected infrastructure failures" the 90 %
//!   labeling rule exists to tolerate) are at most one blackout window per VP,
//!   drawn by a [`netsim::faults::FaultPlan`]
//!   (`FaultSpec::vp_outage_rate`); every window and every record it
//!   drops is counted in `FaultCounters`.
//!
//! The output is a [`dump::Dump`] of [`dump::UpdateRecord`]s laid out
//! stream-major: one stream per `(prefix, vantage)` pair — the unit the
//! paper labels — in ascending `(prefix, vantage)` order, each stream in
//! export order with equal export times in collection order. Labeling
//! and the heuristics read only their own prefix's streams
//! ([`dump::Dump::streams_of`]).

pub mod dump;
pub mod project;

pub use dump::{Dump, UpdateRecord};
pub use project::{CollectorConfig, CollectorSet, Project};
