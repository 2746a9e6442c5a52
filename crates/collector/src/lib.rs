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
//!   drops is counted in `FaultCounters`;
//! * every announced path is **cleaned** as it is recorded, once per
//!   distinct path ([`clean::clean_path`]: prepending collapsed, looped
//!   and empty paths not recorded), as the paper cleans its paths (§4.2).
//!
//! This crate is the one place that cleans a path or draws a VP's dark
//! window. A run's taps can be collected in slices, as the simulation
//! produces them ([`project::Collection`]). The output is a
//! [`dump::Dump`] of [`dump::UpdateRecord`]s naming their
//! [`clean::CleanPath`]s by [`dump::PathId`] in the dump's path table
//! ([`dump::Dump::path`]), laid out stream-major: one stream per
//! `(prefix, vantage)` pair — the unit the paper labels — in ascending
//! `(prefix, vantage)` order, each stream in export order with equal
//! export times in collection order. A stream's key and its VP's
//! project are kept once, in the dump's stream table, which collection
//! builds from the stream tags it assigns; a record holds only its
//! times, path id and stamp. The dump also records the outage windows the
//! collector applied ([`dump::Dump::vp_outages`]), which labeling reads.
//! Consumers read streams with their keys ([`dump::Dump::streams`]);
//! labeling and the heuristics read only their own prefix's streams
//! ([`dump::Dump::streams_of`]).

pub mod clean;
pub mod dump;
mod paths;
pub mod project;

pub use clean::{clean_path, CleanPath};
pub use dump::{Dump, PathId, UpdateRecord};
pub use project::{Collection, CollectorConfig, CollectorSet, Project};
