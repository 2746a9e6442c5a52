//! # bgpsim — the BGP + Route Flap Damping substrate
//!
//! A deterministic, event-driven simulator of inter-domain routing at the
//! AS level, built for the BeCAUSe reproduction. It models exactly the
//! mechanisms the paper's measurement methodology depends on:
//!
//! * **BGP propagation** — per-AS routers with Adj-RIB-In / Loc-RIB, the
//!   standard decision process (local preference from business
//!   relationships, AS-path length, tie-breaks), Gao–Rexford export
//!   policies, sender-side split horizon and receiver-side loop detection.
//!   Withdrawals trigger *path hunting*, which the paper's heuristic M2
//!   exploits.
//! * **MRAI** — the Minimum Route Advertisement Interval ([RFC 4271]),
//!   which rate-limits announcements and must not be confused with the RFD
//!   signature (§4.1 of the paper).
//! * **Route Flap Damping** — the full [RFC 2439] penalty state machine
//!   ([`rfd`]): additive penalties per (prefix, session), exponential
//!   half-life decay, suppress/reuse thresholds, the max-suppress-time
//!   penalty ceiling, and the vendor default parameter sets from the
//!   paper's Appendix B (Cisco, Juniper, RFC 7454).
//! * **Aggregator timestamping** — beacons encode their send time in the
//!   transitive aggregator attribute (as the RIPE beacons and the paper's
//!   RFD beacons do); the simulator forwards it verbatim so collectors can
//!   attribute updates to beacon events.
//!
//! The simulator is *not* a packet-level stack: it operates on routing
//! messages only, which is the granularity at which the paper measures.
//!
//! [RFC 2439]: https://www.rfc-editor.org/rfc/rfc2439
//! [RFC 4271]: https://www.rfc-editor.org/rfc/rfc4271

mod decision;
mod lane;
pub mod message;
mod mrai;
pub mod network;
mod paths;
pub mod policy;
pub mod prefix;
pub mod rfd;
pub mod rib;
pub mod router;

pub use message::{AggregatorStamp, AsId, AsPath};
pub use network::{Network, NetworkConfig, TapRecord};
pub use policy::{ExportPolicy, Relationship, SessionPolicy};
pub use prefix::Prefix;
pub use rfd::{RfdParams, RfdState, VendorProfile};
pub use router::Router;
