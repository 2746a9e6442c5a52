//! # netsim — a small, deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the BeCAUSe reproduction. Everything that
//! "happens" in the simulated inter-domain network — a beacon emitting an
//! announcement, a BGP message arriving at a neighbor, a route-flap-damping
//! reuse timer firing, a collector exporting a dump — is an *event* with a
//! simulated timestamp, processed in timestamp order by [`engine::EventQueue`].
//!
//! Design notes (following the event-driven style of embedded network stacks
//! rather than an async runtime — this workload is CPU-bound, single-threaded
//! per simulation, and must be perfectly deterministic for reproducibility):
//!
//! * [`time::SimTime`] is a newtype over integer milliseconds. All protocol
//!   constants (MRAI, RFD half-life, beacon intervals) are expressed in it.
//! * Events at equal timestamps are processed in insertion order (FIFO),
//!   so runs are reproducible bit-for-bit given the same seed. The queue
//!   is a calendar queue: one FIFO bucket per millisecond over a 2^14 ms
//!   window ahead of the clock, and a binary heap ordered by (time,
//!   sequence number) for the events beyond it, which move into their
//!   buckets before the window reaches them (see [`engine`]).
//! * [`rng`] provides seedable, splittable randomness so that independent
//!   subsystems (topology generation, link jitter, MCMC chains) can draw from
//!   decorrelated streams derived from one experiment seed.
//! * [`stats`] holds the small numeric toolkit shared across crates:
//!   histograms, empirical CDFs and ordinary least squares (used by the
//!   paper's heuristic M3 and several figures).

pub mod engine;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
