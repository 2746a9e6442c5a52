//! # obs — observability primitives for the simulator and sampler stack
//!
//! The pipeline (event loop → BGP → collector → signature → MCMC) is a
//! long chain of hot loops; this crate gives every layer a uniform,
//! near-zero-cost way to report what it actually did:
//!
//! * [`Histogram`] — a plain-cell fixed-bucket histogram a subsystem
//!   *embeds* in its own struct. Recording is a bucket scan plus field
//!   updates (no allocation, no atomics, no locks), so it is safe to
//!   touch from hot loops. Plain counts are ordinary `u64` fields.
//! * [`Registry`] — a pre-registered, named metric table backed by
//!   relaxed `AtomicU64` cells, for the one case plain cells cannot
//!   serve: several threads sharing a sink. Handles ([`CounterId`] etc.)
//!   are plain indices obtained up front; the hot path never hashes a
//!   name or takes a lock.
//! * [`SpanSet`] / [`SpanGuard`] — RAII wall-clock span timers for
//!   phase accounting (warmup vs sampling, simulate vs label).
//! * [`RunReport`] / [`Section`] — the snapshot form: what every
//!   `fig*`/`table*` binary prints with `--report` or dumps with
//!   `--report-json <path>`. Text and JSON rendering are hand-rolled
//!   (the in-tree serde is a marker shim) on the shared [`json`] writer.
//! * [`TraceBuffer`] — a bounded, lossy ring of typed [`TraceEvent`]s
//!   (span begin/end, instants, counter samples on sim- or wall-clock
//!   lanes) with a Chrome trace-event exporter; what `--trace <path>`
//!   dumps. Aggregates say *how much*, the trace says *when*.
//! * [`write_atomic`] — temp-file-plus-rename artifact writes, so an
//!   interrupted run never leaves truncated JSON behind.
//! * [`serve`] — a std::net-only HTTP endpoint (`--serve <addr>`)
//!   exposing the live [`Registry`] as Prometheus text exposition at
//!   `/metrics`, plus `/progress`, `/report`, and `/healthz`.
//! * [`html`] — the self-contained single-file dashboard (`--dash
//!   <path>`): hand-rolled SVG trace plots, marginals, and diagnostics
//!   tables with zero external assets.
//!
//! ## Naming conventions
//!
//! Sections are `"<crate>.<component>"` (`"netsim.queue"`,
//! `"because.hmc"`). Metric names are `lower_snake`, with units as a
//! suffix (`*_secs`, `*_mins`) and fixed label values joined with a dot
//! (`"rfd_suppressions.cisco"`).
//!
//! ## Overhead budget
//!
//! Instrumentation wired into hot paths must stay within **2 %** of the
//! uninstrumented throughput on the `mh_sweep` and `event_queue`
//! benchmarks (see `BENCH_0002_obs_overhead.json` at the repo root and
//! the `obs_overhead` bench for the per-primitive costs).

pub mod html;
pub mod json;
mod metrics;
mod registry;
mod report;
pub mod serve;
mod span;
pub mod trace;
mod write;

pub use metrics::Histogram;
pub use registry::{CounterId, GaugeId, HistogramId, Registry};
pub use report::{Entry, HistogramSnapshot, RunReport, Section, Value};
pub use span::{SpanGuard, SpanId, SpanSet, Stopwatch};
pub use trace::{Lane, TraceBuffer, TraceEvent, TraceKind, TraceTime};
pub use write::{write_atomic, write_atomic_with};
