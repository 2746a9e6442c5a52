//! Live sampler progress: the [`ProgressObserver`] hook on the chain
//! driver and [`LiveProgress`], the one observer the pipeline runs.
//!
//! Every `every()` iterations, and at the last retained draw, the chain
//! loop fills one [`ChainProgress`] record (the type the [`obs::serve`]
//! table stores): running accept rate, divergences, and during sampling
//! the worst rank-R̂ and smallest bulk ESS of that chain alone, from the
//! same [`crate::diagnostics::coordinate`] pass the run report uses. It
//! brackets each phase with `begin_phase`/`end_phase`, also when a chain
//! stops early. Observers are handed to
//! [`crate::supervisor::run_chains_supervised`].
//!
//! [`LiveProgress`] sends each record to up to three outputs at one
//! cadence: a stderr line (`--progress [every-n]`), counter events on the
//! chain's trace lane (`--trace`, `--dash`), and the chain's row of the
//! installed serve table behind `/progress` and `/metrics` (`--serve`).
//!
//! The unobserved path uses an `every()` of 0 ([`NoProgress`], or a
//! [`LiveProgress`] with no output on), which lets the loop skip every
//! per-iteration check after one branch, so the monomorphised loop is
//! the bare one.

use std::sync::Arc;
use std::time::Instant;

use obs::serve::{ChainProgress, ServeState};

use crate::chain::SamplerKind;

/// Which phase of a chain run a snapshot belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainPhase {
    /// Burn-in + adaptation (draws discarded).
    Warmup,
    /// Post-warmup collection.
    Sampling,
}

impl ChainPhase {
    /// Short label for tickers, trace events and [`ChainProgress::phase`].
    pub fn name(self) -> &'static str {
        match self {
            ChainPhase::Warmup => "warmup",
            ChainPhase::Sampling => "sampling",
        }
    }
}

/// Observer hook for the chain loop (see the module docs).
pub trait ProgressObserver {
    /// Snapshot cadence in iterations; `0` disables observation (the
    /// driver then skips all snapshot bookkeeping).
    fn every(&self) -> usize;

    /// Called every [`Self::every`] iterations and at the last retained
    /// draw.
    fn observe(&mut self, snap: &ChainProgress);

    /// A phase (warmup/sampling) is starting on `chain_index`.
    fn begin_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let _ = (chain_index, kind, phase);
    }

    /// The phase ended after `iteration` of its `total` iterations:
    /// `iteration < total` when the chain stopped early (watchdog, stop
    /// hook, failed checkpoint write).
    fn end_phase(
        &mut self,
        chain_index: usize,
        kind: SamplerKind,
        phase: ChainPhase,
        iteration: usize,
        total: usize,
    ) {
        let _ = (chain_index, kind, phase, iteration, total);
    }
}

/// The disabled observer: `every() == 0`, nothing recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProgress;

impl ProgressObserver for NoProgress {
    fn every(&self) -> usize {
        0
    }
    fn observe(&mut self, _snap: &ChainProgress) {}
}

/// The cadence of the trace and serve outputs when no stderr cadence
/// is set.
const DEFAULT_EVERY: usize = 50;

/// Events one chain's trace lane holds before the oldest are dropped.
pub(crate) const TRACE_CAPACITY: usize = 2048;

/// One chain's live view: the stderr line, its trace lane and its serve
/// row, each optional, at one cadence.
///
/// On the trace lane, phases become wall-clock spans and snapshots
/// counter samples (`accept_rate`, `max_rank_r_hat` and `min_ess_bulk`
/// while sampling, and `divergences` once there are any). The serve row
/// is flipped to `"done"` when sampling closes or the chain stops early.
/// Observation never touches the RNG.
pub struct LiveProgress {
    every: usize,
    stderr: bool,
    trace: Option<(obs::Lane, obs::TraceBuffer)>,
    serve: Option<&'static Arc<ServeState>>,
}

impl LiveProgress {
    /// A chain's observer: the stderr line every `progress_every`
    /// iterations when that is non-zero, a trace lane when `trace` names
    /// one (with the wall-clock epoch shared by the run's chains, so
    /// merged stamps compare), and the serve row when an
    /// [`obs::serve::install`] happened in this process. The trace and
    /// serve outputs follow the stderr cadence, or every 50 iterations
    /// without one; with no output on, `every()` is 0.
    pub fn new(progress_every: usize, trace: Option<(obs::Lane, Instant)>) -> LiveProgress {
        let serve = obs::serve::installed();
        let on = progress_every > 0 || trace.is_some() || serve.is_some();
        LiveProgress {
            every: match progress_every {
                0 if on => DEFAULT_EVERY,
                n => n,
            },
            stderr: progress_every > 0,
            trace: trace
                .map(|(lane, epoch)| (lane, obs::TraceBuffer::with_epoch(TRACE_CAPACITY, epoch))),
            serve,
        }
    }

    /// The recorded trace lane, when one was asked for.
    pub fn into_trace(self) -> Option<obs::TraceBuffer> {
        self.trace.map(|(_, buf)| buf)
    }
}

impl ProgressObserver for LiveProgress {
    fn every(&self) -> usize {
        self.every
    }

    fn observe(&mut self, s: &ChainProgress) {
        let sampling = s.phase == ChainPhase::Sampling.name();
        if self.stderr {
            let head = format!(
                "progress {} chain {} {} {}/{} accept={:.3}",
                s.kernel, s.chain_index, s.phase, s.iteration, s.total, s.accept_rate
            );
            if sampling {
                eprintln!(
                    "{head} rankRhat={:.3} essBulk={:.1} div={}",
                    s.max_rank_r_hat, s.min_ess_bulk, s.divergences
                );
            } else {
                eprintln!("{head}");
            }
        }
        if let Some((lane, buf)) = &mut self.trace {
            buf.counter_wall("accept_rate", *lane, s.accept_rate);
            if sampling {
                buf.counter_wall("max_rank_r_hat", *lane, s.max_rank_r_hat);
                buf.counter_wall("min_ess_bulk", *lane, s.min_ess_bulk);
            }
            if s.divergences > 0 {
                buf.counter_wall("divergences", *lane, s.divergences as f64);
            }
        }
        if let Some(state) = self.serve {
            state.record_progress(*s);
        }
    }

    fn begin_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        if let Some((lane, buf)) = &mut self.trace {
            if phase == ChainPhase::Warmup {
                buf.set_lane_name(*lane, &format!("{} chain {chain_index}", kind.name()));
            }
            buf.begin_wall(phase.name(), *lane);
        }
    }

    fn end_phase(
        &mut self,
        chain_index: usize,
        kind: SamplerKind,
        phase: ChainPhase,
        iteration: usize,
        total: usize,
    ) {
        if let Some((lane, buf)) = &mut self.trace {
            buf.end_wall(phase.name(), *lane);
        }
        // Flip the chain's `/progress` row to "done" when sampling closes
        // or the chain stops early, so it is not reported mid-flight
        // forever; only the draws actually taken are credited.
        if let Some(state) = self.serve {
            if phase == ChainPhase::Sampling || iteration < total {
                state.mark_done(kind.name(), chain_index, iteration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_output_means_no_observation() {
        assert_eq!(NoProgress.every(), 0);
        // No serve state is ever installed in this test binary.
        assert_eq!(LiveProgress::new(0, None).every(), 0);
        assert_eq!(LiveProgress::new(7, None).every(), 7);
        let lane = Some((obs::Lane(0), Instant::now()));
        assert_eq!(LiveProgress::new(0, lane).every(), DEFAULT_EVERY);
    }

    #[test]
    fn live_progress_records_lanes_phases_and_counters() {
        let mut live = LiveProgress::new(0, Some((obs::Lane(2), Instant::now())));
        let snap = |phase: ChainPhase, accept_rate, divergences, diag| ChainProgress {
            kernel: "HMC",
            chain_index: 2,
            phase: phase.name(),
            iteration: 10,
            total: 100,
            accept_rate,
            divergences,
            max_rank_r_hat: diag,
            min_ess_bulk: diag,
        };
        live.begin_phase(2, SamplerKind::Hmc, ChainPhase::Warmup);
        live.observe(&snap(ChainPhase::Warmup, 0.8, 1, f64::NAN));
        live.end_phase(2, SamplerKind::Hmc, ChainPhase::Warmup, 100, 100);
        live.begin_phase(2, SamplerKind::Hmc, ChainPhase::Sampling);
        live.observe(&snap(ChainPhase::Sampling, 0.7, 0, 1.01));
        live.end_phase(2, SamplerKind::Hmc, ChainPhase::Sampling, 100, 100);

        let buf = live.into_trace().expect("a lane was asked for");
        assert_eq!(buf.lane_name(obs::Lane(2)), Some("HMC chain 2"));
        let count = |name: &str, kind: obs::TraceKind| {
            buf.events()
                .filter(|e| e.name == name && e.kind == kind)
                .count()
        };
        assert_eq!(count("warmup", obs::TraceKind::Begin), 1);
        assert_eq!(count("warmup", obs::TraceKind::End), 1);
        assert_eq!(count("sampling", obs::TraceKind::Begin), 1);
        assert_eq!(count("sampling", obs::TraceKind::End), 1);
        assert_eq!(count("accept_rate", obs::TraceKind::Counter), 2);
        assert_eq!(count("max_rank_r_hat", obs::TraceKind::Counter), 1);
        assert_eq!(count("min_ess_bulk", obs::TraceKind::Counter), 1);
        assert_eq!(count("divergences", obs::TraceKind::Counter), 1);
        // All wall-stamped.
        assert!(buf
            .events()
            .all(|e| matches!(e.time, obs::TraceTime::Wall(_))));
    }
}
