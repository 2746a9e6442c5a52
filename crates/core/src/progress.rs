//! Streaming sampler diagnostics: the [`ProgressObserver`] hook on the
//! chain driver.
//!
//! The chain loop calls the observer every `k` iterations with a
//! [`ProgressSnapshot`] — running accept rate, Welford online means, and
//! an incremental split-R̂ / min-ESS estimate over the draws collected so
//! far (reusing the capped estimators in [`crate::diagnostics`]) — and
//! brackets each phase with `begin_phase`/`end_phase`, also when a chain
//! stops early. Observers are handed to
//! [`crate::supervisor::run_chains_supervised`]. Three ship with the
//! crate:
//!
//! * [`StderrTicker`] — one line per snapshot on stderr, the
//!   `--progress [every-n]` flag of the experiment binaries;
//! * [`TraceProgress`] — records the same snapshots as wall-clock
//!   counter events in an owned [`obs::TraceBuffer`], one lane per
//!   chain, for the Chrome-trace export;
//! * [`ServeProgress`] — publishes the same snapshots to the
//!   process-global [`obs::serve`] endpoint (the `--serve <addr>` flag),
//!   feeding the live per-chain `/progress` table and the labelled
//!   `/metrics` rendered from it.
//!
//! The unobserved path uses [`NoProgress`], whose `every()` of 0 lets
//! the loop skip every per-iteration check after one branch, so the
//! monomorphised loop is the bare one.

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
    /// Short label for tickers and trace events.
    pub fn name(self) -> &'static str {
        match self {
            ChainPhase::Warmup => "warmup",
            ChainPhase::Sampling => "sampling",
        }
    }
}

/// One per-k-iteration observation of a running chain.
///
/// During warmup only the kernel statistics are live; `means` is empty
/// and the convergence estimates are `NaN` (warmup draws are discarded,
/// so there is nothing to diagnose yet).
#[derive(Debug)]
pub struct ProgressSnapshot<'a> {
    /// Which chain (the index `k` of its multi-chain run).
    pub chain_index: usize,
    /// Which kernel is running.
    pub kind: SamplerKind,
    /// Warmup or sampling.
    pub phase: ChainPhase,
    /// Iterations completed in this phase (retained draws during
    /// sampling).
    pub iteration: usize,
    /// Total iterations this phase will run.
    pub total: usize,
    /// Running acceptance rate of the kernel.
    pub accept_rate: f64,
    /// Divergent trajectories so far (HMC).
    pub divergences: u64,
    /// Welford online mean per coordinate over retained draws.
    pub means: &'a [f64],
    /// Incremental split-R̂ over this chain's halves so far (worst
    /// coordinate; `NaN` until enough draws).
    pub split_r_hat: f64,
    /// Incremental min-ESS over this chain's draws so far (`NaN` during
    /// warmup).
    pub min_ess: f64,
}

/// Observer hook for the chain loop (see the module docs).
pub trait ProgressObserver {
    /// Snapshot cadence in iterations; `0` disables observation (the
    /// driver then skips all snapshot bookkeeping).
    fn every(&self) -> usize;

    /// Called every [`Self::every`] iterations.
    fn observe(&mut self, snap: &ProgressSnapshot);

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
    fn observe(&mut self, _snap: &ProgressSnapshot) {}
}

/// Prints one stderr line per snapshot — the `--progress` ticker.
#[derive(Clone, Copy, Debug)]
pub struct StderrTicker {
    every: usize,
}

impl StderrTicker {
    /// A ticker firing every `every` iterations (`every >= 1`).
    pub fn new(every: usize) -> StderrTicker {
        StderrTicker {
            every: every.max(1),
        }
    }
}

impl ProgressObserver for StderrTicker {
    fn every(&self) -> usize {
        self.every
    }

    fn observe(&mut self, s: &ProgressSnapshot) {
        match s.phase {
            ChainPhase::Warmup => eprintln!(
                "progress {} chain {} {} {}/{} accept={:.3}",
                s.kind.name(),
                s.chain_index,
                s.phase.name(),
                s.iteration,
                s.total,
                s.accept_rate,
            ),
            ChainPhase::Sampling => eprintln!(
                "progress {} chain {} {} {}/{} accept={:.3} Rhat={:.3} minESS={:.1} div={}",
                s.kind.name(),
                s.chain_index,
                s.phase.name(),
                s.iteration,
                s.total,
                s.accept_rate,
                s.split_r_hat,
                s.min_ess,
                s.divergences,
            ),
        }
    }
}

/// Records snapshots as wall-clock trace events in an owned buffer.
///
/// Each chain gets one lane (`Lane(chain_index)`), named on the first
/// phase boundary (`"MH chain 0"`). Phases become spans; snapshots
/// become counter samples (`accept_rate`, `split_r_hat`, `min_ess`,
/// `divergences`, and `mean0` — the first coordinate's running mean).
#[derive(Debug)]
pub struct TraceProgress {
    every: usize,
    lane_base: u64,
    buf: obs::TraceBuffer,
}

impl TraceProgress {
    /// An observer sampling every `every` iterations into a buffer of
    /// `cap` events with the given wall-clock epoch (share one epoch
    /// across chains so merged stamps are comparable). `lane_base`
    /// offsets the chain lanes so several kernels' buffers can merge
    /// without colliding (e.g. MH at 0, HMC at `n_chains`).
    pub fn new(
        every: usize,
        cap: usize,
        epoch: std::time::Instant,
        lane_base: u64,
    ) -> TraceProgress {
        TraceProgress {
            every: every.max(1),
            lane_base,
            buf: obs::TraceBuffer::with_epoch(cap, epoch),
        }
    }

    fn lane(&self, chain_index: usize) -> obs::Lane {
        obs::Lane(self.lane_base + chain_index as u64)
    }

    /// The recorded buffer.
    pub fn into_buffer(self) -> obs::TraceBuffer {
        self.buf
    }
}

impl ProgressObserver for TraceProgress {
    fn every(&self) -> usize {
        self.every
    }

    fn observe(&mut self, s: &ProgressSnapshot) {
        let lane = self.lane(s.chain_index);
        self.buf.counter_wall("accept_rate", lane, s.accept_rate);
        if s.phase == ChainPhase::Sampling {
            self.buf.counter_wall("split_r_hat", lane, s.split_r_hat);
            self.buf.counter_wall("min_ess", lane, s.min_ess);
            if let Some(&m) = s.means.first() {
                self.buf.counter_wall("mean0", lane, m);
            }
        }
        if s.divergences > 0 {
            self.buf
                .counter_wall("divergences", lane, s.divergences as f64);
        }
    }

    fn begin_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let lane = self.lane(chain_index);
        if phase == ChainPhase::Warmup {
            self.buf
                .set_lane_name(lane, &format!("{} chain {chain_index}", kind.name()));
        }
        self.buf.begin_wall(phase.name(), lane);
    }

    fn end_phase(
        &mut self,
        chain_index: usize,
        _kind: SamplerKind,
        phase: ChainPhase,
        _iteration: usize,
        _total: usize,
    ) {
        let lane = self.lane(chain_index);
        self.buf.end_wall(phase.name(), lane);
    }
}

/// Publishes snapshots to the process-global [`obs::serve`] endpoint:
/// each one replaces this chain's row of the per-chain table that
/// `/progress` serves and `/metrics` renders (`repro_draws`, and the
/// `{kernel,chain}`-labelled `repro_accept_rate`, `repro_split_r_hat`,
/// …).
///
/// Observation never touches the RNG, and when no endpoint is installed
/// [`ServeProgress::installed`] returns `None` — the driver then runs
/// the unobserved (zero-cost) path.
pub struct ServeProgress {
    every: usize,
    state: &'static std::sync::Arc<obs::serve::ServeState>,
}

impl std::fmt::Debug for ServeProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeProgress")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

impl ServeProgress {
    /// An observer posting every `every` iterations to the installed
    /// endpoint, or `None` when no [`obs::serve::install`] happened in
    /// this process.
    pub fn installed(every: usize) -> Option<ServeProgress> {
        obs::serve::installed().map(|state| ServeProgress {
            every: every.max(1),
            state,
        })
    }
}

impl ProgressObserver for ServeProgress {
    fn every(&self) -> usize {
        self.every
    }

    fn observe(&mut self, s: &ProgressSnapshot) {
        self.state.record_progress(obs::serve::ChainProgress {
            kernel: s.kind.name(),
            chain_index: s.chain_index,
            phase: s.phase.name(),
            iteration: s.iteration,
            total: s.total,
            accept_rate: s.accept_rate,
            divergences: s.divergences,
            split_r_hat: s.split_r_hat,
            min_ess: s.min_ess,
        });
    }

    fn end_phase(
        &mut self,
        chain_index: usize,
        kind: SamplerKind,
        phase: ChainPhase,
        iteration: usize,
        total: usize,
    ) {
        // Flip the chain's `/progress` row to "done" when sampling closes
        // or the chain stops early, so it is not reported mid-flight
        // forever; only the draws actually taken are credited.
        if phase == ChainPhase::Sampling || iteration < total {
            self.state.mark_done(kind.name(), chain_index, iteration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_progress_is_disabled() {
        assert_eq!(NoProgress.every(), 0);
    }

    #[test]
    fn ticker_clamps_cadence() {
        assert_eq!(StderrTicker::new(0).every(), 1);
        assert_eq!(StderrTicker::new(50).every(), 50);
    }

    #[test]
    fn trace_progress_records_lanes_phases_and_counters() {
        let mut tp = TraceProgress::new(10, 256, std::time::Instant::now(), 0);
        tp.begin_phase(2, SamplerKind::Hmc, ChainPhase::Warmup);
        tp.observe(&ProgressSnapshot {
            chain_index: 2,
            kind: SamplerKind::Hmc,
            phase: ChainPhase::Warmup,
            iteration: 10,
            total: 100,
            accept_rate: 0.8,
            divergences: 1,
            means: &[],
            split_r_hat: f64::NAN,
            min_ess: f64::NAN,
        });
        tp.end_phase(2, SamplerKind::Hmc, ChainPhase::Warmup, 100, 100);
        tp.begin_phase(2, SamplerKind::Hmc, ChainPhase::Sampling);
        tp.observe(&ProgressSnapshot {
            chain_index: 2,
            kind: SamplerKind::Hmc,
            phase: ChainPhase::Sampling,
            iteration: 10,
            total: 100,
            accept_rate: 0.7,
            divergences: 0,
            means: &[0.25, 0.5],
            split_r_hat: 1.01,
            min_ess: 42.0,
        });
        tp.end_phase(2, SamplerKind::Hmc, ChainPhase::Sampling, 100, 100);

        let buf = tp.into_buffer();
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
        assert_eq!(count("split_r_hat", obs::TraceKind::Counter), 1);
        assert_eq!(count("mean0", obs::TraceKind::Counter), 1);
        assert_eq!(count("divergences", obs::TraceKind::Counter), 1);
        // All wall-stamped.
        assert!(buf
            .events()
            .all(|e| matches!(e.time, obs::TraceTime::Wall(_))));
    }
}
