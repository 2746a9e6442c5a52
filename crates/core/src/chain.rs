//! The sampler abstraction and the chain loop: warmup, thinning, energy
//! and divergence bookkeeping, and progress observation. Parallel
//! multi-chain execution lives in [`crate::supervisor`].
//!
//! Draws are stored row-major in one flat `Vec<f64>` (draw `s`, coordinate
//! `i` at `s * dim + i`) instead of a `Vec` per draw: one allocation per
//! chain, contiguous scans for the diagnostics, and cheap concatenation
//! when pooling.

use netsim::SimRng;
use serde::{Deserialize, Serialize};

use obs::serve::ChainProgress;

use crate::checkpoint::CheckpointError;
use crate::diagnostics::{coordinate_bulk, nan_max, nan_min};
use crate::progress::{ChainPhase, NoProgress, ProgressObserver};
use crate::supervisor::ChainOutcome;

/// Which MCMC kernel produced a chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SamplerKind {
    /// Component-wise random-walk Metropolis–Hastings.
    MetropolisHastings,
    /// Hamiltonian Monte Carlo.
    Hmc,
}

impl SamplerKind {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::MetropolisHastings => "MH",
            SamplerKind::Hmc => "HMC",
        }
    }
}

/// A Markov-chain kernel over the probability vector `p`.
pub trait Sampler {
    /// Dimensionality of `p`.
    fn dim(&self) -> usize;
    /// The current state.
    fn state(&self) -> &[f64];
    /// Advance the chain by one iteration (a full sweep for MH, one
    /// trajectory for HMC).
    fn step(&mut self, rng: &mut SimRng);
    /// Adaptation hook, called after each warmup iteration with the
    /// iteration index and the warmup length. Kernels freeze their tuned
    /// parameters when `iter + 1 == total`.
    fn adapt(&mut self, iter: usize, total: usize);
    /// Called once when the warmup phase ends, also when it had no
    /// iterations (so [`Self::adapt`] never ran): a kernel that is still
    /// adapting must freeze here, or the retained draws would not come
    /// from a fixed kernel.
    fn end_warmup(&mut self) {}
    /// Overall acceptance rate so far.
    fn acceptance_rate(&self) -> f64;
    /// Total proposals made so far (the denominator of
    /// [`Self::acceptance_rate`]); lets callers weight rates correctly
    /// when pooling chains.
    fn proposals(&self) -> u64;
    /// Which kind this is.
    fn kind(&self) -> SamplerKind;
    /// Divergent trajectories so far (HMC; 0 for kernels without a
    /// divergence notion).
    fn divergences(&self) -> u64 {
        0
    }
    /// Likelihood evaluations so far: incremental deltas for MH, and for
    /// HMC full log-posterior values (one per chain at its start, then
    /// one per trajectory that reaches its last leapfrog step).
    fn likelihood_evals(&self) -> u64 {
        0
    }
    /// Likelihood gradient evaluations so far (0 for gradient-free
    /// kernels).
    fn grad_evals(&self) -> u64 {
        0
    }
    /// Total energy (−log posterior + kinetic) at the start of the most
    /// recent trajectory — the series behind the E-BFMI diagnostic.
    /// `NaN` for kernels without an energy notion (the default) and
    /// before the first step.
    fn energy(&self) -> f64 {
        f64::NAN
    }
}

/// Settings for running one or more chains.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Warmup (burn-in + adaptation) iterations, discarded.
    pub warmup: usize,
    /// Retained samples per chain.
    pub samples: usize,
    /// Keep every `thin`-th post-warmup iteration.
    pub thin: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            warmup: 500,
            samples: 1000,
            thin: 1,
        }
    }
}

/// Posterior samples from one chain, stored row-major.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Chain {
    /// Kernel that produced the samples.
    pub kind: SamplerKind,
    /// Flat row-major draws: coordinate `i` of draw `s` is
    /// `samples[s * dim + i]`.
    samples: Vec<f64>,
    /// Coordinates per draw.
    dim: usize,
    /// Retained draws.
    draws: usize,
    /// Overall acceptance rate of the kernel.
    pub accept_rate: f64,
    /// Proposals behind `accept_rate` (0 when unknown, e.g. synthetic
    /// chains); used to weight pooled rates.
    pub proposals: u64,
    /// Divergent trajectories during warmup + sampling (HMC only).
    pub divergences: u64,
    /// Likelihood evaluations the kernel paid for (incremental deltas
    /// for MH, log-posterior values for HMC: one per trajectory).
    pub likelihood_evals: u64,
    /// Likelihood gradient evaluations (0 for gradient-free kernels).
    pub grad_evals: u64,
    /// Wall-clock spent in warmup (0 for hand-built chains and for
    /// chains resumed from a checkpoint, which skip warmup).
    pub warmup_secs: f64,
    /// Wall-clock spent collecting samples (0 for hand-built chains; a
    /// resumed chain counts only the draws after its restore point).
    pub sampling_secs: f64,
    /// Per-retained-draw trajectory energies (`NaN` entries for kernels
    /// without an energy notion; empty for synthetic chains).
    pub(crate) energies: Vec<f64>,
    /// Retained-draw indices whose thin window contained at least one
    /// divergent trajectory.
    pub(crate) divergent_draws: Vec<usize>,
}

impl Chain {
    /// An empty chain of the given dimensionality.
    pub fn new(kind: SamplerKind, dim: usize) -> Chain {
        Chain::with_capacity(kind, dim, 0)
    }

    /// An empty chain with room for `draws` draws.
    pub fn with_capacity(kind: SamplerKind, dim: usize, draws: usize) -> Chain {
        Chain {
            kind,
            samples: Vec::with_capacity(dim * draws),
            dim,
            draws: 0,
            accept_rate: 0.0,
            proposals: 0,
            divergences: 0,
            likelihood_evals: 0,
            grad_evals: 0,
            warmup_secs: 0.0,
            sampling_secs: 0.0,
            energies: Vec::with_capacity(draws),
            divergent_draws: Vec::new(),
        }
    }

    /// Build a chain from explicit rows (tests, synthetic posteriors).
    pub fn from_rows(kind: SamplerKind, rows: Vec<Vec<f64>>, accept_rate: f64) -> Chain {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut chain = Chain::with_capacity(kind, dim, rows.len());
        chain.accept_rate = accept_rate;
        for row in &rows {
            chain.push_row(row);
        }
        chain
    }

    /// Append one draw.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.samples.extend_from_slice(row);
        self.draws += 1;
    }

    /// Number of draws.
    pub fn len(&self) -> usize {
        self.draws
    }

    /// True when no draws were collected.
    pub fn is_empty(&self) -> bool {
        self.draws == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draw `s` as a coordinate slice.
    #[inline]
    pub fn row(&self, s: usize) -> &[f64] {
        &self.samples[s * self.dim..(s + 1) * self.dim]
    }

    /// Iterate over draws as coordinate slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone + '_ {
        (0..self.draws).map(move |s| self.row(s))
    }

    /// The whole row-major sample buffer.
    pub fn flat(&self) -> &[f64] {
        &self.samples
    }

    /// The marginal draws of coordinate `i` as a fresh vector.
    pub fn column(&self, i: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.draws);
        self.copy_column(i, &mut out);
        out
    }

    /// Copy the marginal draws of coordinate `i` into `out` (cleared
    /// first); lets hot loops reuse one scratch buffer across coordinates.
    pub fn copy_column(&self, i: usize, out: &mut Vec<f64>) {
        assert!(i < self.dim, "coordinate out of range");
        out.clear();
        out.reserve(self.draws);
        out.extend(self.samples.iter().skip(i).step_by(self.dim).copied());
    }

    /// Per-draw trajectory energies recorded by the chain drivers: one
    /// entry per retained draw (`NaN` for energy-free kernels like MH),
    /// or empty when unknown (synthetic chains, older checkpoints).
    pub fn energies(&self) -> &[f64] {
        &self.energies
    }

    /// Indices of retained draws whose thin window contained at least
    /// one divergent trajectory (HMC; always empty for MH).
    pub fn divergent_draws(&self) -> &[usize] {
        &self.divergent_draws
    }

    /// Attach per-draw metadata to a hand-built chain (tests, synthetic
    /// posteriors). `energies` must be empty or hold one entry per draw;
    /// `divergent_draws` must be in-range draw indices.
    pub fn set_draw_meta(&mut self, energies: Vec<f64>, divergent_draws: Vec<usize>) {
        assert!(
            energies.is_empty() || energies.len() == self.draws,
            "need one energy per draw ({} vs {})",
            energies.len(),
            self.draws
        );
        assert!(
            divergent_draws.iter().all(|&s| s < self.draws),
            "divergent draw index out of range"
        );
        self.energies = energies;
        self.divergent_draws = divergent_draws;
    }

    /// Posterior mean of coordinate `i`.
    pub fn mean(&self, i: usize) -> f64 {
        if self.draws == 0 {
            return f64::NAN;
        }
        let sum: f64 = self.samples.iter().skip(i).step_by(self.dim).sum();
        sum / self.draws as f64
    }

    /// Merge draws from several chains (same kind and dimension).
    ///
    /// The pooled acceptance rate is weighted by each chain's proposal
    /// count — an unweighted average misstates the rate whenever chains
    /// made different numbers of proposals (e.g. HMC chains with divergent
    /// early trajectories). Chains without proposal counts fall back to
    /// draw-count weights.
    pub fn pooled(chains: &[Chain]) -> Chain {
        assert!(!chains.is_empty(), "no chains to pool");
        let kind = chains[0].kind;
        let dim = chains[0].dim;
        let total_draws: usize = chains.iter().map(Chain::len).sum();
        let mut pooled = Chain::with_capacity(kind, dim, total_draws);
        // Energies only concatenate cleanly when every chain carries a
        // full set — a partial concatenation would misalign draw indices.
        let all_energies = chains.iter().all(|c| c.energies.len() == c.draws);
        for c in chains {
            assert_eq!(c.kind, kind, "cannot pool different kernels");
            assert_eq!(c.dim, dim, "cannot pool different dimensions");
            let draw_base = pooled.draws;
            pooled.samples.extend_from_slice(&c.samples);
            pooled.draws += c.draws;
            if all_energies {
                pooled.energies.extend_from_slice(&c.energies);
            }
            pooled
                .divergent_draws
                .extend(c.divergent_draws.iter().map(|&s| s + draw_base));
            pooled.divergences += c.divergences;
            pooled.likelihood_evals += c.likelihood_evals;
            pooled.grad_evals += c.grad_evals;
            pooled.warmup_secs += c.warmup_secs;
            pooled.sampling_secs += c.sampling_secs;
        }
        let total_proposals: u64 = chains.iter().map(|c| c.proposals).sum();
        pooled.proposals = total_proposals;
        pooled.accept_rate = if total_proposals > 0 {
            chains
                .iter()
                .map(|c| c.accept_rate * c.proposals as f64)
                .sum::<f64>()
                / total_proposals as f64
        } else if total_draws > 0 {
            chains
                .iter()
                .map(|c| c.accept_rate * c.len() as f64)
                .sum::<f64>()
                / total_draws as f64
        } else {
            chains.iter().map(|c| c.accept_rate).sum::<f64>() / chains.len() as f64
        };
        pooled
    }
}

/// Run one chain: warmup with adaptation, then collect thinned samples.
pub fn run_chain<S: Sampler>(sampler: S, config: &ChainConfig, rng: &mut SimRng) -> Chain {
    match drive_chain(sampler, config, rng, 0, &mut NoProgress, &mut Unsupervised) {
        Ok(ChainOutcome::Completed(chain)) => chain,
        _ => unreachable!("an unsupervised chain always completes"),
    }
}

/// The supervisor's points in the chain loop: resume prologue,
/// per-iteration deadline, per-draw checkpoint, stop and kill. The
/// defaults are the unsupervised no-ops; the supervised hook lives in
/// [`crate::supervisor`].
pub(crate) trait ChainHook<S: Sampler> {
    /// Called once before the first iteration: arm the deadline and
    /// restore a checkpointed chain into `(sampler, rng, chain)`,
    /// returning its retained draws, or `None` to start fresh.
    #[inline(always)]
    fn start(
        &mut self,
        sampler: &mut S,
        rng: &mut SimRng,
        chain: &mut Chain,
    ) -> Result<Option<usize>, CheckpointError> {
        let _ = (sampler, rng, chain);
        Ok(None)
    }

    /// Checked before every warmup iteration and sampling draw; `true`
    /// stops the chain as timed out.
    #[inline(always)]
    fn expired(&self) -> bool {
        false
    }

    /// The chain timed out during sampling with `chain` collected.
    #[inline(always)]
    fn timed_out(
        &mut self,
        sampler: &S,
        rng: &SimRng,
        chain: &Chain,
    ) -> Result<(), CheckpointError> {
        let _ = (sampler, rng, chain);
        Ok(())
    }

    /// After retained draw number `done`: checkpoint when due (or exit
    /// the process at the kill point); `true` stops the chain.
    #[inline(always)]
    fn after_draw(
        &mut self,
        done: u64,
        sampler: &S,
        rng: &SimRng,
        chain: &Chain,
    ) -> Result<bool, CheckpointError> {
        let _ = (done, sampler, rng, chain);
        Ok(false)
    }
}

/// The unsupervised hook: every point is an inlined no-op, so
/// [`run_chain`] monomorphises [`drive_chain`] to the bare loop.
pub(crate) struct Unsupervised;

impl<S: Sampler> ChainHook<S> for Unsupervised {}

/// The chain loop behind every driver: warmup with adaptation and
/// `end_warmup`, thinned sampling with energy and divergence
/// bookkeeping, observer snapshots every `observer.every()` iterations
/// and at the last retained draw (see [`crate::progress`]), and the
/// `hook`'s supervision points.
///
/// A sampling snapshot carries the chain's worst rank-R̂ and smallest
/// bulk ESS over the first `every·2^k` draws for the largest such count
/// reached, or over every draw at the last one: the values depend only
/// on the draw count, so a resumed chain reports what an uninterrupted
/// one does, and the recomputes cost about twice one final pass.
///
/// Neither observation nor the hook touches the RNG between draws, so
/// every driver produces the same chain draw for draw. Every return
/// closes the open observer phase with the iterations actually run.
pub(crate) fn drive_chain<S: Sampler, O: ProgressObserver, H: ChainHook<S>>(
    mut sampler: S,
    config: &ChainConfig,
    rng: &mut SimRng,
    chain_index: usize,
    observer: &mut O,
    hook: &mut H,
) -> Result<ChainOutcome, CheckpointError> {
    let every = observer.every();
    let kind = sampler.kind();
    let snapshot = |sampler: &S, phase: ChainPhase, iteration, total, (r_hat, ess)| ChainProgress {
        kernel: kind.name(),
        chain_index,
        phase: phase.name(),
        iteration,
        total,
        accept_rate: sampler.acceptance_rate(),
        divergences: sampler.divergences(),
        max_rank_r_hat: r_hat,
        min_ess_bulk: ess,
    };
    let mut chain = Chain::with_capacity(kind, sampler.dim(), config.samples);
    let resumed = hook.start(&mut sampler, rng, &mut chain)?;

    let mut warmup_secs = 0.0;
    if resumed.is_none() {
        let warmup_watch = obs::Stopwatch::start();
        if every > 0 {
            observer.begin_phase(chain_index, kind, ChainPhase::Warmup);
        }
        for it in 0..config.warmup {
            if hook.expired() {
                if every > 0 {
                    observer.end_phase(chain_index, kind, ChainPhase::Warmup, it, config.warmup);
                }
                return Ok(ChainOutcome::TimedOut { phase: "warmup" });
            }
            sampler.step(rng);
            sampler.adapt(it, config.warmup);
            if every > 0 && (it + 1) % every == 0 {
                let total = config.warmup;
                let diag = (f64::NAN, f64::NAN);
                observer.observe(&snapshot(&sampler, ChainPhase::Warmup, it + 1, total, diag));
            }
        }
        sampler.end_warmup();
        if every > 0 {
            let total = config.warmup;
            observer.end_phase(chain_index, kind, ChainPhase::Warmup, total, total);
        }
        warmup_secs = warmup_watch.elapsed_secs();
    }

    let sampling_watch = obs::Stopwatch::start();
    let thin = config.thin.max(1);
    if every > 0 {
        observer.begin_phase(chain_index, kind, ChainPhase::Sampling);
    }
    // The draw count the live diagnostics were last computed over, and
    // their values.
    let mut diag_at = 0;
    let mut diag = (f64::NAN, f64::NAN);
    // Divergence watermark: only trajectories inside the sampling phase
    // mark draws (warmup divergences are the kernel's problem to adapt
    // away, not the posterior's). After a resume the restored kernel
    // counters keep this bit-exact with the uninterrupted run.
    let mut prev_div = sampler.divergences();
    let mut stopped = None;
    for s in resumed.unwrap_or(0)..config.samples {
        if hook.expired() {
            stopped = Some(
                hook.timed_out(&sampler, rng, &chain)
                    .map(|()| ChainOutcome::TimedOut { phase: "sampling" }),
            );
            break;
        }
        for _ in 0..thin {
            sampler.step(rng);
        }
        chain.push_row(sampler.state());
        chain.energies.push(sampler.energy());
        let div = sampler.divergences();
        if div != prev_div {
            chain.divergent_draws.push(s);
            prev_div = div;
        }
        let n = s + 1;
        if every > 0 && (n % every == 0 || n == config.samples) {
            let due = if n == config.samples {
                n
            } else {
                every << (n / every).ilog2()
            };
            if due != diag_at {
                diag = live_diagnostics(&chain, due);
                diag_at = due;
            }
            let total = config.samples;
            observer.observe(&snapshot(&sampler, ChainPhase::Sampling, n, total, diag));
        }
        let done = n as u64;
        stopped = hook
            .after_draw(done, &sampler, rng, &chain)
            .map(|stop| stop.then_some(ChainOutcome::Interrupted { samples_done: done }))
            .transpose();
        if stopped.is_some() {
            break;
        }
    }
    if every > 0 {
        observer.end_phase(
            chain_index,
            kind,
            ChainPhase::Sampling,
            chain.len(),
            config.samples,
        );
    }
    if let Some(stopped) = stopped {
        return stopped;
    }
    chain.accept_rate = sampler.acceptance_rate();
    chain.proposals = sampler.proposals();
    chain.divergences = sampler.divergences();
    chain.likelihood_evals = sampler.likelihood_evals();
    chain.grad_evals = sampler.grad_evals();
    chain.warmup_secs = warmup_secs;
    chain.sampling_secs = sampling_watch.elapsed_secs();
    Ok(ChainOutcome::Completed(chain))
}

/// The worst rank-R̂ and smallest bulk ESS over the first `draws` draws
/// of `chain` alone: one [`coordinate_bulk`] pass per coordinate.
fn live_diagnostics(chain: &Chain, draws: usize) -> (f64, f64) {
    let prefix;
    let chain = if draws == chain.len() {
        chain
    } else {
        let rows = chain.rows().take(draws).map(<[f64]>::to_vec).collect();
        prefix = Chain::from_rows(chain.kind, rows, 0.0);
        &prefix
    };
    let chains = std::slice::from_ref(chain);
    (0..chain.dim())
        .map(|i| coordinate_bulk(chains, i))
        .fold((f64::NAN, f64::NAN), |(r_hat, ess), (r, e)| {
            (nan_max(r_hat, r), nan_min(ess, e))
        })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A toy kernel: independent draws from N(μ, 1) via a random-walk —
    /// enough to test the driver plumbing.
    struct Toy {
        x: Vec<f64>,
        accepted: u64,
        proposed: u64,
    }

    impl Sampler for Toy {
        fn dim(&self) -> usize {
            self.x.len()
        }
        fn state(&self) -> &[f64] {
            &self.x
        }
        fn step(&mut self, rng: &mut SimRng) {
            for i in 0..self.x.len() {
                let cand = self.x[i] + 0.5 * rng.gaussian();
                // Target: standard normal.
                let log_ratio = 0.5 * (self.x[i] * self.x[i] - cand * cand);
                self.proposed += 1;
                if log_ratio >= 0.0 || rng.uniform() < log_ratio.exp() {
                    self.x[i] = cand;
                    self.accepted += 1;
                }
            }
        }
        fn adapt(&mut self, _: usize, _: usize) {}
        fn acceptance_rate(&self) -> f64 {
            if self.proposed == 0 {
                0.0
            } else {
                self.accepted as f64 / self.proposed as f64
            }
        }
        fn proposals(&self) -> u64 {
            self.proposed
        }
        fn kind(&self) -> SamplerKind {
            SamplerKind::MetropolisHastings
        }
    }

    #[test]
    fn driver_collects_requested_samples() {
        let mut rng = SimRng::new(1);
        let chain = run_chain(
            Toy {
                x: vec![5.0, -5.0],
                accepted: 0,
                proposed: 0,
            },
            &ChainConfig {
                warmup: 500,
                samples: 3000,
                thin: 2,
            },
            &mut rng,
        );
        assert_eq!(chain.len(), 3000);
        assert_eq!(chain.dim(), 2);
        assert!(chain.accept_rate > 0.3 && chain.accept_rate < 1.0);
        assert!(chain.proposals >= 2 * (500 + 2 * 3000) as u64);
        // After warmup the chain forgot its bad start: means near 0
        // (tolerance sized for the random-walk autocorrelation).
        assert!(chain.mean(0).abs() < 0.25, "mean={}", chain.mean(0));
        assert!(chain.mean(1).abs() < 0.25, "mean={}", chain.mean(1));
    }

    #[test]
    fn rows_and_columns_agree_with_flat_layout() {
        let chain = Chain::from_rows(
            SamplerKind::Hmc,
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            0.5,
        );
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.dim(), 2);
        assert_eq!(chain.flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(chain.row(1), &[3.0, 4.0]);
        assert_eq!(chain.column(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(chain.column(1), vec![2.0, 4.0, 6.0]);
        let rows: Vec<&[f64]> = chain.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[5.0, 6.0]);
        assert!((chain.mean(1) - 4.0).abs() < 1e-12);
        let mut buf = vec![99.0; 8];
        chain.copy_column(1, &mut buf);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn pooled_concatenates() {
        let rng = SimRng::new(2);
        let cfg = ChainConfig {
            warmup: 10,
            samples: 20,
            thin: 1,
        };
        let chains: Vec<Chain> = (0..4)
            .map(|k| {
                let toy = Toy {
                    x: vec![0.0],
                    accepted: 0,
                    proposed: 0,
                };
                run_chain(toy, &cfg, &mut rng.split_index("chain", k))
            })
            .collect();
        let pooled = Chain::pooled(&chains);
        assert_eq!(pooled.len(), 80);
        assert_eq!(pooled.column(0).len(), 80);
    }

    #[test]
    #[should_panic(expected = "cannot pool different dimensions")]
    fn pooled_rejects_mixed_dimensions() {
        let a = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.5);
        let b = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0, 1.0]; 4], 0.5);
        let _ = Chain::pooled(&[a, b]);
    }

    #[test]
    fn run_chain_records_phase_wall_clock() {
        let mut rng = SimRng::new(7);
        let chain = run_chain(
            Toy {
                x: vec![0.0],
                accepted: 0,
                proposed: 0,
            },
            &ChainConfig {
                warmup: 200,
                samples: 200,
                thin: 1,
            },
            &mut rng,
        );
        assert!(chain.warmup_secs > 0.0);
        assert!(chain.sampling_secs > 0.0);
        // The Toy kernel uses the default (zero) instrumentation hooks.
        assert_eq!(chain.divergences, 0);
        assert_eq!(chain.likelihood_evals, 0);
    }

    /// Collects every snapshot and phase boundary for assertions.
    #[derive(Default)]
    pub(crate) struct Collector {
        pub(crate) every: usize,
        pub(crate) snaps: Vec<ChainProgress>,
        /// `(phase, None)` at a phase's start, `(phase, Some(iterations
        /// run))` at its end.
        pub(crate) phases: Vec<(ChainPhase, Option<usize>)>,
    }

    impl Collector {
        pub(crate) fn every(every: usize) -> Collector {
            Collector {
                every,
                ..Collector::default()
            }
        }
    }

    impl ProgressObserver for Collector {
        fn every(&self) -> usize {
            self.every
        }
        fn observe(&mut self, s: &ChainProgress) {
            self.snaps.push(*s);
        }
        fn begin_phase(&mut self, _: usize, _: SamplerKind, phase: ChainPhase) {
            self.phases.push((phase, None));
        }
        fn end_phase(&mut self, _: usize, _: SamplerKind, phase: ChainPhase, it: usize, _: usize) {
            self.phases.push((phase, Some(it)));
        }
    }

    #[test]
    fn observed_run_matches_unobserved_draw_for_draw() {
        let cfg = ChainConfig {
            warmup: 100,
            samples: 420,
            thin: 1,
        };
        let make = || Toy {
            x: vec![3.0, -3.0],
            accepted: 0,
            proposed: 0,
        };
        let mut rng_a = SimRng::new(21);
        let plain = run_chain(make(), &cfg, &mut rng_a);
        let mut rng_b = SimRng::new(21);
        let mut collector = Collector::every(50);
        let observed = match drive_chain(
            make(),
            &cfg,
            &mut rng_b,
            0,
            &mut collector,
            &mut Unsupervised,
        ) {
            Ok(ChainOutcome::Completed(chain)) => chain,
            _ => unreachable!(),
        };
        assert_eq!(
            plain.flat(),
            observed.flat(),
            "observation must not perturb draws"
        );
        assert_eq!(plain.accept_rate, observed.accept_rate);

        // 100/50 warmup + 420/50 sampling snapshots, one more at the last
        // draw, phases bracketed.
        let at: Vec<usize> = collector.snaps.iter().map(|s| s.iteration).collect();
        assert_eq!(at, [50, 100, 50, 100, 150, 200, 250, 300, 350, 400, 420]);
        assert_eq!(
            collector.phases,
            vec![
                (ChainPhase::Warmup, None),
                (ChainPhase::Warmup, Some(100)),
                (ChainPhase::Sampling, None),
                (ChainPhase::Sampling, Some(420)),
            ]
        );
        // Warmup snapshots carry no convergence estimates.
        let first = &collector.snaps[0];
        assert_eq!(
            (first.phase, first.kernel, first.total),
            ("warmup", "MH", 100)
        );
        assert!(first.accept_rate > 0.0);
        assert!(first.max_rank_r_hat.is_nan() && first.min_ess_bulk.is_nan());
        // Sampling snapshots carry the diagnostics of the first 50·2^k
        // draws (the largest such count reached), and of every draw at
        // the last one.
        let diag = |s: &ChainProgress| (s.max_rank_r_hat.to_bits(), s.min_ess_bulk.to_bits());
        let over = |draws: usize| {
            let (r_hat, ess) = live_diagnostics(&observed, draws);
            assert!(r_hat.is_finite() && r_hat > 0.9, "rhat={r_hat}");
            assert!(ess.is_finite() && ess >= 1.0, "ess={ess}");
            (r_hat.to_bits(), ess.to_bits())
        };
        let sampling = &collector.snaps[2..];
        for (snap, draws) in sampling
            .iter()
            .zip([50, 100, 100, 200, 200, 200, 200, 400, 420])
        {
            assert_eq!(snap.phase, "sampling");
            assert_eq!(diag(snap), over(draws), "snapshot at {}", snap.iteration);
        }
        // The last one is one coordinate pass over this chain alone.
        let chains = std::slice::from_ref(&observed);
        let c: Vec<_> = (0..2)
            .map(|i| crate::diagnostics::coordinate(chains, i))
            .collect();
        let last = sampling.last().unwrap();
        assert_eq!(last.max_rank_r_hat, c[0].rank_r_hat.max(c[1].rank_r_hat));
        assert_eq!(last.min_ess_bulk, c[0].ess_bulk.min(c[1].ess_bulk));
    }

    #[test]
    fn driver_records_one_energy_per_draw() {
        // Toy has no energy notion: the default hook fills NaN, one per
        // retained draw, and no draw is marked divergent.
        let mut rng = SimRng::new(31);
        let chain = run_chain(
            Toy {
                x: vec![0.0],
                accepted: 0,
                proposed: 0,
            },
            &ChainConfig {
                warmup: 10,
                samples: 25,
                thin: 2,
            },
            &mut rng,
        );
        assert_eq!(chain.energies().len(), 25);
        assert!(chain.energies().iter().all(|e| e.is_nan()));
        assert!(chain.divergent_draws().is_empty());
    }

    #[test]
    fn pooled_offsets_divergent_draws_and_concatenates_energies() {
        let mut a = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 5], 0.5);
        a.set_draw_meta(vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![1, 4]);
        let mut b = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 3], 0.5);
        b.set_draw_meta(vec![6.0, 7.0, 8.0], vec![0]);
        let pooled = Chain::pooled(&[a, b]);
        assert_eq!(pooled.energies(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(pooled.divergent_draws(), &[1, 4, 5]);
    }

    #[test]
    fn pooled_drops_energies_when_any_chain_lacks_them() {
        let mut a = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.5);
        a.set_draw_meta(vec![1.0; 4], vec![2]);
        let b = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.5);
        let pooled = Chain::pooled(&[a, b]);
        assert!(
            pooled.energies().is_empty(),
            "partial energies must not misalign draw indices"
        );
        // Divergent marks are always well-defined and survive pooling.
        assert_eq!(pooled.divergent_draws(), &[2]);
    }

    #[test]
    #[should_panic(expected = "one energy per draw")]
    fn set_draw_meta_rejects_wrong_length() {
        let mut c = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.5);
        c.set_draw_meta(vec![1.0; 3], vec![]);
    }

    #[test]
    fn pooled_accept_rate_is_proposal_weighted() {
        // Chain A: 90 % acceptance over 1000 proposals; chain B: 10 % over
        // 10. The pooled rate must sit very close to A's, not at the 0.5
        // midpoint an unweighted average would report.
        let mut a = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.9);
        a.proposals = 1000;
        let mut b = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 4], 0.1);
        b.proposals = 10;
        let pooled = Chain::pooled(&[a, b]);
        let expect = (0.9 * 1000.0 + 0.1 * 10.0) / 1010.0;
        assert!(
            (pooled.accept_rate - expect).abs() < 1e-12,
            "got {}",
            pooled.accept_rate
        );
        assert_eq!(pooled.proposals, 1010);
    }

    #[test]
    fn pooled_accept_rate_falls_back_to_draw_weights() {
        // Synthetic chains without proposal counts: weight by draws.
        let a = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 30], 0.6);
        let b = Chain::from_rows(SamplerKind::Hmc, vec![vec![0.0]; 10], 0.2);
        let pooled = Chain::pooled(&[a, b]);
        let expect = (0.6 * 30.0 + 0.2 * 10.0) / 40.0;
        assert!(
            (pooled.accept_rate - expect).abs() < 1e-12,
            "got {}",
            pooled.accept_rate
        );
    }
}
