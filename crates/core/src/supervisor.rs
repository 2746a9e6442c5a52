//! Supervised multi-chain execution: panic isolation, a wall-clock
//! watchdog, and checkpoint/resume on top of the plain chain driver.
//!
//! [`run_chains_supervised`] runs the *exact* loop of
//! [`crate::chain::run_chains_observed`] — same per-chain RNG streams,
//! same step/adapt/observe order — so with a default
//! [`SupervisorConfig`] the draws are bit-identical to an unsupervised
//! run. On top of that shape it adds:
//!
//! * **panic isolation** — a chain that panics (a poisoned likelihood, a
//!   bug in a kernel) is caught with `catch_unwind`, reported as
//!   [`ChainOutcome::Poisoned`] with the panic message, and the remaining
//!   chains complete normally;
//! * **watchdog** — an optional wall-clock deadline checked once per
//!   iteration; a chain that overruns is stopped cooperatively (with a
//!   final checkpoint when checkpointing is on) instead of hanging the
//!   campaign;
//! * **checkpoint/resume** — every `checkpoint_every` retained draws the
//!   full chain state (kernel caches, RNG, collected rows) is written
//!   atomically to `<base>.<tag>.<k>` via [`crate::checkpoint`]; a later
//!   run pointed at the same base restores each chain and continues
//!   **draw-for-draw identically** to an uninterrupted run. Chains
//!   without a (valid) checkpoint simply start fresh; a *corrupt*
//!   checkpoint poisons only that chain, with a typed reason.
//!
//! Checkpoints are only taken at sampling-draw boundaries: warmup is
//! cheap relative to sampling and skipping it keeps the format to one
//! well-defined cut point.

use std::path::{Path, PathBuf};

use netsim::SimRng;

use crate::chain::{Chain, ChainConfig, SamplerKind};
use crate::checkpoint::{self, CheckpointError, Checkpointable, Reader, Writer};
use crate::progress::{ChainPhase, ProgressObserver, ProgressSnapshot};

/// Exit code of the `kill_after_draws` hard-exit hook (used by the
/// resume-equivalence smoke test to distinguish the staged kill from a
/// real failure).
pub const KILL_EXIT_CODE: i32 = 86;

/// Supervision settings; the default disables every feature and makes
/// [`run_chains_supervised`] equivalent to the plain driver.
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Base path for *writing* checkpoints (`<base>.<tag>.<k>` per
    /// chain). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Base path for *reading* checkpoints on startup. Missing files are
    /// not an error (those chains start fresh); corrupt files poison the
    /// affected chain.
    pub resume: Option<PathBuf>,
    /// Write a checkpoint every this many retained draws (0 = only at
    /// explicit stop/kill/timeout points). Ignored without `checkpoint`.
    pub checkpoint_every: u64,
    /// Cooperative per-chain wall-clock budget; a chain past the deadline
    /// stops (checkpointing first when enabled) and is reported as
    /// [`ChainOutcome::TimedOut`].
    pub wall_clock_timeout: Option<std::time::Duration>,
    /// Test hook: stop every chain cleanly after this many retained
    /// draws, writing a checkpoint when enabled.
    pub stop_after_draws: Option<u64>,
    /// Test hook: hard `process::exit(KILL_EXIT_CODE)` after this many
    /// retained draws (checkpoint written first) — simulates an external
    /// kill for the resume-equivalence smoke test.
    pub kill_after_draws: Option<u64>,
}

/// How one supervised chain ended.
#[derive(Debug)]
pub enum ChainOutcome {
    /// Ran to completion.
    Completed(Chain),
    /// Stopped early by `stop_after_draws` with a checkpoint on disk.
    Interrupted {
        /// Retained draws at the stop point.
        samples_done: u64,
    },
    /// Hit the wall-clock deadline.
    TimedOut {
        /// Phase the deadline fired in (`"warmup"` / `"sampling"`).
        phase: &'static str,
    },
    /// Panicked or failed to restore; the rest of the campaign completed
    /// without it.
    Poisoned {
        /// Panic message or checkpoint error.
        reason: String,
    },
}

impl ChainOutcome {
    /// Short status label for reports.
    pub fn status(&self) -> &'static str {
        match self {
            ChainOutcome::Completed(_) => "completed",
            ChainOutcome::Interrupted { .. } => "interrupted",
            ChainOutcome::TimedOut { .. } => "timed-out",
            ChainOutcome::Poisoned { .. } => "poisoned",
        }
    }
}

/// Per-chain result of a supervised run.
#[derive(Debug)]
pub struct SupervisedChain<O> {
    /// The `run_chains` index.
    pub chain_index: usize,
    /// Terminal state (chain inside when completed).
    pub outcome: ChainOutcome,
    /// The chain's observer; `None` when the chain panicked before
    /// returning it.
    pub observer: Option<O>,
    /// Retained draws restored from a checkpoint, when resumed.
    pub resumed_from: Option<u64>,
    /// Checkpoints written by this chain.
    pub checkpoints_written: u64,
}

/// The outcome of [`run_chains_supervised`], one entry per chain index.
#[derive(Debug)]
pub struct SupervisedRun<O> {
    /// Per-chain outcomes in index order.
    pub chains: Vec<SupervisedChain<O>>,
}

impl<O> SupervisedRun<O> {
    /// Completed chains with their indices and observers, consuming the
    /// run; failures (everything not completed) are returned separately
    /// as `(index, status, reason)`.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<(usize, Chain, Option<O>)>, Vec<(usize, String)>) {
        let mut done = Vec::new();
        let mut failed = Vec::new();
        for c in self.chains {
            match c.outcome {
                ChainOutcome::Completed(chain) => done.push((c.chain_index, chain, c.observer)),
                ChainOutcome::Interrupted { samples_done } => failed.push((
                    c.chain_index,
                    format!("interrupted after {samples_done} draws"),
                )),
                ChainOutcome::TimedOut { phase } => {
                    failed.push((c.chain_index, format!("wall-clock timeout during {phase}")));
                }
                ChainOutcome::Poisoned { reason } => failed.push((c.chain_index, reason)),
            }
        }
        (done, failed)
    }

    /// Total checkpoints written across chains.
    pub fn checkpoints_written(&self) -> u64 {
        self.chains.iter().map(|c| c.checkpoints_written).sum()
    }

    /// Chains restored from a checkpoint.
    pub fn resumed_chains(&self) -> usize {
        self.chains
            .iter()
            .filter(|c| c.resumed_from.is_some())
            .count()
    }
}

/// Checkpoint file for chain `k` of kernel `tag` under `base`.
pub fn chain_file(base: &Path, tag: &str, k: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".{tag}.{k}"));
    PathBuf::from(os)
}

fn kind_tag(kind: SamplerKind) -> u8 {
    match kind {
        SamplerKind::MetropolisHastings => 0,
        SamplerKind::Hmc => 1,
    }
}

struct RunOne {
    outcome: ChainOutcome,
    resumed_from: Option<u64>,
    checkpoints_written: u64,
}

#[allow(clippy::too_many_arguments)]
fn write_checkpoint<S: Checkpointable>(
    base: &Path,
    tag: &str,
    chain_index: usize,
    config: &ChainConfig,
    samples_done: u64,
    rng: &SimRng,
    chain: &Chain,
    sampler: &S,
) -> Result<(), CheckpointError> {
    let mut w = Writer::new();
    w.u8(kind_tag(sampler.kind()));
    w.u64(chain_index as u64);
    w.usize(config.warmup);
    w.usize(config.samples);
    w.usize(config.thin);
    w.u64(samples_done);
    for s in rng.state() {
        w.u64(s);
    }
    w.usize(chain.dim());
    w.f64_slice(chain.flat());
    w.f64_slice(chain.energies());
    w.usize_slice(chain.divergent_draws());
    sampler.save_sampler(&mut w);
    checkpoint::write_frame(&chain_file(base, tag, chain_index), w.as_bytes())
}

/// Restore chain `chain_index` from `path` into `(sampler, rng, chain)`,
/// returning the number of retained draws already collected.
fn restore_checkpoint<S: Checkpointable>(
    path: &Path,
    chain_index: usize,
    config: &ChainConfig,
    sampler: &mut S,
    rng: &mut SimRng,
    chain: &mut Chain,
) -> Result<usize, CheckpointError> {
    let payload = checkpoint::read_frame(path)?;
    let mut r = Reader::new(&payload);
    let mismatch = |why: String| CheckpointError::Mismatch(why);
    if r.u8()? != kind_tag(sampler.kind()) {
        return Err(mismatch("checkpoint is for a different kernel".into()));
    }
    if r.u64()? != chain_index as u64 {
        return Err(mismatch("checkpoint is for a different chain index".into()));
    }
    let (w, s, t) = (r.usize()?, r.usize()?, r.usize()?);
    if (w, s, t) != (config.warmup, config.samples, config.thin) {
        return Err(mismatch(format!(
            "checkpoint ran {w}/{s}/{t} (warmup/samples/thin), current config is {}/{}/{}",
            config.warmup, config.samples, config.thin
        )));
    }
    let samples_done = r.u64()? as usize;
    if samples_done > config.samples {
        return Err(mismatch(format!(
            "checkpoint claims {samples_done} draws of {}",
            config.samples
        )));
    }
    let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let dim = r.usize()?;
    if dim != sampler.dim() {
        return Err(mismatch(format!(
            "checkpoint dimension {dim} vs dataset {}",
            sampler.dim()
        )));
    }
    let flat = r.f64_vec()?;
    if flat.len() != dim * samples_done {
        return Err(mismatch(format!(
            "checkpoint holds {} values for {samples_done} draws of dim {dim}",
            flat.len()
        )));
    }
    let energies = r.f64_vec()?;
    if energies.len() != samples_done {
        return Err(mismatch(format!(
            "checkpoint holds {} energies for {samples_done} draws",
            energies.len()
        )));
    }
    let divergent = r.usize_vec()?;
    if divergent.iter().any(|&s| s >= samples_done) {
        return Err(mismatch(
            "divergent draw index beyond collected draws".into(),
        ));
    }
    sampler.restore_sampler(&mut r)?;
    if r.remaining() != 0 {
        return Err(mismatch(format!("{} unread payload bytes", r.remaining())));
    }
    *rng = SimRng::from_state(state);
    for i in 0..samples_done {
        chain.push_row(&flat[i * dim..(i + 1) * dim]);
    }
    chain.set_draw_meta(energies, divergent);
    Ok(samples_done)
}

/// The supervised single-chain loop. Mirrors
/// [`crate::chain::run_chain_observed`] exactly (same step/adapt/observe
/// order, no extra RNG draws), adding only the resume prologue and the
/// deadline/checkpoint hooks.
fn run_one<S: Checkpointable, O: ProgressObserver>(
    mut sampler: S,
    config: &ChainConfig,
    sup: &SupervisorConfig,
    tag: &str,
    rng: &mut SimRng,
    chain_index: usize,
    observer: &mut O,
) -> Result<RunOne, CheckpointError> {
    let every = observer.every();
    let kind = sampler.kind();
    let deadline = sup
        .wall_clock_timeout
        .map(|d| std::time::Instant::now() + d);
    let mut checkpoints_written = 0u64;

    let mut chain = Chain::with_capacity(kind, sampler.dim(), config.samples);
    let mut start_draw = 0usize;
    let mut resumed_from = None;
    if let Some(base) = &sup.resume {
        let path = chain_file(base, tag, chain_index);
        if path.exists() {
            let done =
                restore_checkpoint(&path, chain_index, config, &mut sampler, rng, &mut chain)?;
            start_draw = done;
            resumed_from = Some(done as u64);
        }
    }

    let mut warmup_secs = 0.0;
    if resumed_from.is_none() {
        let warmup_watch = obs::Stopwatch::start();
        if every > 0 {
            observer.begin_phase(chain_index, kind, ChainPhase::Warmup);
        }
        for it in 0..config.warmup {
            if let Some(d) = deadline {
                if std::time::Instant::now() > d {
                    return Ok(RunOne {
                        outcome: ChainOutcome::TimedOut { phase: "warmup" },
                        resumed_from,
                        checkpoints_written,
                    });
                }
            }
            sampler.step(rng);
            sampler.adapt(it, config.warmup);
            if every > 0 && (it + 1) % every == 0 {
                observer.observe(&ProgressSnapshot {
                    chain_index,
                    kind,
                    phase: ChainPhase::Warmup,
                    iteration: it + 1,
                    total: config.warmup,
                    accept_rate: sampler.acceptance_rate(),
                    divergences: sampler.divergences(),
                    means: &[],
                    split_r_hat: f64::NAN,
                    min_ess: f64::NAN,
                });
            }
        }
        sampler.end_warmup();
        if every > 0 {
            observer.end_phase(chain_index, kind, ChainPhase::Warmup);
        }
        warmup_secs = warmup_watch.elapsed_secs();
    }

    let sampling_watch = obs::Stopwatch::start();
    let thin = config.thin.max(1);
    if every > 0 {
        observer.begin_phase(chain_index, kind, ChainPhase::Sampling);
    }
    let mut means: Vec<f64> = if every > 0 {
        vec![0.0; sampler.dim()]
    } else {
        Vec::new()
    };
    if every > 0 && start_draw > 0 {
        // Replay Welford over the restored rows in original order so the
        // running means match the uninterrupted run bit for bit.
        for (s, row) in chain.rows().enumerate() {
            let n = (s + 1) as f64;
            for (m, &x) in means.iter_mut().zip(row) {
                *m += (x - *m) / n;
            }
        }
    }
    // Divergence watermark, as in `run_chain_observed`. After a resume
    // the restored kernel counters make this bit-exact with the
    // uninterrupted run.
    let mut prev_div = sampler.divergences();
    for s in start_draw..config.samples {
        if let Some(d) = deadline {
            if std::time::Instant::now() > d {
                if let Some(base) = &sup.checkpoint {
                    if !chain.is_empty() {
                        write_checkpoint(
                            base,
                            tag,
                            chain_index,
                            config,
                            chain.len() as u64,
                            rng,
                            &chain,
                            &sampler,
                        )?;
                        checkpoints_written += 1;
                    }
                }
                return Ok(RunOne {
                    outcome: ChainOutcome::TimedOut { phase: "sampling" },
                    resumed_from,
                    checkpoints_written,
                });
            }
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
        if every > 0 {
            let n = (s + 1) as f64;
            for (m, &x) in means.iter_mut().zip(sampler.state()) {
                *m += (x - *m) / n;
            }
            if (s + 1) % every == 0 {
                observer.observe(&ProgressSnapshot {
                    chain_index,
                    kind,
                    phase: ChainPhase::Sampling,
                    iteration: s + 1,
                    total: config.samples,
                    accept_rate: sampler.acceptance_rate(),
                    divergences: sampler.divergences(),
                    means: &means,
                    split_r_hat: crate::diagnostics::max_r_hat(std::slice::from_ref(&chain)),
                    min_ess: crate::diagnostics::min_ess(&chain),
                });
            }
        }
        let done = (s + 1) as u64;
        let at_stop = sup.stop_after_draws == Some(done);
        let at_kill = sup.kill_after_draws == Some(done);
        let periodic = sup.checkpoint_every > 0 && done.is_multiple_of(sup.checkpoint_every);
        if periodic || at_stop || at_kill {
            if let Some(base) = &sup.checkpoint {
                write_checkpoint(base, tag, chain_index, config, done, rng, &chain, &sampler)?;
                checkpoints_written += 1;
            }
        }
        if at_kill {
            // Simulated external kill: no cleanup, no unwinding — the
            // next run must come back purely from the checkpoint files.
            std::process::exit(KILL_EXIT_CODE);
        }
        if at_stop {
            if every > 0 {
                observer.end_phase(chain_index, kind, ChainPhase::Sampling);
            }
            return Ok(RunOne {
                outcome: ChainOutcome::Interrupted { samples_done: done },
                resumed_from,
                checkpoints_written,
            });
        }
    }
    if every > 0 {
        observer.end_phase(chain_index, kind, ChainPhase::Sampling);
    }
    chain.accept_rate = sampler.acceptance_rate();
    chain.proposals = sampler.proposals();
    chain.divergences = sampler.divergences();
    chain.likelihood_evals = sampler.likelihood_evals();
    chain.grad_evals = sampler.grad_evals();
    chain.warmup_secs = warmup_secs;
    chain.sampling_secs = sampling_watch.elapsed_secs();
    Ok(RunOne {
        outcome: ChainOutcome::Completed(chain),
        resumed_from,
        checkpoints_written,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "chain panicked".to_string()
    }
}

/// [`crate::chain::run_chains_observed`] with supervision. `tag` names
/// the kernel in checkpoint files (conventionally `"mh"` / `"hmc"`).
///
/// Per-chain RNG streams are derived exactly as in the plain driver
/// (`rng.split_index("chain", k)`), so a default `sup` reproduces an
/// unsupervised run draw for draw.
pub fn run_chains_supervised<S, F, O, G>(
    make_sampler: F,
    make_observer: G,
    n_chains: usize,
    config: &ChainConfig,
    rng: &SimRng,
    sup: &SupervisorConfig,
    tag: &str,
) -> SupervisedRun<O>
where
    S: Checkpointable + Send,
    F: Fn(usize, &mut SimRng) -> S + Sync,
    O: ProgressObserver + Send,
    G: Fn(usize) -> O + Sync,
{
    let mut out: Vec<Option<SupervisedChain<O>>> = (0..n_chains).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (k, slot) in out.iter_mut().enumerate() {
            let make_sampler = &make_sampler;
            let make_observer = &make_observer;
            let mut chain_rng = rng.split_index("chain", k as u64);
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let sampler = make_sampler(k, &mut chain_rng);
                    let mut observer = make_observer(k);
                    let run = run_one(sampler, config, sup, tag, &mut chain_rng, k, &mut observer);
                    (run, observer)
                }));
                *slot = Some(match result {
                    Ok((Ok(run), observer)) => SupervisedChain {
                        chain_index: k,
                        outcome: run.outcome,
                        observer: Some(observer),
                        resumed_from: run.resumed_from,
                        checkpoints_written: run.checkpoints_written,
                    },
                    Ok((Err(e), observer)) => SupervisedChain {
                        chain_index: k,
                        outcome: ChainOutcome::Poisoned {
                            reason: e.to_string(),
                        },
                        observer: Some(observer),
                        resumed_from: None,
                        checkpoints_written: 0,
                    },
                    Err(payload) => SupervisedChain {
                        chain_index: k,
                        outcome: ChainOutcome::Poisoned {
                            reason: panic_message(payload),
                        },
                        observer: None,
                        resumed_from: None,
                        checkpoints_written: 0,
                    },
                });
            });
        }
    });
    SupervisedRun {
        chains: out
            .into_iter()
            .map(|c| c.expect("chain slot filled"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{run_chains, Sampler};
    use crate::mh::MetropolisHastings;
    use crate::model::{NodeId, PathData, PathObservation};
    use crate::prior::Prior;
    use crate::progress::NoProgress;

    fn data() -> PathData {
        let mut obs = Vec::new();
        for _ in 0..8 {
            for (ids, label) in [
                (&[1u32, 2][..], true),
                (&[2, 3][..], false),
                (&[3][..], true),
            ] {
                obs.push(PathObservation::new(
                    ids.iter().map(|&i| NodeId(i)).collect(),
                    label,
                ));
            }
        }
        PathData::from_observations(&obs, &[])
    }

    fn tmp_base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("because-supervisor-{name}-{}", std::process::id()));
        p
    }

    fn cleanup(base: &Path, tag: &str, n: usize) {
        for k in 0..n {
            let _ = std::fs::remove_file(chain_file(base, tag, k));
        }
    }

    #[test]
    fn default_supervision_matches_plain_driver_bitwise() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 60,
            samples: 80,
            thin: 1,
        };
        let rng = SimRng::new(42);
        let make =
            |_k: usize, r: &mut SimRng| MetropolisHastings::from_prior(&d, Prior::default(), r);
        let plain = run_chains(make, 3, &cfg, &rng);
        let supervised = run_chains_supervised(
            make,
            |_| NoProgress,
            3,
            &cfg,
            &rng,
            &SupervisorConfig::default(),
            "mh",
        );
        assert_eq!(supervised.checkpoints_written(), 0);
        assert_eq!(supervised.resumed_chains(), 0);
        let (done, failed) = supervised.into_parts();
        assert!(failed.is_empty(), "failures: {failed:?}");
        assert_eq!(done.len(), 3);
        for ((k, chain, _), p) in done.iter().zip(&plain) {
            assert_eq!(chain.flat(), p.flat(), "chain {k} diverged");
            assert_eq!(chain.accept_rate, p.accept_rate);
            assert_eq!(chain.proposals, p.proposals);
        }
    }

    #[test]
    fn interrupt_then_resume_is_bitwise_identical() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 50,
            samples: 70,
            thin: 1,
        };
        let rng = SimRng::new(7);
        let make =
            |_k: usize, r: &mut SimRng| MetropolisHastings::from_prior(&d, Prior::default(), r);

        let uninterrupted = run_chains(make, 2, &cfg, &rng);

        let base = tmp_base("resume");
        let stop = SupervisorConfig {
            checkpoint: Some(base.clone()),
            checkpoint_every: 10,
            stop_after_draws: Some(25),
            ..Default::default()
        };
        let first = run_chains_supervised(make, |_| NoProgress, 2, &cfg, &rng, &stop, "mh");
        for c in &first.chains {
            assert!(
                matches!(c.outcome, ChainOutcome::Interrupted { samples_done: 25 }),
                "chain {} was {:?}",
                c.chain_index,
                c.outcome.status()
            );
            // 10, 20, then the stop checkpoint at 25.
            assert_eq!(c.checkpoints_written, 3);
        }

        let resume = SupervisorConfig {
            resume: Some(base.clone()),
            ..Default::default()
        };
        let second = run_chains_supervised(make, |_| NoProgress, 2, &cfg, &rng, &resume, "mh");
        assert_eq!(second.resumed_chains(), 2);
        let (done, failed) = second.into_parts();
        assert!(failed.is_empty(), "failures: {failed:?}");
        for ((k, chain, _), u) in done.iter().zip(&uninterrupted) {
            assert_eq!(
                chain.flat(),
                u.flat(),
                "resumed chain {k} is not bitwise identical"
            );
            assert_eq!(chain.accept_rate, u.accept_rate);
            assert_eq!(chain.proposals, u.proposals);
            assert_eq!(chain.likelihood_evals, u.likelihood_evals);
            // Per-draw metadata survives the round trip bit for bit
            // (bitwise compare: MH energies are NaN, which != itself).
            let bits = |c: &Chain| c.energies().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(chain), bits(u), "resumed chain {k} energies differ");
            assert_eq!(chain.divergent_draws(), u.divergent_draws());
        }
        cleanup(&base, "mh", 2);
    }

    #[test]
    fn missing_checkpoint_files_start_fresh() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 30,
            samples: 40,
            thin: 1,
        };
        let rng = SimRng::new(3);
        let make =
            |_k: usize, r: &mut SimRng| MetropolisHastings::from_prior(&d, Prior::default(), r);
        let plain = run_chains(make, 2, &cfg, &rng);
        let resume = SupervisorConfig {
            resume: Some(tmp_base("never-written")),
            ..Default::default()
        };
        let run = run_chains_supervised(make, |_| NoProgress, 2, &cfg, &rng, &resume, "mh");
        assert_eq!(run.resumed_chains(), 0);
        let (done, failed) = run.into_parts();
        assert!(failed.is_empty());
        for ((_, chain, _), p) in done.iter().zip(&plain) {
            assert_eq!(chain.flat(), p.flat());
        }
    }

    #[test]
    fn corrupt_checkpoint_poisons_only_that_chain() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 30,
            samples: 40,
            thin: 1,
        };
        let rng = SimRng::new(5);
        let make =
            |_k: usize, r: &mut SimRng| MetropolisHastings::from_prior(&d, Prior::default(), r);

        let base = tmp_base("corrupt");
        let stop = SupervisorConfig {
            checkpoint: Some(base.clone()),
            stop_after_draws: Some(15),
            ..Default::default()
        };
        run_chains_supervised(make, |_| NoProgress, 2, &cfg, &rng, &stop, "mh");

        // Truncate chain 1's file mid-payload.
        let victim = chain_file(&base, "mh", 1);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let resume = SupervisorConfig {
            resume: Some(base.clone()),
            ..Default::default()
        };
        let run = run_chains_supervised(make, |_| NoProgress, 2, &cfg, &rng, &resume, "mh");
        assert!(matches!(run.chains[0].outcome, ChainOutcome::Completed(_)));
        match &run.chains[1].outcome {
            ChainOutcome::Poisoned { reason } => {
                assert!(
                    reason.contains("truncated") || reason.contains("checksum"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected poisoned chain, got {}", other.status()),
        }
        cleanup(&base, "mh", 2);
    }

    /// A kernel that panics mid-sampling on one chain: the supervisor
    /// must report it and let the others finish.
    struct FaultyKernel<'a> {
        inner: MetropolisHastings<'a>,
        steps: u64,
        panic_at: Option<u64>,
    }

    impl Sampler for FaultyKernel<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn state(&self) -> &[f64] {
            self.inner.state()
        }
        fn step(&mut self, rng: &mut SimRng) {
            self.steps += 1;
            if Some(self.steps) == self.panic_at {
                panic!("injected kernel fault at step {}", self.steps);
            }
            self.inner.step(rng);
        }
        fn adapt(&mut self, iter: usize, total: usize) {
            self.inner.adapt(iter, total);
        }
        fn end_warmup(&mut self) {
            self.inner.end_warmup();
        }
        fn acceptance_rate(&self) -> f64 {
            self.inner.acceptance_rate()
        }
        fn proposals(&self) -> u64 {
            self.inner.proposals()
        }
        fn kind(&self) -> SamplerKind {
            self.inner.kind()
        }
    }

    impl Checkpointable for FaultyKernel<'_> {
        fn save_sampler(&self, w: &mut Writer) {
            self.inner.save_sampler(w);
            w.u64(self.steps);
        }
        fn restore_sampler(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
            self.inner.restore_sampler(r)?;
            self.steps = r.u64()?;
            Ok(())
        }
    }

    #[test]
    fn panicking_chain_is_isolated_and_named() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 20,
            samples: 30,
            thin: 1,
        };
        let rng = SimRng::new(8);
        let make = |k: usize, r: &mut SimRng| FaultyKernel {
            inner: MetropolisHastings::from_prior(&d, Prior::default(), r),
            steps: 0,
            panic_at: (k == 1).then_some(25),
        };
        let run = run_chains_supervised(
            make,
            |_| NoProgress,
            3,
            &cfg,
            &rng,
            &SupervisorConfig::default(),
            "mh",
        );
        let (done, failed) = run.into_parts();
        assert_eq!(done.len(), 2, "healthy chains must complete");
        for (_, chain, _) in &done {
            assert_eq!(chain.len(), 30);
        }
        assert_eq!(failed.len(), 1);
        let (idx, reason) = &failed[0];
        assert_eq!(*idx, 1);
        assert!(
            reason.contains("injected kernel fault"),
            "poison reason must carry the panic message, got: {reason}"
        );
    }

    #[test]
    fn watchdog_times_out_a_stuck_chain() {
        let d = data();
        // A huge warmup that cannot finish inside the deadline.
        let cfg = ChainConfig {
            warmup: 50_000_000,
            samples: 10,
            thin: 1,
        };
        let rng = SimRng::new(9);
        let make =
            |_k: usize, r: &mut SimRng| MetropolisHastings::from_prior(&d, Prior::default(), r);
        let sup = SupervisorConfig {
            wall_clock_timeout: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let run = run_chains_supervised(make, |_| NoProgress, 1, &cfg, &rng, &sup, "mh");
        assert!(
            matches!(
                run.chains[0].outcome,
                ChainOutcome::TimedOut { phase: "warmup" }
            ),
            "got {}",
            run.chains[0].outcome.status()
        );
    }

    #[test]
    fn chain_file_naming() {
        let base = PathBuf::from("/tmp/run/ckpt");
        assert_eq!(
            chain_file(&base, "hmc", 3),
            PathBuf::from("/tmp/run/ckpt.hmc.3")
        );
    }
}
