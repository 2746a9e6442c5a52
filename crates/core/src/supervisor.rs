//! Multi-chain execution: one thread per chain, panic isolation, a
//! wall-clock watchdog, and checkpoint/resume.
//!
//! [`run_chains_supervised`] runs every chain through the one chain loop
//! of [`crate::chain`], with the hook in this module at its supervision
//! points. The hook never touches the RNG between draws, so with a
//! default [`SupervisorConfig`] the draws are bit-identical to
//! [`crate::chain::run_chain`]. Supervision adds:
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
use std::time::Instant;

use netsim::SimRng;

use crate::chain::{drive_chain, Chain, ChainConfig, ChainHook, SamplerKind};
use crate::checkpoint::{self, CheckpointError, Checkpointable, Reader, Writer};
use crate::progress::ProgressObserver;

/// Exit code of the `kill_after_draws` hard-exit hook (used by the
/// resume-equivalence smoke test to distinguish the staged kill from a
/// real failure).
pub const KILL_EXIT_CODE: i32 = 86;

/// Supervision settings; the default disables every feature, so every
/// chain runs to completion exactly as [`crate::chain::run_chain`] would.
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
    /// Panicked, or failed to restore or write a checkpoint; the rest of
    /// the campaign completed without it.
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
    /// The chain's index `k`.
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

/// The supervised [`ChainHook`] of one chain: it owns the deadline, the
/// checkpoint codec and the counters, and outlives a panicking chain so
/// a poisoned chain still reports what it wrote.
struct Supervision<'a> {
    sup: &'a SupervisorConfig,
    tag: &'a str,
    chain_index: usize,
    config: &'a ChainConfig,
    deadline: Option<Instant>,
    resumed_from: Option<u64>,
    checkpoints_written: u64,
}

impl Supervision<'_> {
    /// Write the chain's full state after `done` retained draws to
    /// `<base>.<tag>.<k>`, when checkpointing is on.
    fn checkpoint<S: Checkpointable>(
        &mut self,
        done: u64,
        sampler: &S,
        rng: &SimRng,
        chain: &Chain,
    ) -> Result<(), CheckpointError> {
        let Some(base) = &self.sup.checkpoint else {
            return Ok(());
        };
        let mut w = Writer::new();
        w.u8(kind_tag(sampler.kind()));
        w.u64(self.chain_index as u64);
        w.usize(self.config.warmup);
        w.usize(self.config.samples);
        w.usize(self.config.thin);
        w.u64(done);
        for s in rng.state() {
            w.u64(s);
        }
        w.usize(chain.dim());
        w.f64_slice(chain.flat());
        w.f64_slice(chain.energies());
        w.usize_slice(chain.divergent_draws());
        sampler.save_sampler(&mut w);
        checkpoint::write_frame(&chain_file(base, self.tag, self.chain_index), w.as_bytes())?;
        self.checkpoints_written += 1;
        Ok(())
    }
}

impl<S: Checkpointable> ChainHook<S> for Supervision<'_> {
    fn start(
        &mut self,
        sampler: &mut S,
        rng: &mut SimRng,
        chain: &mut Chain,
    ) -> Result<Option<usize>, CheckpointError> {
        self.deadline = self.sup.wall_clock_timeout.map(|d| Instant::now() + d);
        let Some(base) = &self.sup.resume else {
            return Ok(None);
        };
        let path = chain_file(base, self.tag, self.chain_index);
        if !path.exists() {
            return Ok(None);
        }
        let done = restore_checkpoint(&path, self.chain_index, self.config, sampler, rng, chain)?;
        self.resumed_from = Some(done as u64);
        Ok(Some(done))
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    fn timed_out(
        &mut self,
        sampler: &S,
        rng: &SimRng,
        chain: &Chain,
    ) -> Result<(), CheckpointError> {
        if chain.is_empty() {
            return Ok(());
        }
        self.checkpoint(chain.len() as u64, sampler, rng, chain)
    }

    fn after_draw(
        &mut self,
        done: u64,
        sampler: &S,
        rng: &SimRng,
        chain: &Chain,
    ) -> Result<bool, CheckpointError> {
        let sup = self.sup;
        let at_stop = sup.stop_after_draws == Some(done);
        let at_kill = sup.kill_after_draws == Some(done);
        let periodic = sup.checkpoint_every > 0 && done.is_multiple_of(sup.checkpoint_every);
        if periodic || at_stop || at_kill {
            self.checkpoint(done, sampler, rng, chain)?;
        }
        if at_kill {
            // Simulated external kill: no cleanup, no unwinding — the
            // next run must come back purely from the checkpoint files.
            std::process::exit(KILL_EXIT_CODE);
        }
        Ok(at_stop)
    }
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

/// Run `n_chains` independent chains in parallel threads under
/// supervision. `make_sampler` builds a fresh kernel per chain (typically
/// with an overdispersed initial state) and `make_observer(k)` its
/// [`ProgressObserver`], which runs on the chain's thread and is returned
/// with the chain. `tag` names the kernel in checkpoint files
/// (conventionally `"mh"` / `"hmc"`).
///
/// Chain `k` draws from the stream `rng.split_index("chain", k)`, so with
/// a default `sup` chain `k` equals [`crate::chain::run_chain`] on the
/// kernel built from that stream, draw for draw.
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
                let mut hook = Supervision {
                    sup,
                    tag,
                    chain_index: k,
                    config,
                    deadline: None,
                    resumed_from: None,
                    checkpoints_written: 0,
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let sampler = make_sampler(k, &mut chain_rng);
                    let mut observer = make_observer(k);
                    let outcome =
                        drive_chain(sampler, config, &mut chain_rng, k, &mut observer, &mut hook);
                    (outcome, observer)
                }));
                let (outcome, observer) = match result {
                    Ok((Ok(outcome), observer)) => (outcome, Some(observer)),
                    Ok((Err(e), observer)) => (
                        ChainOutcome::Poisoned {
                            reason: e.to_string(),
                        },
                        Some(observer),
                    ),
                    Err(payload) => (
                        ChainOutcome::Poisoned {
                            reason: panic_message(payload),
                        },
                        None,
                    ),
                };
                *slot = Some(SupervisedChain {
                    chain_index: k,
                    outcome,
                    observer,
                    resumed_from: hook.resumed_from,
                    checkpoints_written: hook.checkpoints_written,
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
    use crate::chain::tests::Collector;
    use crate::chain::{run_chain, Sampler};
    use crate::hmc::Hmc;
    use crate::mh::MetropolisHastings;
    use crate::model::{NodeId, PathData, PathObservation};
    use crate::prior::Prior;
    use crate::progress::{ChainPhase, NoProgress};

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

    fn mh<'a>(d: &'a PathData) -> impl Fn(usize, &mut SimRng) -> MetropolisHastings<'a> + Sync {
        move |_k, r| MetropolisHastings::from_prior(d, Prior::default(), r)
    }

    fn hmc<'a>(d: &'a PathData) -> impl Fn(usize, &mut SimRng) -> Hmc<'a> + Sync {
        move |_k, r| Hmc::from_prior(d, Prior::default(), r)
    }

    /// Chain `k` of a multi-chain run on `rng`, run alone by `run_chain`.
    fn solo(d: &PathData, cfg: &ChainConfig, rng: &SimRng, k: usize) -> Chain {
        let mut r = rng.split_index("chain", k as u64);
        run_chain(mh(d)(k, &mut r), cfg, &mut r)
    }

    /// The observer contract on every exit path: each phase that began
    /// ended, in order, and no snapshot or phase end credits more
    /// sampling draws than the `taken` the chain actually retained.
    fn assert_closed_and_credited(c: &Collector, taken: usize) {
        assert_eq!(c.phases.len() % 2, 0, "unbalanced phases: {:?}", c.phases);
        for pair in c.phases.chunks(2) {
            assert!(
                pair[0].0 == pair[1].0 && pair[0].1.is_none() && pair[1].1.is_some(),
                "phase not closed: {:?}",
                c.phases
            );
        }
        let sampling = c
            .snaps
            .iter()
            .filter(|s| s.phase == "sampling")
            .map(|s| s.iteration)
            .chain(
                c.phases
                    .iter()
                    .filter(|p| p.0 == ChainPhase::Sampling)
                    .filter_map(|p| p.1),
            );
        for it in sampling {
            assert!(it <= taken, "credited {it} of {taken} retained draws");
        }
    }

    #[test]
    fn default_supervision_matches_run_chain_bitwise() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 60,
            samples: 80,
            thin: 1,
        };
        let rng = SimRng::new(42);
        let supervised = run_chains_supervised(
            mh(&d),
            |_| Collector::every(20),
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
        for (k, chain, observer) in &done {
            // Observation does not perturb the draws either.
            let p = solo(&d, &cfg, &rng, *k);
            assert_eq!(chain.flat(), p.flat(), "chain {k} diverged");
            assert_eq!(chain.accept_rate, p.accept_rate);
            assert_eq!(chain.proposals, p.proposals);
            // Each chain returns its own observer: 60/20 warmup + 80/20
            // sampling snapshots.
            let observer = observer
                .as_ref()
                .expect("completed chain keeps its observer");
            assert_eq!(observer.snaps.len(), 3 + 4);
            assert_closed_and_credited(observer, 80);
        }
    }

    #[test]
    fn supervised_chains_are_reproducible_and_distinct() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 50,
            samples: 100,
            thin: 1,
        };
        let rng = SimRng::new(9);
        let sup = SupervisorConfig::default();
        let chains = || {
            let run = run_chains_supervised(mh(&d), |_| NoProgress, 3, &cfg, &rng, &sup, "mh");
            let (done, _) = run.into_parts();
            done.into_iter().map(|(_, c, _)| c).collect::<Vec<_>>()
        };
        let (a, b) = (chains(), chains());
        assert_eq!(a.len(), 3);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.flat(), cb.flat(), "same seed → same chains");
        }
        assert_ne!(a[0].flat(), a[1].flat(), "different chains differ");
    }

    #[test]
    fn interrupt_then_resume_is_bitwise_identical() {
        let d = data();
        assert_interrupt_then_resume_is_bitwise_identical(mh(&d), "mh");
        assert_interrupt_then_resume_is_bitwise_identical(hmc(&d), "hmc");
    }

    /// Stop two chains of `make` at draw 25, resume them, and compare
    /// each against the same chain run uninterrupted: draws, counters,
    /// per-draw metadata and the snapshot records after the resume.
    fn assert_interrupt_then_resume_is_bitwise_identical<S, F>(make: F, tag: &str)
    where
        S: Checkpointable + Send,
        F: Fn(usize, &mut SimRng) -> S + Sync,
    {
        let cfg = ChainConfig {
            warmup: 50,
            samples: 70,
            thin: 1,
        };
        let rng = SimRng::new(7);

        let base = tmp_base(&format!("resume-{tag}"));
        let stop = SupervisorConfig {
            checkpoint: Some(base.clone()),
            checkpoint_every: 10,
            stop_after_draws: Some(25),
            ..Default::default()
        };
        let first =
            run_chains_supervised(&make, |_| Collector::every(10), 2, &cfg, &rng, &stop, tag);
        for c in &first.chains {
            assert!(
                matches!(c.outcome, ChainOutcome::Interrupted { samples_done: 25 }),
                "{tag} chain {} was {:?}",
                c.chain_index,
                c.outcome.status()
            );
            // 10, 20, then the stop checkpoint at 25.
            assert_eq!(c.checkpoints_written, 3);
            let observer = c.observer.as_ref().unwrap();
            assert_closed_and_credited(observer, 25);
            assert_eq!(
                observer.phases.last(),
                Some(&(ChainPhase::Sampling, Some(25)))
            );
        }

        let resume = SupervisorConfig {
            resume: Some(base.clone()),
            ..Default::default()
        };
        let second =
            run_chains_supervised(&make, |_| Collector::every(10), 2, &cfg, &rng, &resume, tag);
        assert_eq!(second.resumed_chains(), 2);
        let (done, failed) = second.into_parts();
        assert!(failed.is_empty(), "failures: {failed:?}");
        let plain = SupervisorConfig::default();
        let (uninterrupted, _) =
            run_chains_supervised(&make, |_| Collector::every(10), 2, &cfg, &rng, &plain, tag)
                .into_parts();
        for ((k, chain, observer), (_, u, u_observer)) in done.iter().zip(&uninterrupted) {
            assert_eq!(
                chain.flat(),
                u.flat(),
                "resumed {tag} chain {k} is not bitwise identical"
            );
            assert_eq!(chain.accept_rate, u.accept_rate);
            assert_eq!(chain.proposals, u.proposals);
            assert_eq!(chain.divergences, u.divergences);
            assert_eq!(chain.likelihood_evals, u.likelihood_evals);
            assert_eq!(chain.grad_evals, u.grad_evals);
            // Per-draw metadata survives the round trip bit for bit
            // (bitwise compare: MH energies are NaN, which != itself).
            let bits = |c: &Chain| c.energies().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(chain),
                bits(u),
                "resumed {tag} chain {k} energies differ"
            );
            assert_eq!(chain.divergent_draws(), u.divergent_draws());
            // A resumed chain skips warmup and samples from draw 25 on,
            // reporting what the uninterrupted chain reports from there.
            let observer = observer.as_ref().unwrap();
            assert_eq!(
                observer.phases,
                vec![
                    (ChainPhase::Sampling, None),
                    (ChainPhase::Sampling, Some(70))
                ]
            );
            let after_resume: Vec<_> = u_observer
                .as_ref()
                .unwrap()
                .snaps
                .iter()
                .filter(|s| s.phase == "sampling" && s.iteration > 25)
                .copied()
                .collect();
            assert_eq!(after_resume.len(), 5);
            assert_eq!(
                observer.snaps, after_resume,
                "resumed {tag} chain {k} snapshots differ"
            );
            assert_eq!(chain.warmup_secs, 0.0);
        }
        cleanup(&base, tag, 2);
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
        let resume = SupervisorConfig {
            resume: Some(tmp_base("never-written")),
            ..Default::default()
        };
        let run = run_chains_supervised(mh(&d), |_| NoProgress, 2, &cfg, &rng, &resume, "mh");
        assert_eq!(run.resumed_chains(), 0);
        let (done, failed) = run.into_parts();
        assert!(failed.is_empty());
        for (k, chain, _) in &done {
            assert_eq!(chain.flat(), solo(&d, &cfg, &rng, *k).flat());
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

        let base = tmp_base("corrupt");
        let stop = SupervisorConfig {
            checkpoint: Some(base.clone()),
            stop_after_draws: Some(15),
            ..Default::default()
        };
        run_chains_supervised(mh(&d), |_| NoProgress, 2, &cfg, &rng, &stop, "mh");

        // Truncate chain 1's file mid-payload.
        let victim = chain_file(&base, "mh", 1);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let resume = SupervisorConfig {
            resume: Some(base.clone()),
            ..Default::default()
        };
        let run = run_chains_supervised(mh(&d), |_| NoProgress, 2, &cfg, &rng, &resume, "mh");
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

    /// MH with a callback before every step, given the chain index and
    /// the 1-based step number: it can panic, stall, or sabotage the
    /// checkpoint directory.
    struct FaultyKernel<'a> {
        inner: MetropolisHastings<'a>,
        chain_index: usize,
        steps: u64,
        on_step: &'a (dyn Fn(usize, u64) + Sync),
    }

    fn faulty<'a>(
        d: &'a PathData,
        on_step: &'a (dyn Fn(usize, u64) + Sync),
    ) -> impl Fn(usize, &mut SimRng) -> FaultyKernel<'a> + Sync {
        move |k, r| FaultyKernel {
            inner: MetropolisHastings::from_prior(d, Prior::default(), r),
            chain_index: k,
            steps: 0,
            on_step,
        }
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
            (self.on_step)(self.chain_index, self.steps);
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
        let fault = |k: usize, step: u64| {
            if k == 1 && step == 25 {
                panic!("injected kernel fault at step {step}");
            }
        };
        let run = run_chains_supervised(
            faulty(&d, &fault),
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
    fn failed_checkpoint_write_keeps_earlier_counts() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 20,
            samples: 40,
            thin: 1,
        };
        let dir = tmp_base("vanishing");
        std::fs::create_dir_all(&dir).unwrap();
        // Warmup is steps 1..=20, draw n is step 20 + n: the directory
        // vanishes right after the first periodic checkpoint (draw 10),
        // so the write at draw 20 fails.
        let vanish = |_k: usize, step: u64| {
            if step == 31 {
                std::fs::remove_dir_all(&dir).unwrap();
            }
        };
        let sup = SupervisorConfig {
            checkpoint: Some(dir.join("ckpt")),
            checkpoint_every: 10,
            ..Default::default()
        };
        let run = run_chains_supervised(
            faulty(&d, &vanish),
            |_| Collector::every(5),
            1,
            &cfg,
            &SimRng::new(4),
            &sup,
            "mh",
        );
        let c = &run.chains[0];
        match &c.outcome {
            ChainOutcome::Poisoned { reason } => {
                assert!(reason.contains("checkpoint io error"), "reason: {reason}");
            }
            other => panic!("expected poisoned chain, got {}", other.status()),
        }
        assert_eq!(c.checkpoints_written, 1);
        assert_eq!(run.checkpoints_written(), 1);
        assert_closed_and_credited(c.observer.as_ref().unwrap(), 20);
        assert!(!dir.exists());
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
        let sup = SupervisorConfig {
            wall_clock_timeout: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let run =
            run_chains_supervised(mh(&d), |_| Collector::every(100), 1, &cfg, &rng, &sup, "mh");
        let c = &run.chains[0];
        assert!(
            matches!(c.outcome, ChainOutcome::TimedOut { phase: "warmup" }),
            "got {}",
            c.outcome.status()
        );
        // The warmup phase is closed short of its total; sampling never
        // began, so no draw is credited.
        let observer = c.observer.as_ref().unwrap();
        assert_closed_and_credited(observer, 0);
        match observer.phases.as_slice() {
            [(ChainPhase::Warmup, None), (ChainPhase::Warmup, Some(it))] => {
                assert!(*it < cfg.warmup);
            }
            other => panic!("phases {other:?}"),
        }
    }

    #[test]
    fn watchdog_closes_the_sampling_phase_at_the_draws_taken() {
        let d = data();
        let cfg = ChainConfig {
            warmup: 0,
            samples: 1_000_000,
            thin: 1,
        };
        // Every step stalls, so the deadline fires during sampling; with
        // no warmup and `thin` 1, steps taken are retained draws.
        let steps = std::sync::atomic::AtomicUsize::new(0);
        let stall = |_k: usize, _step: u64| {
            steps.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let sup = SupervisorConfig {
            wall_clock_timeout: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let run = run_chains_supervised(
            faulty(&d, &stall),
            |_| Collector::every(4),
            1,
            &cfg,
            &SimRng::new(6),
            &sup,
            "mh",
        );
        let c = &run.chains[0];
        assert!(
            matches!(c.outcome, ChainOutcome::TimedOut { phase: "sampling" }),
            "got {}",
            c.outcome.status()
        );
        let taken = steps.load(std::sync::atomic::Ordering::Relaxed);
        let observer = c.observer.as_ref().unwrap();
        assert_closed_and_credited(observer, taken);
        assert_eq!(
            observer.phases.last(),
            Some(&(ChainPhase::Sampling, Some(taken)))
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
