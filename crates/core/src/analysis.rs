//! The end-to-end BeCAUSe pipeline (§5 of the paper).
//!
//! [`Analysis::run`] takes the path dataset and produces, per AS: the MH
//! and HMC marginal summaries, the Table-1 category (highest flag across
//! both samplers and both summary metrics), and the inconsistent-damper
//! flag from the Eq.-8 pass. This is the object the experiment crates and
//! examples consume.

use serde::{Deserialize, Serialize};

use netsim::SimRng;

use crate::category::Category;
use crate::chain::{Chain, ChainConfig};
use crate::checkpoint::Checkpointable;
use crate::diagnostics::{self, nan_max, nan_min, CoordDiagnostics};
use crate::hmc::Hmc;
use crate::mh::MetropolisHastings;
use crate::model::{NodeId, PathData};
use crate::pinpoint::{apply_pinpoint, pinpoint_inconsistent};
use crate::prior::Prior;
use crate::progress::{LiveProgress, TRACE_CAPACITY};
use crate::summary::Marginal;
use crate::supervisor::{run_chains_supervised, SupervisorConfig};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Prior over every `p_i`.
    pub prior: Prior,
    /// Per-chain warmup/samples/thinning.
    pub chain: ChainConfig,
    /// Independent chains per kernel.
    pub n_chains: usize,
    /// HPDI mass level (paper: 0.95).
    pub hpdi_level: f64,
    /// Master seed.
    pub seed: u64,
    /// Live-progress cadence in iterations: every `progress_every`
    /// iterations each chain prints a stderr line (accept rate, and the
    /// chain's rank-R̂ and bulk ESS while sampling). `0` (default) turns
    /// the line off.
    pub progress_every: usize,
    /// Record chain phases and per-snapshot convergence counters into a
    /// trace buffer, surfaced as [`Analysis::trace`].
    pub trace: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            prior: Prior::default(),
            chain: ChainConfig::default(),
            n_chains: 2,
            hpdi_level: 0.95,
            seed: 0,
            progress_every: 0,
            trace: false,
        }
    }
}

impl AnalysisConfig {
    /// A fast configuration for unit tests and examples.
    pub fn fast(seed: u64) -> Self {
        AnalysisConfig {
            chain: ChainConfig {
                warmup: 200,
                samples: 400,
                thin: 1,
            },
            n_chains: 2,
            seed,
            ..Default::default()
        }
    }
}

/// Per-AS inference output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsReport {
    /// The AS.
    pub id: NodeId,
    /// MH marginal summary (`None` if every MH chain failed).
    pub mh: Option<Marginal>,
    /// HMC marginal summary (`None` if every HMC chain failed).
    pub hmc: Option<Marginal>,
    /// Final Table-1 category (after the pinpoint pass).
    pub category: Category,
    /// True if the category was raised by the inconsistent-damper pass.
    pub flagged_inconsistent: bool,
    /// Eq.-8 posterior probability when flagged.
    pub pinpoint_prob: Option<f64>,
}

impl AsReport {
    /// The mean over the samplers with surviving chains (average of
    /// available means).
    pub fn mean(&self) -> f64 {
        match (self.mh, self.hmc) {
            (Some(a), Some(b)) => 0.5 * (a.mean + b.mean),
            (Some(a), None) => a.mean,
            (None, Some(b)) => b.mean,
            (None, None) => f64::NAN,
        }
    }

    /// Certainty `1 − |HPDI|`, worst (widest interval) across samplers —
    /// conservative, matching the paper's "use the highest flag" spirit.
    pub fn certainty(&self) -> f64 {
        [self.mh, self.hmc]
            .iter()
            .flatten()
            .map(Marginal::certainty)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Does the final category declare the property?
    pub fn is_property(&self) -> bool {
        self.category.is_property()
    }
}

/// A chain that did not complete under supervision (panicked, timed out,
/// or failed to restore its checkpoint).
#[derive(Clone, Debug)]
pub struct ChainFailure {
    /// Kernel the chain belonged to (`"MH"` / `"HMC"`).
    pub kernel: &'static str,
    /// The index of the failed chain within its kernel's run.
    pub chain_index: usize,
    /// Panic message, timeout phase, or checkpoint error.
    pub reason: String,
}

/// Convergence diagnostics of one kernel's chains.
#[derive(Clone, Debug)]
pub struct KernelDiagnostics {
    /// Worst rank-normalized split-R̂ across coordinates (NaN with fewer
    /// than two chains).
    pub max_rank_r_hat: f64,
    /// Smallest bulk ESS across coordinates (NaN without draws).
    pub min_ess_bulk: f64,
    /// Smallest tail ESS across coordinates (NaN without draws).
    pub min_ess_tail: f64,
    /// The rank-normalized diagnostics of each coordinate, in dense
    /// index order (empty when no chain survived).
    pub coords: Vec<CoordDiagnostics>,
}

impl KernelDiagnostics {
    /// Diagnose one kernel's chains (all NaN when none survived): one
    /// [`diagnostics::coordinate`] pass per coordinate, folded into the
    /// headline fields.
    pub(crate) fn of(chains: &[Chain]) -> Self {
        let dim = chains.first().map_or(0, Chain::dim);
        let coords: Vec<CoordDiagnostics> = (0..dim)
            .map(|i| diagnostics::coordinate(chains, i))
            .collect();
        let fold = |field: fn(&CoordDiagnostics) -> f64, pick: fn(f64, f64) -> f64| {
            coords.iter().map(field).fold(f64::NAN, pick)
        };
        KernelDiagnostics {
            // Multi-chain R̂ statistics need at least two chains to compare.
            max_rank_r_hat: if chains.len() > 1 {
                fold(|c| c.rank_r_hat, nan_max)
            } else {
                f64::NAN
            },
            min_ess_bulk: fold(|c| c.ess_bulk, nan_min),
            min_ess_tail: fold(|c| c.ess_tail, nan_min),
            coords,
        }
    }
}

/// The complete analysis output.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-AS reports, in dense index order.
    pub reports: Vec<AsReport>,
    /// Completed MH chains (empty if every MH chain failed).
    pub mh_chains: Vec<Chain>,
    /// Completed HMC chains (empty if every HMC chain failed).
    pub hmc_chains: Vec<Chain>,
    /// Paths labeled as showing the property that no flagged AS explains.
    pub unexplained_paths: usize,
    /// Worst rank-normalized split-R̂ (max of bulk and folded statistics,
    /// Vehtari et al. 2021) across coordinates and kernels (NaN if
    /// single chain).
    pub max_rank_r_hat: f64,
    /// Smallest bulk ESS (rank-normalized) across coordinates and
    /// kernels.
    pub min_ess_bulk: f64,
    /// Smallest tail ESS (5 %/95 % indicator) across coordinates and
    /// kernels.
    pub min_ess_tail: f64,
    /// The MH chains' own diagnostics (all NaN if every MH chain failed);
    /// the pooled fields above are the NaN-aware worst of the two kernels.
    pub mh_diagnostics: KernelDiagnostics,
    /// The HMC chains' own diagnostics (all NaN if every HMC chain
    /// failed).
    pub hmc_diagnostics: KernelDiagnostics,
    /// E-BFMI of each completed HMC chain over its recorded trajectory
    /// energies.
    pub e_bfmi: Vec<f64>,
    /// Wall-clock spent running MH chains.
    pub mh_secs: f64,
    /// Wall-clock spent running HMC chains.
    pub hmc_secs: f64,
    /// Merged per-chain progress trace (lanes: MH chains, then HMC
    /// chains), when [`AnalysisConfig::trace`] was set.
    pub trace: Option<obs::TraceBuffer>,
    /// Chains that did not complete (poisoned/timed out); the pooled
    /// summaries above are built from the surviving chains only.
    pub failures: Vec<ChainFailure>,
    /// Chains restored from a checkpoint in this run.
    pub resumed_chains: usize,
    /// Checkpoints written during this run.
    pub checkpoints_written: u64,
}

/// Runs one kernel's supervised chains at a time and totals the
/// supervision results across kernels.
struct KernelRuns<'a> {
    config: &'a AnalysisConfig,
    rng: &'a SimRng,
    sup: &'a SupervisorConfig,
    failures: Vec<ChainFailure>,
    resumed_chains: usize,
    checkpoints_written: u64,
}

impl KernelRuns<'_> {
    /// Run one kernel's chains on the RNG stream and checkpoint tag
    /// `tag`, recording failures under `kernel`. Returns the completed
    /// chains, their observers and the kernel's wall-clock.
    fn run<S, F, G>(
        &mut self,
        kernel: &'static str,
        tag: &str,
        make_sampler: F,
        make_observer: G,
    ) -> (Vec<Chain>, Vec<LiveProgress>, f64)
    where
        S: Checkpointable + Send,
        F: Fn(usize, &mut SimRng) -> S + Sync,
        G: Fn(usize) -> LiveProgress + Sync,
    {
        let watch = obs::Stopwatch::start();
        let run = run_chains_supervised(
            make_sampler,
            make_observer,
            self.config.n_chains,
            &self.config.chain,
            &self.rng.split(tag),
            self.sup,
            tag,
        );
        self.resumed_chains += run.resumed_chains();
        self.checkpoints_written += run.checkpoints_written();
        let (done, failed) = run.into_parts();
        self.failures.extend(
            failed
                .into_iter()
                .map(|(chain_index, reason)| ChainFailure {
                    kernel,
                    chain_index,
                    reason,
                }),
        );
        let (chains, observers) = done
            .into_iter()
            .map(|(_, chain, obs)| (chain, obs.expect("completed chain keeps its observer")))
            .unzip();
        (chains, observers, watch.elapsed_secs())
    }
}

impl Analysis {
    /// Run the full pipeline.
    ///
    /// [`Self::run_supervised`] with a default (fully disabled)
    /// [`SupervisorConfig`].
    pub fn run(data: &PathData, config: &AnalysisConfig) -> Analysis {
        Self::run_supervised(data, config, &SupervisorConfig::default())
    }

    /// Run the full pipeline under chain supervision: per-chain panic
    /// isolation, an optional wall-clock watchdog, and checkpoint/resume
    /// (see [`crate::supervisor`]). MH checkpoints use tag `"mh"`, HMC
    /// `"hmc"`, so both kernels share one checkpoint base path.
    ///
    /// Chains that fail are recorded in [`Analysis::failures`] and
    /// excluded from pooling; the campaign completes with whatever
    /// chains survive.
    pub fn run_supervised(
        data: &PathData,
        config: &AnalysisConfig,
        sup: &SupervisorConfig,
    ) -> Analysis {
        let rng = SimRng::new(config.seed);

        // One live observer per chain. The chains' trace lanes share one
        // wall epoch; lane bases keep MH and HMC chains on distinct lanes.
        let epoch = std::time::Instant::now();
        let make_observer = |lane_base: u64| {
            move |k: usize| {
                let lane = obs::Lane(lane_base + k as u64);
                LiveProgress::new(config.progress_every, config.trace.then_some((lane, epoch)))
            }
        };

        let mut runs = KernelRuns {
            config,
            rng: &rng,
            sup,
            failures: Vec::new(),
            resumed_chains: 0,
            checkpoints_written: 0,
        };
        let (mh_chains, mh_observers, mh_secs) = runs.run(
            "MH",
            "mh",
            |_k, r: &mut SimRng| MetropolisHastings::from_prior(data, config.prior, r),
            make_observer(0),
        );
        let (hmc_chains, hmc_observers, hmc_secs) = runs.run(
            "HMC",
            "hmc",
            |_k, r: &mut SimRng| Hmc::from_prior(data, config.prior, r),
            make_observer(config.n_chains as u64),
        );
        let trace = config.trace.then(|| {
            let chains = mh_observers.len() + hmc_observers.len();
            let mut merged = obs::TraceBuffer::with_epoch(TRACE_CAPACITY * chains.max(1), epoch);
            for lane in mh_observers.into_iter().chain(hmc_observers) {
                if let Some(buf) = lane.into_trace() {
                    merged.merge(buf);
                }
            }
            merged
        });

        let mh_pooled = (!mh_chains.is_empty()).then(|| Chain::pooled(&mh_chains));
        let hmc_pooled = (!hmc_chains.is_empty()).then(|| Chain::pooled(&hmc_chains));

        // Marginal summaries and Table-1 categories.
        let n = data.num_nodes();
        let mut reports = Vec::with_capacity(n);
        let mut categories = Vec::with_capacity(n);
        let mut col: Vec<f64> = Vec::new();
        for i in 0..n {
            let mh = mh_pooled.as_ref().map(|c| {
                c.copy_column(i, &mut col);
                Marginal::from_samples(&col, config.hpdi_level)
            });
            let hmc = hmc_pooled.as_ref().map(|c| {
                c.copy_column(i, &mut col);
                Marginal::from_samples(&col, config.hpdi_level)
            });
            let votes = [mh, hmc]
                .iter()
                .flatten()
                .map(Category::from_marginal)
                .collect::<Vec<_>>();
            let category = Category::combine(votes);
            categories.push(category);
            reports.push(AsReport {
                id: data.id(i),
                mh,
                hmc,
                category,
                flagged_inconsistent: false,
                pinpoint_prob: None,
            });
        }

        // Inconsistent-damper pass over the pooled joint samples.
        let all_chains: Vec<&Chain> = mh_pooled.iter().chain(hmc_pooled.iter()).collect();
        let pin = pinpoint_inconsistent(data, &categories, &all_chains);
        apply_pinpoint(data, &mut categories, &pin);
        for (i, report) in reports.iter_mut().enumerate() {
            if let Some(&prob) = pin.flagged.get(&report.id) {
                if !report.category.is_property() {
                    report.flagged_inconsistent = true;
                }
                report.pinpoint_prob = Some(prob);
            }
            report.category = categories[i];
        }

        // The two kernels' diagnostics are independent pure functions of
        // their chains: compute them side by side.
        let (mh_diagnostics, hmc_diagnostics) = std::thread::scope(|scope| {
            let mh = scope.spawn(|| KernelDiagnostics::of(&mh_chains));
            let hmc = KernelDiagnostics::of(&hmc_chains);
            (mh.join().expect("MH diagnostics panicked"), hmc)
        });
        // Pool the kernels: a known per-kernel value wins over NaN.
        let (mh, hmc) = (&mh_diagnostics, &hmc_diagnostics);
        let max_rank_r_hat = nan_max(mh.max_rank_r_hat, hmc.max_rank_r_hat);
        let min_ess_bulk = nan_min(mh.min_ess_bulk, hmc.min_ess_bulk);
        let min_ess_tail = nan_min(mh.min_ess_tail, hmc.min_ess_tail);
        let e_bfmi: Vec<f64> = hmc_chains
            .iter()
            .map(|c| diagnostics::e_bfmi(c.energies()))
            .collect();

        Analysis {
            reports,
            mh_chains,
            hmc_chains,
            unexplained_paths: pin.unexplained_paths.len(),
            max_rank_r_hat,
            min_ess_bulk,
            min_ess_tail,
            mh_diagnostics,
            hmc_diagnostics,
            e_bfmi,
            mh_secs,
            hmc_secs,
            trace,
            failures: runs.failures,
            resumed_chains: runs.resumed_chains,
            checkpoints_written: runs.checkpoints_written,
        }
    }

    /// Export kernel and diagnostics metrics into a run report: one
    /// `because.<kernel>` section per kernel with completed chains (with that kernel's
    /// own ESS), plus `because.diagnostics` (pooled across kernels).
    pub fn export_obs(&self, report: &mut obs::RunReport) {
        for (label, chains, wall, diag) in [
            (
                "because.mh",
                &self.mh_chains,
                self.mh_secs,
                &self.mh_diagnostics,
            ),
            (
                "because.hmc",
                &self.hmc_chains,
                self.hmc_secs,
                &self.hmc_diagnostics,
            ),
        ] {
            if chains.is_empty() {
                continue;
            }
            let pooled = Chain::pooled(chains);
            let section = report.section(label);
            section
                .counter("chains", chains.len() as u64)
                .counter("draws", pooled.len() as u64)
                .counter("proposals", pooled.proposals)
                .counter("divergences", pooled.divergences)
                .counter("likelihood_evals", pooled.likelihood_evals)
                .counter("grad_evals", pooled.grad_evals)
                .gauge("accept_rate", pooled.accept_rate)
                .gauge("min_ess_bulk", diag.min_ess_bulk)
                .gauge("min_ess_tail", diag.min_ess_tail)
                .span_secs("warmup_secs", pooled.warmup_secs)
                .span_secs("sampling_secs", pooled.sampling_secs)
                .span_secs("wall_secs", wall);
            if label == "because.hmc" {
                for (k, &b) in self.e_bfmi.iter().enumerate() {
                    section.gauge(&format!("e_bfmi.{k}"), b);
                }
            }
        }
        report
            .section("because.diagnostics")
            .gauge("max_rank_r_hat", self.max_rank_r_hat)
            .gauge("min_ess_bulk", self.min_ess_bulk)
            .gauge("min_ess_tail", self.min_ess_tail)
            .counter("unexplained_paths", self.unexplained_paths as u64);
        if !self.failures.is_empty() || self.resumed_chains > 0 || self.checkpoints_written > 0 {
            let section = report.section("because.supervisor");
            section
                .counter("chains_failed", self.failures.len() as u64)
                .counter("chains_resumed", self.resumed_chains as u64)
                .counter("checkpoints_written", self.checkpoints_written);
            for f in &self.failures {
                // One named entry per failed chain, e.g. `failed.MH.1`.
                section.counter(&format!("failed.{}.{}", f.kernel, f.chain_index), 1);
            }
        }
        if let Some(trace) = &self.trace {
            trace.export_into(report.section("because.trace"));
        }
    }

    /// The report for one AS.
    pub fn report(&self, id: NodeId) -> Option<&AsReport> {
        self.reports.iter().find(|r| r.id == id)
    }

    /// ASs flagged with the property (category 4/5).
    pub fn property_nodes(&self) -> Vec<NodeId> {
        self.reports
            .iter()
            .filter(|r| r.is_property())
            .map(|r| r.id)
            .collect()
    }

    /// Counts per category `[C1, C2, C3, C4, C5]` (Table 2's rows).
    pub fn category_counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for r in &self.reports {
            counts[(r.category.value() - 1) as usize] += 1;
        }
        counts
    }

    /// Share of ASs per category.
    pub fn category_shares(&self) -> [f64; 5] {
        let total = self.reports.len().max(1) as f64;
        self.category_counts().map(|c| c as f64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PathObservation;

    fn observations(paths: &[(&[u32], bool)], copies: u32) -> Vec<PathObservation> {
        let mut obs = Vec::new();
        for _ in 0..copies {
            for (ids, label) in paths {
                obs.push(PathObservation::new(
                    ids.iter().map(|&i| NodeId(i)).collect(),
                    *label,
                ));
            }
        }
        obs
    }

    #[test]
    fn full_pipeline_classifies_clear_cases() {
        // 1 damps (alone on showing paths), 2 clean, 3 shadowed behind 1.
        let obs = observations(
            &[
                (&[1], true),
                (&[1, 3], true),
                (&[2], false),
                (&[2, 4], false),
            ],
            20,
        );
        let data = PathData::from_observations(&obs, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(1));

        let r1 = a.report(NodeId(1)).unwrap();
        assert_eq!(r1.category, Category::C5, "clear damper");
        assert!(r1.is_property());

        let r2 = a.report(NodeId(2)).unwrap();
        assert!(
            matches!(r2.category, Category::C1 | Category::C2),
            "clean: {:?}",
            r2.category
        );

        // Node 3 only ever appears behind the damper: no information →
        // prior recovered → C1/C2/C3, definitely not flagged.
        let r3 = a.report(NodeId(3)).unwrap();
        assert!(
            !r3.is_property(),
            "shadowed AS must not be flagged: {:?}",
            r3.category
        );
    }

    #[test]
    fn inconsistent_damper_is_pinpointed() {
        // Node 1 damps only some neighbors (the paper's AS-701 case):
        // five showing paths share node 1 with distinct partners, while
        // three more neighbors see clean paths through it. Every partner
        // also has its own clean path, so "the partners damp" is a far
        // worse explanation than "node 1 damps part of its routes". The
        // posterior puts p_1 in the uncertain middle — below the C4 band —
        // and the Eq.-8 pass must raise it.
        let showing: &[(&[u32], bool)] = &[
            (&[1, 2], true),
            (&[1, 5], true),
            (&[1, 8], true),
            (&[1, 9], true),
            (&[1, 10], true),
        ];
        let clean: &[(&[u32], bool)] = &[
            (&[1, 3], false),
            (&[1, 6], false),
            (&[1, 7], false),
            (&[2, 4], false),
            (&[5, 4], false),
            (&[8, 4], false),
            (&[9, 4], false),
            (&[10, 4], false),
        ];
        let mut obs = observations(showing, 15);
        obs.extend(observations(clean, 15));
        let data = PathData::from_observations(&obs, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(2));
        let r1 = a.report(NodeId(1)).unwrap();
        // The marginal alone sits in the middle (clean paths drag it
        // down), so the property flag must come via the pinpoint pass.
        assert!(
            r1.is_property(),
            "inconsistent damper must end ≥ C4, got {:?} (mean {:.2})",
            r1.category,
            r1.mean()
        );
        // Clean co-travellers stay unflagged.
        for id in [3, 4, 6, 7] {
            let r = a.report(NodeId(id)).unwrap();
            assert!(
                !r.is_property(),
                "node {id} wrongly flagged {:?}",
                r.category
            );
        }
    }

    #[test]
    fn category_counts_sum_to_nodes() {
        let obs = observations(&[(&[1, 2], true), (&[3], false)], 5);
        let data = PathData::from_observations(&obs, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(3));
        let counts = a.category_counts();
        assert_eq!(counts.iter().sum::<usize>(), data.num_nodes());
        let shares = a.category_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chains_converge_on_easy_data() {
        let obs = observations(&[(&[1], true), (&[2], false)], 25);
        let data = PathData::from_observations(&obs, &[]);
        let cfg = AnalysisConfig {
            n_chains: 4,
            chain: ChainConfig {
                warmup: 400,
                samples: 600,
                thin: 1,
            },
            ..AnalysisConfig::fast(5)
        };
        let a = Analysis::run(&data, &cfg);
        assert!(a.max_rank_r_hat < 1.1, "rank r_hat={}", a.max_rank_r_hat);
        assert!(
            a.min_ess_bulk.is_finite() && a.min_ess_bulk > 1.0,
            "ess_bulk={}",
            a.min_ess_bulk
        );
        assert!(
            a.min_ess_tail.is_finite() && a.min_ess_tail >= 1.0,
            "ess_tail={}",
            a.min_ess_tail
        );
        assert_eq!(a.e_bfmi.len(), cfg.n_chains, "one E-BFMI per HMC chain");
        for (k, b) in a.e_bfmi.iter().enumerate() {
            assert!(b.is_finite() && *b > 0.3, "chain {k} e-bfmi={b}");
        }
    }

    #[test]
    fn per_kernel_diagnostics_pool_into_the_headline_fields() {
        let obs = observations(&[(&[1], true), (&[1, 2], true), (&[2], false)], 10);
        let data = PathData::from_observations(&obs, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(10));
        let (mh, hmc) = (&a.mh_diagnostics, &a.hmc_diagnostics);
        for d in [mh, hmc] {
            assert!(d.min_ess_bulk.is_finite() && d.min_ess_tail.is_finite());
            assert!(d.max_rank_r_hat.is_finite());
        }
        assert_eq!(a.min_ess_bulk, mh.min_ess_bulk.min(hmc.min_ess_bulk));
        assert_eq!(a.min_ess_tail, mh.min_ess_tail.min(hmc.min_ess_tail));
        assert_eq!(a.max_rank_r_hat, mh.max_rank_r_hat.max(hmc.max_rank_r_hat));
        assert_eq!(
            mh.min_ess_bulk.to_bits(),
            diagnostics::min_ess_bulk(&a.mh_chains).to_bits()
        );
        assert_eq!(
            hmc.min_ess_tail.to_bits(),
            diagnostics::min_ess_tail(&a.hmc_chains).to_bits()
        );

        let mut report = obs::RunReport::new("test");
        a.export_obs(&mut report);
        for (section, d) in [("because.mh", mh), ("because.hmc", hmc)] {
            let s = report.get(section).unwrap();
            assert!(
                matches!(s.get("min_ess_bulk"), Some(obs::Value::Gauge(v)) if *v == d.min_ess_bulk),
                "{section} min_ess_bulk"
            );
            assert!(
                matches!(s.get("min_ess_tail"), Some(obs::Value::Gauge(v)) if *v == d.min_ess_tail),
                "{section} min_ess_tail"
            );
        }
    }

    #[test]
    fn a_kernel_that_loses_every_chain_falls_back_to_the_other() {
        // Corrupt checkpoints poison every chain of one kernel on resume;
        // the other kernel starts fresh (it has no files) and carries the
        // run alone.
        let obs = observations(&[(&[1], true), (&[1, 2], true), (&[2], false)], 10);
        let data = PathData::from_observations(&obs, &[]);
        let cfg = AnalysisConfig::fast(10);
        for (kernel, tag) in [("MH", "mh"), ("HMC", "hmc")] {
            let mut base = std::env::temp_dir();
            base.push(format!(
                "because-analysis-poison-{tag}-{}",
                std::process::id()
            ));
            let files: Vec<_> = (0..cfg.n_chains)
                .map(|k| crate::supervisor::chain_file(&base, tag, k))
                .collect();
            for f in &files {
                std::fs::write(f, b"not a checkpoint").unwrap();
            }
            let resume = SupervisorConfig {
                resume: Some(base),
                ..Default::default()
            };
            let a = Analysis::run_supervised(&data, &cfg, &resume);
            for f in &files {
                let _ = std::fs::remove_file(f);
            }

            assert_eq!(a.failures.len(), cfg.n_chains, "{kernel}");
            assert!(a.failures.iter().all(|f| f.kernel == kernel));
            let (lost, kept) = if kernel == "MH" {
                (&a.mh_diagnostics, &a.hmc_diagnostics)
            } else {
                (&a.hmc_diagnostics, &a.mh_diagnostics)
            };
            assert!(lost.min_ess_bulk.is_nan() && lost.max_rank_r_hat.is_nan());
            assert!(kept.min_ess_bulk.is_finite() && kept.max_rank_r_hat.is_finite());
            assert_eq!(a.min_ess_bulk, kept.min_ess_bulk, "{kernel}");
            assert_eq!(a.min_ess_tail, kept.min_ess_tail, "{kernel}");
            assert_eq!(a.max_rank_r_hat, kept.max_rank_r_hat, "{kernel}");
            // E-BFMI comes from HMC chains only.
            assert_eq!(a.e_bfmi.is_empty(), kernel == "HMC");

            let r = a.report(NodeId(1)).unwrap();
            assert!(r.is_property(), "{kernel} poisoned");
            assert_eq!(r.mh.is_some(), kernel != "MH");
            assert_eq!(r.hmc.is_some(), kernel != "HMC");
        }
    }

    #[test]
    fn export_obs_emits_kernel_sections() {
        let obs_paths = observations(&[(&[1], true), (&[2], false)], 10);
        let data = PathData::from_observations(&obs_paths, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(9));
        let mut report = obs::RunReport::new("test");
        a.export_obs(&mut report);
        for section in ["because.mh", "because.hmc", "because.diagnostics"] {
            assert!(report.get(section).is_some(), "missing {section}");
        }
        let mh = report.get("because.mh").unwrap();
        assert!(
            matches!(mh.get("likelihood_evals"), Some(obs::Value::Counter(n)) if *n > 0),
            "MH must count delta evaluations"
        );
        let hmc = report.get("because.hmc").unwrap();
        assert!(
            matches!(hmc.get("grad_evals"), Some(obs::Value::Counter(n)) if *n > 0),
            "HMC must count gradient evaluations"
        );
    }

    #[test]
    fn traced_run_merges_all_chain_lanes_and_changes_nothing() {
        let obs = observations(&[(&[1], true), (&[2], false)], 10);
        let data = PathData::from_observations(&obs, &[]);
        let plain = Analysis::run(&data, &AnalysisConfig::fast(7));
        assert!(plain.trace.is_none(), "tracing must be off by default");

        let cfg = AnalysisConfig {
            trace: true,
            ..AnalysisConfig::fast(7)
        };
        let traced = Analysis::run(&data, &cfg);
        let buf = traced.trace.as_ref().expect("trace requested");
        assert_eq!(buf.dropped(), 0);
        // One lane per chain per kernel: MH at 0..n, HMC at n..2n.
        for lane in 0..(2 * cfg.n_chains as u64) {
            let name = buf
                .lane_name(obs::Lane(lane))
                .unwrap_or_else(|| panic!("lane {lane} unnamed"));
            assert!(name.ends_with(&format!("chain {}", lane % cfg.n_chains as u64)));
        }
        // Every chain contributes warmup and sampling spans.
        let begins = buf
            .events()
            .filter(|e| e.kind == obs::TraceKind::Begin)
            .count();
        assert_eq!(begins, 2 * 2 * cfg.n_chains);
        // Observation must not perturb the chains.
        for (a, b) in plain.reports.iter().zip(&traced.reports) {
            assert_eq!(a.mh.map(|m| m.mean), b.mh.map(|m| m.mean));
            assert_eq!(a.hmc.map(|m| m.mean), b.hmc.map(|m| m.mean));
        }
        // The trace surfaces in the run report.
        let mut report = obs::RunReport::new("t");
        traced.export_obs(&mut report);
        assert!(report.get("because.trace").is_some());
    }

    #[test]
    fn supervised_resume_reproduces_uninterrupted_run() {
        let obs = observations(&[(&[1], true), (&[1, 3], true), (&[2], false)], 10);
        let data = PathData::from_observations(&obs, &[]);
        let cfg = AnalysisConfig {
            chain: ChainConfig {
                warmup: 80,
                samples: 120,
                thin: 1,
            },
            n_chains: 2,
            ..AnalysisConfig::fast(11)
        };
        let mut base = std::env::temp_dir();
        base.push(format!("because-analysis-resume-{}", std::process::id()));

        let uninterrupted = Analysis::run(&data, &cfg);
        assert!(uninterrupted.failures.is_empty());
        assert_eq!(uninterrupted.checkpoints_written, 0);

        let stop = SupervisorConfig {
            checkpoint: Some(base.clone()),
            checkpoint_every: 25,
            stop_after_draws: Some(40),
            ..Default::default()
        };
        let first = Analysis::run_supervised(&data, &cfg, &stop);
        // Both kernels × both chains interrupted, each with checkpoints.
        assert_eq!(first.failures.len(), 4);
        assert!(first.checkpoints_written >= 4);

        let resume = SupervisorConfig {
            resume: Some(base.clone()),
            ..Default::default()
        };
        let second = Analysis::run_supervised(&data, &cfg, &resume);
        assert!(second.failures.is_empty(), "{:?}", second.failures);
        assert_eq!(second.resumed_chains, 4);
        for (a, b) in uninterrupted.mh_chains.iter().zip(&second.mh_chains) {
            assert_eq!(a.flat(), b.flat(), "resumed MH chain differs");
        }
        for (a, b) in uninterrupted.hmc_chains.iter().zip(&second.hmc_chains) {
            assert_eq!(a.flat(), b.flat(), "resumed HMC chain differs");
        }
        for (ra, rb) in uninterrupted.reports.iter().zip(&second.reports) {
            assert_eq!(ra.category, rb.category);
            assert_eq!(ra.mh.map(|m| m.mean), rb.mh.map(|m| m.mean));
            assert_eq!(ra.hmc.map(|m| m.mean), rb.hmc.map(|m| m.mean));
        }

        // The resume surfaces in the run report; a default run stays
        // silent.
        let mut rep = obs::RunReport::new("t");
        second.export_obs(&mut rep);
        assert!(rep.get("because.supervisor").is_some());
        let mut rep = obs::RunReport::new("t");
        uninterrupted.export_obs(&mut rep);
        assert!(rep.get("because.supervisor").is_none());

        for tag in ["mh", "hmc"] {
            for k in 0..2 {
                let _ = std::fs::remove_file(crate::supervisor::chain_file(&base, tag, k));
            }
        }
    }

    #[test]
    fn reports_deterministic_for_seed() {
        let obs = observations(&[(&[1, 2], true), (&[2], false)], 8);
        let data = PathData::from_observations(&obs, &[]);
        let a = Analysis::run(&data, &AnalysisConfig::fast(6));
        let b = Analysis::run(&data, &AnalysisConfig::fast(6));
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.category, rb.category);
            assert_eq!(ra.mh.map(|m| m.mean), rb.mh.map(|m| m.mean));
        }
    }
}
