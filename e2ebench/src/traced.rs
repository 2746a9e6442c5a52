//! The traced replay: the same work as the untraced run, issued as a
//! sequence of calls into each layer's public functions with a span
//! around every call.
//!
//! The campaign replay mirrors `experiments::run_campaign` step by step,
//! except that the simulator runs in slices cut at the beacon schedule's
//! burst and break boundaries. The inference replay mirrors
//! `because::Analysis::run_supervised` kernel by kernel. Both produce
//! the same digest as the untraced run, which is what shows that the
//! slices and the split measure the same program.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use beacon::{BeaconSchedule, Campaign};
use because::diagnostics;
use because::hmc::Hmc;
use because::mh::MetropolisHastings;
use because::pinpoint::{apply_pinpoint, pinpoint_inconsistent};
use because::{
    run_chains_supervised, AnalysisConfig, Category, Chain, Marginal, NoProgress, PathData,
    SupervisedRun, SupervisorConfig,
};
use bgpsim::{AsId, NetworkConfig};
use collector::CollectorSet;
use experiments::infer::path_data_from_labels;
use experiments::{
    evaluate_against_oracle, CampaignOutput, Coverage, Deployment, ExperimentConfig,
};
use heuristics::HeuristicConfig;
use netsim::faults::FaultPlan;
use netsim::{SimRng, SimTime};
use rov::{PrecisionRecall, RovScenario};
use signature::label_dump_with_outages;
use topology::generate;

use crate::tracer::Tracer;
use crate::workloads::{
    analysis_config, as_set, digest, labels_consistent, Inputs, Outcome, Workload,
};

/// Per-layer counts and rates, by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// Replay `inputs` under `tracer`, recording counts into `metrics`.
pub fn replay(tracer: &mut Tracer, inputs: &Inputs, metrics: &mut Metrics) -> Outcome {
    match inputs {
        Inputs::Campaign {
            workload: Workload::MultiIntervalFaults,
            config,
            ..
        } => {
            let out = campaign(tracer, config, metrics);
            Outcome {
                digest: digest(&[&out.labels, &out.fault_counters]),
                labels: out.labels.len(),
                max_rank_r_hat: None,
                min_ess_bulk: None,
                precision_recall: None,
                consistent: labels_consistent(inputs, &out.labels),
            }
        }
        Inputs::Campaign { config, .. } => {
            let out = campaign(tracer, config, metrics);
            let inferred = tracer.span("because.infer", |t| {
                let data = t.span("because.path_data", |_| {
                    black_box(Coverage::from_labels(&out.labels));
                    path_data_from_labels(&out)
                });
                infer(t, &data, &analysis_config(config.seed), metrics)
            });
            let heuristic_config = HeuristicConfig::default();
            let scores = tracer.span("heuristics.evaluate", |_| {
                let schedules: Vec<&BeaconSchedule> = out.campaign.beacon_schedules().collect();
                heuristics::evaluate(&out.labels, &out.dump, &schedules, &heuristic_config)
            });
            let heuristics_flagged: BTreeSet<AsId> = scores
                .rfd_ases(heuristic_config.threshold)
                .into_iter()
                .collect();
            let interval = config.intervals[0];
            let (because_eval, heuristics_eval) = tracer.span("experiments.oracle", |_| {
                (
                    evaluate_against_oracle(&out, &inferred.flagged, interval),
                    evaluate_against_oracle(&out, &heuristics_flagged, interval),
                )
            });
            let precision_recall = (because_eval.pr.precision(), because_eval.pr.recall());
            record_quality(
                metrics,
                &inferred,
                tracer.total("because.infer"),
                precision_recall,
            );
            Outcome {
                digest: digest(&[
                    &out.labels,
                    &inferred.flagged,
                    &inferred.counts,
                    &heuristics_flagged,
                    &heuristics_eval.pr,
                ]),
                labels: out.labels.len(),
                max_rank_r_hat: Some(inferred.max_rank_r_hat),
                min_ess_bulk: Some(inferred.min_ess_bulk),
                precision_recall: Some(precision_recall),
                consistent: labels_consistent(inputs, &out.labels),
            }
        }
        Inputs::Rov { seed, scenario } => rov(tracer, scenario, *seed, metrics),
    }
}

/// `run_campaign`, one layer call per span.
fn campaign(t: &mut Tracer, config: &ExperimentConfig, m: &mut Metrics) -> CampaignOutput {
    let topology = t.span("topology.generate", |_| generate(&config.topology));
    let deployment = t.span("experiments.deployment", |_| {
        Deployment::assign(&topology, &config.deployment)
    });
    let (mut net, campaign, plan) = t.span("bgpsim.instantiate", |_| {
        let net_config = NetworkConfig {
            jitter: 0.5,
            ..NetworkConfig::realistic(config.seed)
        };
        let mut net = topology.instantiate(net_config, deployment.policy_hook());
        let campaign = Campaign::new(
            &topology.beacon_sites,
            &config.intervals,
            config.break_duration,
            SimTime::ZERO,
            config.cycles,
        );
        campaign.apply(&mut net);
        let plan = config.faults.clone().map(FaultPlan::new);
        if let Some(plan) = &plan {
            net.apply_faults(plan, campaign.end() - SimTime::ZERO);
        }
        (net, campaign, plan)
    });
    let horizon = campaign.end();

    // Every beacon schedule runs on one clock (same start, priming,
    // burst and break lengths), so the first one's boundaries cut the
    // whole campaign. The priming lead-in counts as break time.
    let schedule = campaign
        .beacon_schedules()
        .next()
        .expect("a campaign has beacons");
    let mut slices = vec![("bgpsim.break", schedule.burst_start(0))];
    for i in 0..schedule.cycles {
        slices.push(("bgpsim.burst", schedule.burst_end(i)));
        slices.push(("bgpsim.break", schedule.break_end(i)));
    }
    slices.push(("bgpsim.drain", SimTime::MAX));
    t.span("bgpsim.simulate", |t| {
        for (name, until) in slices {
            let events = t.span(name, |_| net.run_until(until));
            *m.entry(format!("{name}_events")).or_default() += events as f64;
        }
    });
    let stats = net.stats();
    let suppressions: u64 = stats.rfd.values().map(|p| p.suppressions).sum();
    for (name, value) in [
        ("bgpsim.events", net.events_processed()),
        ("bgpsim.updates_delivered", net.delivered()),
        ("bgpsim.mrai_deferrals", stats.mrai_deferrals),
        ("bgpsim.rfd_suppressions", suppressions),
        (
            "bgpsim.queue_depth_max",
            net.queue_depth_high_water() as u64,
        ),
        ("bgpsim.tap_records", net.tap_log().len() as u64),
    ] {
        m.insert(name.to_string(), value as f64);
    }

    let mut fault_counters = net.fault_counters().clone();
    let dump = t.span("collector.process", |_| {
        let taps = net.take_tap_log();
        let collectors = CollectorSet::assign(&topology.vantage_points, config.seed);
        collectors.process_with_faults(
            &taps,
            &config.collector,
            horizon,
            plan.as_ref(),
            &mut fault_counters,
        )
    });
    m.insert("collector.records".into(), dump.len() as f64);

    let (vp_outages, labels) = t.span("signature.label", |_| {
        let horizon_span = horizon - SimTime::ZERO;
        let vp_outages: BTreeMap<AsId, (SimTime, SimTime)> = plan
            .as_ref()
            .map(|plan| {
                topology
                    .vantage_points
                    .iter()
                    .filter_map(|&vp| {
                        plan.vp_outage(u64::from(vp.0), horizon_span)
                            .map(|window| (vp, window))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let mut labels = Vec::new();
        for schedule in campaign.beacon_schedules() {
            labels.extend(label_dump_with_outages(
                &dump,
                schedule,
                &config.labeling,
                &vp_outages,
            ));
        }
        (vp_outages, labels)
    });
    let schedules = campaign.beacon_schedules().count();
    for (name, value) in [
        ("signature.schedules", schedules),
        ("signature.paths", labels.len()),
        (
            "signature.rfd_paths",
            labels.iter().filter(|l| l.rfd).count(),
        ),
        (
            "signature.unobservable_paths",
            labels.iter().filter(|l| l.unobservable).count(),
        ),
        // Computed, not counted: each schedule rescans the whole dump.
        ("signature.records_scanned_computed", schedules * dump.len()),
    ] {
        m.insert(name.to_string(), value as f64);
    }

    let report = t.span("experiments.report", |_| {
        let mut report = obs::RunReport::new("campaign");
        net.export_obs(&mut report);
        report.push_section(dump.obs_section());
        report.push_section(signature::obs_section(&labels));
        if plan.is_some() {
            report.push_section(fault_counters.obs_section());
        }
        report
    });

    CampaignOutput {
        events_processed: net.events_processed(),
        updates_delivered: net.delivered(),
        topology,
        deployment,
        campaign,
        dump,
        labels,
        report,
        trace: None,
        fault_counters,
        vp_outages,
    }
}

/// The ROV workload after set-up: inference, then precision/recall
/// against the planted set.
fn rov(t: &mut Tracer, scenario: &RovScenario, seed: u64, m: &mut Metrics) -> Outcome {
    let (data, inferred) = t.span("because.infer", |t| {
        let data = t.span("because.path_data", |_| scenario.path_data());
        let inferred = infer(t, &data, &analysis_config(seed), m);
        (data, inferred)
    });
    let pr = t.span("rov.evaluate", |_| {
        let universe = as_set(data.ids());
        PrecisionRecall::compute(&inferred.flagged, &scenario.rov_ases, &universe)
    });
    let precision_recall = (pr.precision(), pr.recall());
    record_quality(m, &inferred, t.total("because.infer"), precision_recall);
    Outcome {
        digest: digest(&[&scenario.paths, &inferred.flagged, &inferred.counts]),
        labels: scenario.paths.len(),
        max_rank_r_hat: Some(inferred.max_rank_r_hat),
        min_ess_bulk: Some(inferred.min_ess_bulk),
        precision_recall: Some(precision_recall),
        consistent: true,
    }
}

/// What the split inference decided.
struct Inferred {
    flagged: BTreeSet<AsId>,
    counts: [usize; 5],
    max_rank_r_hat: f64,
    min_ess_bulk: f64,
}

/// `Analysis::run_supervised` under the default supervisor, one span
/// per kernel and per post-processing pass.
fn infer(t: &mut Tracer, data: &PathData, cfg: &AnalysisConfig, m: &mut Metrics) -> Inferred {
    let rng = SimRng::new(cfg.seed);
    let sup = SupervisorConfig::default();
    let mh_chains = t.span("because.mh", |_| {
        completed(run_chains_supervised(
            |_, r: &mut SimRng| MetropolisHastings::from_prior(data, cfg.prior, r),
            |_| NoProgress,
            cfg.n_chains,
            &cfg.chain,
            &rng.split("mh"),
            &sup,
            "mh",
        ))
    });
    let hmc_chains = t.span("because.hmc", |_| {
        completed(run_chains_supervised(
            |_, r: &mut SimRng| Hmc::from_prior(data, cfg.prior, r),
            |_| NoProgress,
            cfg.n_chains,
            &cfg.chain,
            &rng.split("hmc"),
            &sup,
            "hmc",
        ))
    });

    let (mh, hmc, mut categories) = t.span("because.summarize", |_| {
        let mh = Chain::pooled(&mh_chains);
        let hmc = Chain::pooled(&hmc_chains);
        let mut column = Vec::new();
        let categories: Vec<Category> = (0..data.num_nodes())
            .map(|i| {
                Category::combine([&mh, &hmc].map(|pooled| {
                    pooled.copy_column(i, &mut column);
                    Category::from_marginal(&Marginal::from_samples(&column, cfg.hpdi_level))
                }))
            })
            .collect();
        (mh, hmc, categories)
    });
    t.span("because.pinpoint", |_| {
        let pin = pinpoint_inconsistent(data, &categories, &[&mh, &hmc]);
        apply_pinpoint(data, &mut categories, &pin);
    });
    let (max_rank_r_hat, mh_ess, hmc_ess) = t.span("because.diagnostics", |_| {
        // `f64::max`/`min` keep the known value over a NaN, as the
        // Analysis combiners do.
        let across = |f: fn(&[Chain]) -> f64| f(&mh_chains).max(f(&hmc_chains));
        black_box((
            across(diagnostics::max_r_hat),
            diagnostics::min_ess_tail(&mh_chains).min(diagnostics::min_ess_tail(&hmc_chains)),
            hmc_chains
                .iter()
                .map(|c| diagnostics::e_bfmi(c.energies()))
                .collect::<Vec<f64>>(),
        ));
        (
            across(diagnostics::max_rank_r_hat),
            diagnostics::min_ess_bulk(&mh_chains),
            diagnostics::min_ess_bulk(&hmc_chains),
        )
    });

    let mh_s = t.total("because.mh");
    let hmc_s = t.total("because.hmc");
    for (name, value) in [
        ("because.nodes", data.num_nodes() as f64),
        ("because.paths", data.num_paths() as f64),
        ("because.observations", data.num_observations() as f64),
        ("because.mh.ess_bulk_per_s", mh_ess / mh_s),
        ("because.hmc.ess_bulk_per_s", hmc_ess / hmc_s),
        ("because.mh.evals_per_s", mh.likelihood_evals as f64 / mh_s),
        (
            "because.hmc.grad_evals_per_s",
            hmc.grad_evals as f64 / hmc_s,
        ),
        ("because.mh.accept_rate", mh.accept_rate),
        ("because.hmc.accept_rate", hmc.accept_rate),
        ("because.hmc.divergences", hmc.divergences as f64),
    ] {
        m.insert(name.to_string(), value);
    }

    let mut counts = [0usize; 5];
    for c in &categories {
        counts[usize::from(c.value() - 1)] += 1;
    }
    let flagged = categories
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_property())
        .map(|(i, _)| AsId(data.id(i).0))
        .collect();
    Inferred {
        flagged,
        counts,
        max_rank_r_hat,
        min_ess_bulk: mh_ess.min(hmc_ess),
    }
}

/// The chains that completed, in chain order; failed chains are left
/// out, as `Analysis` leaves them out of pooling.
fn completed(run: SupervisedRun<NoProgress>) -> Vec<Chain> {
    run.into_parts()
        .0
        .into_iter()
        .map(|(_, chain, _)| chain)
        .collect()
}

/// The quality figures of an inference workload.
fn record_quality(
    m: &mut Metrics,
    inferred: &Inferred,
    infer_s: f64,
    (precision, recall): (f64, f64),
) {
    m.insert(
        "because.ess_bulk_per_s".into(),
        inferred.min_ess_bulk / infer_s,
    );
    m.insert("because.max_rank_r_hat".into(), inferred.max_rank_r_hat);
    m.insert("experiments.precision".into(), precision);
    m.insert("experiments.recall".into(), recall);
}
