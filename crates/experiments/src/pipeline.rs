//! The end-to-end measurement pipeline: topology → deployment → beacons →
//! simulation → collector dumps → labeled paths.
//!
//! [`measure`] is the one place that fixes the measurement's order —
//! fault plan → run a slice → collect it → … → lay out → label — for
//! the campaign ([`run_campaign`]) and for every hand-built network
//! alike. Collection cleans each distinct path once and records the
//! VP-outage windows it applied; labeling reads those windows from the
//! dump.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use beacon::{BeaconSchedule, Campaign};
use bgpsim::{AsId, Network};
use collector::{CollectorConfig, CollectorSet, Dump};
use netsim::faults::{FaultCounters, FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};
use signature::{label_dump_with_outages, LabeledPath, LabelingConfig};
use topology::{generate, Topology, TopologyConfig};

use crate::deployment::{Deployment, DeploymentConfig};

/// Everything an experiment needs to run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Topology generator settings.
    pub topology: TopologyConfig,
    /// RFD/MRAI deployment model.
    pub deployment: DeploymentConfig,
    /// Beacon update intervals to run simultaneously (one prefix per
    /// interval per site, like the paper's 3-prefix campaigns).
    pub intervals: Vec<SimDuration>,
    /// Break duration between bursts.
    pub break_duration: SimDuration,
    /// Number of Burst–Break cycles.
    pub cycles: usize,
    /// Collector noise model.
    pub collector: CollectorConfig,
    /// Signature-detection thresholds.
    pub labeling: LabelingConfig,
    /// Master seed (propagated to all subsystems).
    pub seed: u64,
    /// Record per-session RFD transitions and MRAI deferrals into a
    /// sim-time trace buffer, surfaced as [`CampaignOutput::trace`].
    pub trace: bool,
    /// Deterministic fault injection across the measurement substrate
    /// (VP outages, session resets, record loss/duplication/reordering,
    /// clock skew, truncated or delayed exports). `None` — the default —
    /// leaves every layer on its fault-free fast path, byte-identical to
    /// a build without fault support.
    pub faults: Option<FaultSpec>,
}

impl ExperimentConfig {
    /// The paper-scale default: March-campaign geometry at one interval.
    pub fn single_interval(interval_mins: u64, seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologyConfig::default_with_seed(seed),
            deployment: DeploymentConfig {
                seed,
                ..Default::default()
            },
            intervals: vec![SimDuration::from_mins(interval_mins)],
            break_duration: SimDuration::from_hours(2),
            cycles: 4,
            collector: CollectorConfig {
                seed,
                ..Default::default()
            },
            labeling: LabelingConfig::default(),
            seed,
            trace: false,
            faults: None,
        }
    }

    /// A small, fast configuration for tests.
    pub fn small(interval_mins: u64, seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologyConfig::tiny(seed),
            deployment: DeploymentConfig {
                rfd_share: 0.25,
                seed,
                ..Default::default()
            },
            intervals: vec![SimDuration::from_mins(interval_mins)],
            break_duration: SimDuration::from_hours(2),
            cycles: 3,
            collector: CollectorConfig {
                seed,
                ..CollectorConfig::clean()
            },
            labeling: LabelingConfig::default(),
            seed,
            trace: false,
            faults: None,
        }
    }
}

/// The pipeline's output: everything downstream analyses consume.
#[derive(Clone, Debug)]
pub struct CampaignOutput {
    /// The generated topology.
    pub topology: Topology,
    /// The planted deployment (the oracle).
    pub deployment: Deployment,
    /// The beacon campaign that was run.
    pub campaign: Campaign,
    /// The collector dump.
    pub dump: Dump,
    /// Labeled paths, across all beacon prefixes.
    pub labels: Vec<LabeledPath>,
    /// Simulator statistics: events processed.
    pub events_processed: u64,
    /// Simulator statistics: BGP updates delivered.
    pub updates_delivered: u64,
    /// Observability report: pipeline phase timings plus per-subsystem
    /// metric sections (queue, network, collector, labels).
    pub report: obs::RunReport,
    /// Sim-time trace of RFD/MRAI activity, when
    /// [`ExperimentConfig::trace`] was set.
    pub trace: Option<obs::TraceBuffer>,
    /// Tallies of every fault actually injected, merged across the
    /// network and collector layers. All-zero on fault-free runs.
    pub fault_counters: FaultCounters,
    /// The outage window each vantage point suffered, keyed by VP AS: a
    /// copy of [`Dump::vp_outages`], which labeling reads. Empty on
    /// fault-free runs. Kept because the benchmark harness builds a
    /// `CampaignOutput` itself.
    pub vp_outages: BTreeMap<AsId, (SimTime, SimTime)>,
}

impl CampaignOutput {
    /// Share of labeled paths that are RFD.
    pub fn rfd_path_share(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|l| l.rfd).count() as f64 / self.labels.len() as f64
    }
}

/// Run the full measurement pipeline: build the topology, plant the
/// deployment, schedule the beacon campaign, then [`measure`].
pub fn run_campaign(config: &ExperimentConfig) -> CampaignOutput {
    let topology_clock = obs::Stopwatch::start();
    let topology = generate(&config.topology);
    let deployment = Deployment::assign(&topology, &config.deployment);
    let topology_secs = topology_clock.elapsed_secs();

    // The deployment's session policies and realistic per-hop processing
    // delays (Fig. 8's seconds-scale propagation).
    let net_config = bgpsim::NetworkConfig {
        jitter: 0.5,
        ..bgpsim::NetworkConfig::realistic(config.seed)
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
    let schedules: Vec<&BeaconSchedule> = campaign.beacon_schedules().collect();
    let m = measure(
        net,
        &schedules,
        &CollectorSet::assign(&topology.vantage_points, config.seed),
        &config.collector,
        &config.labeling,
        config.faults.as_ref(),
        config.trace,
    );

    let mut report = obs::RunReport::new("campaign");
    report
        .section("pipeline")
        .span_secs("topology_secs", topology_secs)
        .span_secs("simulate_secs", m.simulate_secs)
        .span_secs("collect_secs", m.collect_secs)
        .span_secs("label_secs", m.label_secs)
        .counter("collect_slices", m.collect_slices);
    report.merge(m.report);

    CampaignOutput {
        topology,
        deployment,
        campaign,
        labels: m.labels,
        events_processed: m.events_processed,
        updates_delivered: m.updates_delivered,
        report,
        trace: m.trace,
        fault_counters: m.fault_counters,
        vp_outages: m.dump.vp_outages().clone(),
        dump: m.dump,
    }
}

/// What [`measure`] observed of one run.
#[derive(Debug)]
pub struct Measurement {
    /// The collector dump.
    pub dump: Dump,
    /// Labeled paths, across every schedule measured.
    pub labels: Vec<LabeledPath>,
    /// Every fault injected, merged across the network and collector
    /// layers. All-zero on fault-free runs.
    pub fault_counters: FaultCounters,
    /// The `netsim.queue`, `bgpsim.network`, `[bgpsim.trace]`,
    /// `collector.dump`, `signature.labels` and `[faults]` sections, in
    /// that order.
    pub report: obs::RunReport,
    /// Sim-time trace of RFD/MRAI activity, when tracing was asked for.
    pub trace: Option<obs::TraceBuffer>,
    /// Simulator events processed.
    pub events_processed: u64,
    /// BGP updates delivered.
    pub updates_delivered: u64,
    /// Wall-clock seconds running the network to quiescence, summed
    /// over the slices.
    pub simulate_secs: f64,
    /// Wall-clock seconds turning the taps into a dump: every slice's
    /// push plus the final layout.
    pub collect_secs: f64,
    /// The run slices collected.
    pub collect_slices: u64,
    /// Wall-clock seconds labeling the dump.
    pub label_secs: f64,
}

/// The simulated time between two collection cuts. [`measure`] runs the
/// network to each whole hour up to the campaign end, and then to
/// quiescence, collecting each slice's taps before the next runs. Every
/// cut ends in a barrier across the simulation lanes, so finer cuts cost
/// wall time (15-minute cuts: `rfd_small` +24%), and coarser ones keep
/// more taps alive at once (cuts at burst and break ends only left half
/// of a six-interval campaign's taps in one slice): see DESIGN.md §6.
const COLLECT_EVERY: SimDuration = SimDuration::from_hours(1);

/// The times [`measure`] runs the network to, in order: every whole
/// simulated hour until one reaches the campaign end `horizon`, then
/// [`SimTime::MAX`] (quiescence).
pub fn collection_cuts(horizon: SimTime) -> impl Iterator<Item = SimTime> {
    let every = COLLECT_EVERY.as_millis();
    let slices = horizon
        .saturating_since(SimTime::ZERO)
        .as_millis()
        .div_ceil(every);
    (1..=slices)
        .map(move |k| SimTime::from_millis(k * every))
        .chain([SimTime::MAX])
}

/// Measure a built network the way the paper does (§4): run the beacons,
/// collect the dumps at the vantage points, label every Burst–Break pair.
///
/// `net` comes with its vantage-point taps attached and `schedules`
/// (plus any anchors) already applied. The network runs in slices
/// ([`collection_cuts`]), and each slice's taps are collected and dropped
/// before the next slice runs; slicing changes nothing the run or the
/// dump holds. The fault plan `faults` spans the latest end among
/// `schedules`; its session resets go into the network's queue before
/// the run and its VP-level faults into collection. Labeling reads the outage windows the collector applied
/// from the dump, and marks the pairs an outage swallowed as
/// unobservable rather than clean. `trace` attaches a
/// 2¹⁶-event trace buffer to the network.
pub fn measure(
    mut net: Network,
    schedules: &[&BeaconSchedule],
    collectors: &CollectorSet,
    collector: &CollectorConfig,
    labeling: &LabelingConfig,
    faults: Option<&FaultSpec>,
    trace: bool,
) -> Measurement {
    if trace {
        net.set_trace(obs::TraceBuffer::new(1 << 16));
    }
    let plan = faults.cloned().map(FaultPlan::new);
    let horizon = schedules.iter().fold(SimTime::ZERO, |h, s| h.max(s.end()));
    if let Some(plan) = &plan {
        net.apply_faults(plan, horizon - SimTime::ZERO);
    }

    // Run and collect slice by slice, so the tap log never holds more
    // than one slice; the last slice drains the queue once all RFD reuse
    // timers past the last break have fired.
    let mut collection = collectors.collection(collector, horizon, plan.as_ref());
    let (mut simulate_secs, mut collect_secs, mut collect_slices) = (0.0, 0.0, 0);
    for cut in collection_cuts(horizon) {
        let clock = obs::Stopwatch::start();
        net.run_until(cut);
        simulate_secs += clock.elapsed_secs();
        let clock = obs::Stopwatch::start();
        collection.push(&net.take_tap_log());
        collect_secs += clock.elapsed_secs();
        collect_slices += 1;
    }
    let events_processed = net.events_processed();
    let updates_delivered = net.delivered();
    let mut fault_counters = net.fault_counters().clone();
    let mut report = obs::RunReport::new("measurement");
    net.export_obs(&mut report);
    let trace = net.take_trace();
    drop(net);

    let clock = obs::Stopwatch::start();
    let dump = collection.finish(&mut fault_counters);
    collect_secs += clock.elapsed_secs();

    let clock = obs::Stopwatch::start();
    let labels: Vec<LabeledPath> = schedules
        .iter()
        .flat_map(|s| label_dump_with_outages(&dump, s, labeling, dump.vp_outages()))
        .collect();
    let label_secs = clock.elapsed_secs();

    // The faults section appears only on faulted runs, keeping
    // fault-free reports byte-identical to a build without fault support.
    report.push_section(dump.obs_section());
    report.push_section(signature::obs_section(&labels));
    if plan.is_some() {
        report.push_section(fault_counters.obs_section());
    }

    Measurement {
        dump,
        labels,
        fault_counters,
        report,
        trace,
        events_processed,
        updates_delivered,
        simulate_secs,
        collect_secs,
        collect_slices,
        label_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn pipeline_produces_labels_and_finds_dampers() {
        let cfg = ExperimentConfig::small(1, 11);
        let out = run_campaign(&cfg);
        assert!(!out.labels.is_empty(), "no labeled paths");
        assert!(out.events_processed > 0);
        assert!(out.updates_delivered > 0);

        // Oracle sanity: with dampers planted, some paths must be RFD.
        let truth = out.deployment.ground_truth();
        assert!(!truth.is_empty());
        let rfd_paths: Vec<_> = out.labels.iter().filter(|l| l.rfd).collect();
        assert!(
            !rfd_paths.is_empty(),
            "no RFD paths despite planted dampers"
        );

        // Soundness: every RFD-labeled path crosses a session that the
        // oracle says damps (receiver side, consecutive pair on path).
        for l in &rfd_paths {
            let asns = l.path.asns();
            let crossed_damper = asns.windows(2).any(|w| {
                // w[0] receives from w[1] (path is vantage → origin).
                out.deployment.damps_session(w[0], w[1]).is_some()
            });
            assert!(
                crossed_damper,
                "RFD path {} crosses no damping session",
                l.path
            );
        }
    }

    #[test]
    fn non_rfd_paths_avoid_triggered_dampers() {
        let cfg = ExperimentConfig::small(1, 12);
        let out = run_campaign(&cfg);
        let interval = cfg.intervals[0];
        // ASs whose parameters trigger at this interval:
        let triggered = out.deployment.triggered_at(interval);
        for l in out.labels.iter().filter(|l| !l.rfd) {
            let asns = l.path.asns();
            for w in asns.windows(2) {
                if let Some(params) = out.deployment.damps_session(w[0], w[1]) {
                    // A damping session on a non-RFD path must be one that
                    // doesn't trigger at this interval.
                    assert!(
                        !params.triggers_at(interval) || !triggered.contains(&w[0]),
                        "path {} via damping session {}←{} labeled non-RFD",
                        l.path,
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn slow_interval_produces_fewer_rfd_paths() {
        // A denser deployment so dampers are visible from the tiny VP set
        // (with few VPs a sparse deployment can legitimately yield zero
        // RFD paths at any interval).
        let mut fast_cfg = ExperimentConfig::small(1, 13);
        fast_cfg.deployment.rfd_share = 0.5;
        let mut slow_cfg = ExperimentConfig::small(15, 13);
        slow_cfg.deployment.rfd_share = 0.5;
        let fast = run_campaign(&fast_cfg);
        let slow = run_campaign(&slow_cfg);
        assert!(
            fast.rfd_path_share() > slow.rfd_path_share(),
            "fast {} vs slow {}",
            fast.rfd_path_share(),
            slow.rfd_path_share()
        );
        // At 15 minutes nothing should trigger (no profile damps there).
        assert_eq!(slow.labels.iter().filter(|l| l.rfd).count(), 0);
    }

    #[test]
    fn labels_cover_multiple_vantage_points() {
        let out = run_campaign(&ExperimentConfig::small(1, 14));
        let vps: BTreeSet<_> = out.labels.iter().map(|l| l.vantage).collect();
        assert!(
            vps.len() >= 2,
            "only {} vantage points produced labels",
            vps.len()
        );
    }

    #[test]
    fn traced_campaign_records_rfd_activity_without_perturbing_it() {
        let mut cfg = ExperimentConfig::small(1, 11);
        cfg.trace = true;
        let traced = run_campaign(&cfg);
        let buf = traced.trace.as_ref().expect("trace requested");
        assert!(
            buf.events()
                .any(|e| e.name == "penalty" && e.kind == obs::TraceKind::Counter),
            "campaign with planted dampers must record penalty samples"
        );
        assert!(buf
            .events()
            .all(|e| matches!(e.time, obs::TraceTime::Sim(_))));

        let plain = run_campaign(&ExperimentConfig::small(1, 11));
        assert!(plain.trace.is_none(), "tracing must be off by default");
        assert_eq!(plain.labels, traced.labels);
        assert_eq!(plain.events_processed, traced.events_processed);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_campaign(&ExperimentConfig::small(1, 15));
        let b = run_campaign(&ExperimentConfig::small(1, 15));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn faulted_campaign_is_deterministic_and_counts_faults() {
        let mut cfg = ExperimentConfig::small(1, 31);
        cfg.faults = Some(netsim::faults::FaultSpec::drill(9));
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.fault_counters, b.fault_counters);
        assert_eq!(a.vp_outages, b.vp_outages);
        assert!(a.fault_counters.total() > 0, "drill plan injected nothing");
        assert!(
            a.report.to_text().contains("faults"),
            "faulted run must report a faults section"
        );
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        let base = run_campaign(&ExperimentConfig::small(1, 32));
        let mut cfg = ExperimentConfig::small(1, 32);
        cfg.faults = Some(netsim::faults::FaultSpec::default());
        let armed = run_campaign(&cfg);
        assert_eq!(base.labels, armed.labels);
        assert_eq!(base.events_processed, armed.events_processed);
        assert_eq!(base.updates_delivered, armed.updates_delivered);
        assert_eq!(armed.fault_counters.total(), 0);
        assert!(armed.vp_outages.is_empty());
    }

    #[test]
    fn fault_free_run_reports_no_faults_section() {
        let out = run_campaign(&ExperimentConfig::small(1, 33));
        assert_eq!(out.fault_counters.total(), 0);
        assert!(
            !out.report.to_text().contains("faults"),
            "fault-free reports must stay unchanged"
        );
    }
}
