//! Collecting a run slice by slice gives the dump one-shot collection
//! gives.
//!
//! `measure` runs the network in slices and pushes each slice's taps
//! into one `Collection`, dropping them before the next slice runs. The
//! collector draws its noise and faults in tap order, and interns each
//! tap path by its allocation's address with a fallback on content, so
//! neither the cut points nor freed and reused allocations may change
//! what it records. These tests cut the whole-run tap log of the tiny
//! campaigns (fault-free, and the fault drill) at arbitrary indices and
//! compare against `process_with_faults`, then compare `measure` against
//! the one-shot pipeline on an identical network.

use std::collections::BTreeSet;

use beacon::{BeaconSchedule, Campaign};
use bgpsim::{AggregatorStamp, AsId, Network, NetworkConfig, Prefix, TapRecord};
use collector::{CleanPath, CollectorSet, Dump, PathId, Project};
use experiments::pipeline::{measure, ExperimentConfig};
use experiments::Deployment;
use netsim::faults::{FaultCounters, FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};
use signature::label_dump_with_outages;

/// The tiny campaign over three intervals and two cycles, with the fault
/// drill.
fn drill_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    config.faults = Some(FaultSpec::drill(2020));
    config
}

fn configs() -> [(&'static str, ExperimentConfig); 2] {
    [
        ("fault-free", ExperimentConfig::small(1, 2020)),
        ("drill", drill_config()),
    ]
}

/// What `run_campaign` measures for `config`: the network with its
/// schedules applied (no faults yet), the campaign, and the collectors.
fn campaign(config: &ExperimentConfig) -> (Network, Campaign, CollectorSet) {
    let topology = topology::generate(&config.topology);
    let deployment = Deployment::assign(&topology, &config.deployment);
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
    let collectors = CollectorSet::assign(&topology.vantage_points, config.seed);
    (net, campaign, collectors)
}

/// The latest schedule end: the horizon `measure` gives the fault plan.
fn horizon(schedules: &[&BeaconSchedule]) -> SimTime {
    schedules.iter().fold(SimTime::ZERO, |h, s| h.max(s.end()))
}

/// The fault plan, applied to `net` over `horizon` as `measure` does.
fn plan(config: &ExperimentConfig, net: &mut Network, horizon: SimTime) -> Option<FaultPlan> {
    let plan = config.faults.clone().map(FaultPlan::new)?;
    net.apply_faults(&plan, horizon - SimTime::ZERO);
    Some(plan)
}

/// `taps` with every path in an allocation of its own, its vantage
/// point prepended once more (cleaning collapses it again, into an
/// allocation of the table's). A slice of these is dropped right after
/// it is pushed, so a later slice's paths may reuse the addresses:
/// interning by address must not be fooled by that.
fn reallocated(taps: &[TapRecord]) -> Vec<TapRecord> {
    let mut taps = taps.to_vec();
    for tap in &mut taps {
        if let Some(route) = &mut tap.route {
            route.path = route.path.prepend(tap.vantage, 1);
        }
    }
    taps
}

type Record = (SimTime, SimTime, Option<CleanPath>, Option<AggregatorStamp>);

/// Every stream with its key and its records, paths resolved.
fn resolved(dump: &Dump) -> Vec<(Prefix, AsId, Project, Vec<Record>)> {
    dump.streams()
        .map(|(prefix, vp, project, stream)| {
            let records = stream
                .iter()
                .map(|r| {
                    let path = r.path.map(|id| dump.path(id).clone());
                    (r.observed_at, r.exported_at, path, r.aggregator)
                })
                .collect();
            (prefix, vp, project, records)
        })
        .collect()
}

/// Equal ids ⇔ equal paths, and the table holds only paths records name.
fn assert_ids_name_paths_one_to_one(dump: &Dump) {
    let ids: BTreeSet<PathId> = dump
        .streams()
        .flat_map(|(.., stream)| stream.iter().filter_map(|r| r.path))
        .collect();
    let paths: BTreeSet<&CleanPath> = ids.iter().map(|&id| dump.path(id)).collect();
    assert_eq!(ids.len(), paths.len(), "two ids name one path");
    let section = dump.obs_section();
    let counted = section.get("paths");
    assert_eq!(counted, Some(&obs::Value::Counter(ids.len() as u64)));
}

/// The whole run's tap log, one-shot collection's dump and fault
/// counters, and what collection needs to start again.
struct Run {
    taps: Vec<TapRecord>,
    collectors: CollectorSet,
    config: ExperimentConfig,
    horizon: SimTime,
    plan: Option<FaultPlan>,
    dump: Dump,
    /// Collection's fault counters.
    counters: FaultCounters,
    /// The network's (session resets, updates dropped on down sessions).
    network_counters: FaultCounters,
}

fn run(config: ExperimentConfig) -> Run {
    let (mut net, campaign, collectors) = campaign(&config);
    let schedules: Vec<&BeaconSchedule> = campaign.beacon_schedules().collect();
    let horizon = horizon(&schedules);
    let plan = plan(&config, &mut net, horizon);
    net.run_to_quiescence();
    let taps = net.take_tap_log();
    let network_counters = net.fault_counters().clone();
    let mut counters = FaultCounters::default();
    let dump = collectors.process_with_faults(
        &taps,
        &config.collector,
        horizon,
        plan.as_ref(),
        &mut counters,
    );
    Run {
        taps,
        collectors,
        config,
        horizon,
        plan,
        dump,
        counters,
        network_counters,
    }
}

impl Run {
    /// Collect the taps in the slices `ends` cuts them into (each end an
    /// exclusive index; the last slice runs to the log's end), each
    /// slice freshly allocated and dropped once pushed.
    fn sliced(&self, ends: impl IntoIterator<Item = usize>) -> (Dump, FaultCounters, usize) {
        let mut collection =
            self.collectors
                .collection(&self.config.collector, self.horizon, self.plan.as_ref());
        let mut start = 0;
        let mut slices = 0;
        for end in ends.into_iter().chain([self.taps.len()]) {
            let end = end.clamp(start, self.taps.len());
            collection.push(&reallocated(&self.taps[start..end]));
            start = end;
            slices += 1;
        }
        let mut counters = FaultCounters::default();
        let dump = collection.finish(&mut counters);
        (dump, counters, slices)
    }

    fn assert_same(&self, what: &str, (dump, counters, _): (Dump, FaultCounters, usize)) {
        assert_eq!(resolved(&dump), resolved(&self.dump), "{what}: streams");
        assert_eq!(dump.vp_outages(), self.dump.vp_outages(), "{what}: outages");
        assert_eq!(counters, self.counters, "{what}: fault counters");
        assert_ids_name_paths_one_to_one(&dump);
    }
}

#[test]
fn any_cutting_of_the_tap_log_collects_the_one_shot_dump() {
    for (name, config) in configs() {
        let run = run(config);
        assert!(run.dump.len() > 1000, "{name}: too few records to cut");
        if run.plan.is_some() {
            assert!(
                run.counters.total() > 0,
                "{name}: the drill injected nothing"
            );
        }
        assert_ids_name_paths_one_to_one(&run.dump);

        let n = run.taps.len();
        let one_at_a_time = run.sliced(1..n);
        assert_eq!(one_at_a_time.2, n, "{name}: one slice per tap");
        run.assert_same(&format!("{name}, one tap at a time"), one_at_a_time);
        run.assert_same(
            &format!("{name}, every 97 taps"),
            run.sliced((97..n).step_by(97)),
        );
        let hours = (1..)
            .map(|h| SimTime::ZERO + SimDuration::from_hours(h))
            .take_while(|&cut| cut <= run.horizon)
            .map(|cut| run.taps.partition_point(|t| t.time <= cut));
        let hourly = run.sliced(hours);
        assert!(hourly.2 > 5, "{name}: the campaign spans hours");
        run.assert_same(&format!("{name}, every simulated hour"), hourly);
    }
}

#[test]
fn measure_equals_the_one_shot_pipeline_on_an_identical_network() {
    for (name, config) in configs() {
        let (net, campaign, collectors) = self::campaign(&config);
        let schedules: Vec<&BeaconSchedule> = campaign.beacon_schedules().collect();
        let m = measure(
            net,
            &schedules,
            &collectors,
            &config.collector,
            &config.labeling,
            config.faults.as_ref(),
            false,
        );
        assert!(m.collect_slices > 5, "{name}: measure collected in slices");

        let one_shot = run(config.clone());
        let mut want_counters = one_shot.network_counters.clone();
        want_counters.add(&one_shot.counters);
        let labels: Vec<_> = schedules
            .iter()
            .flat_map(|s| {
                label_dump_with_outages(
                    &one_shot.dump,
                    s,
                    &config.labeling,
                    one_shot.dump.vp_outages(),
                )
            })
            .collect();

        assert_eq!(resolved(&m.dump), resolved(&one_shot.dump), "{name}: dump");
        assert_eq!(m.dump.vp_outages(), one_shot.dump.vp_outages());
        assert_eq!(m.fault_counters, want_counters, "{name}: fault counters");
        assert!(!labels.is_empty(), "{name}: nothing labeled");
        assert_eq!(m.labels, labels, "{name}: labels");
    }
}
