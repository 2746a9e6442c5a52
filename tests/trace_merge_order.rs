//! A traced run is the untraced run, with its lane traces merged in
//! prefix order.
//!
//! The simulator runs its prefix lanes in parallel whether or not a
//! trace is attached; each lane traces into its own buffer, and every
//! `run_until` merges the buffers into the network's trace lane by lane,
//! in ascending prefix order. These tests run the tiny campaign under
//! the fault drill, cut into the slices `measure` cuts it into, and
//! check that within each slice the RFD trace lanes' events come in
//! ascending prefix order, and that tracing changes neither the tap log,
//! the fault counters nor the labels.

use beacon::{BeaconSchedule, Campaign};
use bgpsim::{Network, NetworkConfig, Prefix, TapRecord};
use collector::CollectorSet;
use experiments::pipeline::{collection_cuts, measure, ExperimentConfig};
use experiments::Deployment;
use netsim::faults::{FaultCounters, FaultPlan, FaultSpec};
use netsim::SimTime;

/// The tiny campaign with the fault drill.
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small(1, 2020);
    config.faults = Some(FaultSpec::drill(2020));
    config
}

/// The network `run_campaign` measures for `config`, its schedules
/// applied, with the collectors and the campaign end.
fn campaign(config: &ExperimentConfig) -> (Network, Campaign, CollectorSet, SimTime) {
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
    let horizon = campaign
        .beacon_schedules()
        .fold(SimTime::ZERO, |h, s| h.max(s.end()));
    let collectors = CollectorSet::assign(&topology.vantage_points, config.seed);
    (net, campaign, collectors, horizon)
}

/// One slice's trace: the prefix of every RFD-lane event, in order.
type SliceTrace = Vec<Prefix>;

/// Run the drilled campaign in `measure`'s slices; with `traced`, attach
/// a fresh trace to each slice and keep its RFD events' prefixes.
fn run(traced: bool) -> (Vec<TapRecord>, FaultCounters, Vec<SliceTrace>) {
    let config = config();
    let (mut net, _, _, horizon) = campaign(&config);
    let plan = FaultPlan::new(config.faults.clone().expect("drilled"));
    net.apply_faults(&plan, horizon - SimTime::ZERO);
    let mut slices = Vec::new();
    for cut in collection_cuts(horizon) {
        if traced {
            net.set_trace(obs::TraceBuffer::new(1 << 20));
        }
        net.run_until(cut);
        let Some(trace) = net.take_trace() else {
            continue;
        };
        assert_eq!(trace.dropped(), 0, "the ring holds the whole slice");
        let prefixes = trace
            .events()
            .filter_map(|e| trace.lane_name(e.lane)?.strip_prefix("rfd "))
            .map(|name| {
                let prefix = name.rsplit(' ').next().expect("the lane names a prefix");
                prefix.parse().expect("a prefix")
            })
            .collect();
        slices.push(prefixes);
    }
    (net.take_tap_log(), net.fault_counters().clone(), slices)
}

#[test]
fn lane_traces_merge_in_ascending_prefix_order() {
    let (taps, counters, slices) = run(true);
    assert!(slices.len() > 5, "the campaign spans several slices");
    let mut interleaved = 0;
    for (k, slice) in slices.iter().enumerate() {
        assert!(
            slice.windows(2).all(|w| w[0] <= w[1]),
            "slice {k}: RFD events out of prefix order"
        );
        interleaved += usize::from(slice.first() != slice.last());
    }
    assert!(interleaved > 1, "few slices trace RFD on two prefixes");

    let (plain_taps, plain_counters, plain_slices) = run(false);
    assert!(plain_slices.is_empty());
    assert!(counters.total() > 0, "the drill injected nothing");
    assert_eq!(taps, plain_taps, "tap log");
    assert_eq!(counters, plain_counters, "fault counters");
}

#[test]
fn tracing_changes_no_label() {
    let config = config();
    let measure = |traced: bool| {
        let (net, campaign, collectors, _) = campaign(&config);
        let schedules: Vec<&BeaconSchedule> = campaign.beacon_schedules().collect();
        measure(
            net,
            &schedules,
            &collectors,
            &config.collector,
            &config.labeling,
            config.faults.as_ref(),
            traced,
        )
    };
    let (traced, plain) = (measure(true), measure(false));
    assert!(traced.trace.is_some_and(|t| !t.is_empty()));
    assert!(!plain.labels.is_empty());
    assert_eq!(traced.labels, plain.labels);
    assert_eq!(traced.fault_counters, plain.fault_counters);
}
