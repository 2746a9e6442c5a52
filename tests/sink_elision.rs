//! Sink elision changes nothing anyone reads.
//!
//! A router that is not tapped, not observed and has no customer
//! session exports nothing it learns, so the network counts the
//! deliveries to it instead of simulating them. Observing every router
//! turns that off, which gives the reference: on the drilled tiny
//! campaign the two runs must agree on every tap record, every counter a
//! report reads and every label, while the default run processes fewer
//! events. A sink's RIB is not simulated, so reading it must fail
//! loudly, and so must widening the observed set once a run has started.

use beacon::{BeaconSchedule, Campaign};
use bgpsim::{AsId, Network, NetworkConfig, Prefix, Relationship};
use collector::CollectorSet;
use experiments::pipeline::{measure, ExperimentConfig};
use experiments::Deployment;
use netsim::faults::{FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};
use topology::Topology;

/// The tiny campaign over three intervals and two cycles, with the fault
/// drill.
fn drill_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    config.faults = Some(FaultSpec::drill(2020));
    config
}

/// The drill campaign's network with its schedules applied and, with
/// `observe_all`, every router observed; not yet run.
fn drill_network(config: &ExperimentConfig, observe_all: bool) -> (Network, Campaign, Topology) {
    let topology = topology::generate(&config.topology);
    let deployment = Deployment::assign(&topology, &config.deployment);
    let net_config = NetworkConfig {
        jitter: 0.5,
        ..NetworkConfig::realistic(config.seed)
    };
    let mut net = topology.instantiate(net_config, deployment.policy_hook());
    if observe_all {
        for asn in net.as_ids() {
            net.observe(asn);
        }
    }
    let campaign = Campaign::new(
        &topology.beacon_sites,
        &config.intervals,
        config.break_duration,
        SimTime::ZERO,
        config.cycles,
    );
    campaign.apply(&mut net);
    (net, campaign, topology)
}

#[test]
fn observing_every_router_changes_nothing_but_the_work_done() {
    let config = drill_config();
    let plan = FaultPlan::new(config.faults.clone().unwrap());
    let run = |observe_all: bool| {
        let (mut net, campaign, _) = drill_network(&config, observe_all);
        net.apply_faults(&plan, campaign.end() - SimTime::ZERO);
        net.run_to_quiescence();
        net
    };
    let elided = run(false);
    let full = run(true);

    assert!(
        elided.fault_counters().session_resets > 0,
        "the drill resets"
    );
    assert!(elided.fault_counters().updates_dropped_down > 0);
    assert!(!elided.tap_log().is_empty());
    assert_eq!(elided.tap_log(), full.tap_log());
    assert_eq!(elided.delivered(), full.delivered());
    assert_eq!(
        elided.stats().updates_announced,
        full.stats().updates_announced
    );
    assert_eq!(elided.stats().mrai_deferrals, full.stats().mrai_deferrals);
    assert_eq!(elided.fault_counters(), full.fault_counters());

    assert!(elided.stats().deliveries_elided > 0);
    assert_eq!(full.stats().deliveries_elided, 0);
    assert!(
        elided.events_processed() + elided.stats().deliveries_elided <= full.events_processed(),
        "each elided delivery is an event not processed"
    );

    // The labels, through the whole measurement pipeline.
    let labels = |observe_all: bool| {
        let (net, campaign, topology) = drill_network(&config, observe_all);
        let schedules: Vec<&BeaconSchedule> = campaign.beacon_schedules().collect();
        measure(
            net,
            &schedules,
            &CollectorSet::assign(&topology.vantage_points, config.seed),
            &config.collector,
            &config.labeling,
            config.faults.as_ref(),
            false,
        )
        .labels
    };
    let elided_labels = labels(false);
    assert!(elided_labels.iter().any(|l| l.rfd), "the drill labels RFD");
    assert_eq!(elided_labels, labels(true));
}

/// The drill campaign's network, not yet run, a sink in it (an AS that
/// is not a vantage point and has no customer) and a beacon prefix.
fn network_with_a_sink() -> (Network, AsId, Prefix) {
    let config = drill_config();
    let (net, campaign, topology) = drill_network(&config, false);
    let sink = topology
        .ases
        .iter()
        .map(|a| a.id)
        .find(|&asn| {
            !topology.vantage_points.contains(&asn)
                && topology.links.iter().all(|l| {
                    !(l.a == asn && l.rel_at_a == Relationship::Customer
                        || l.b == asn && l.rel_at_a == Relationship::Provider)
                })
        })
        .expect("a tiny topology has an untapped stub");
    let prefix = campaign.beacon_schedules().next().unwrap().prefix;
    (net, sink, prefix)
}

#[test]
#[should_panic(expected = "unobserved sink")]
fn reading_the_best_route_of_a_sink_panics() {
    let (mut net, sink, prefix) = network_with_a_sink();
    net.run_until(SimTime::from_mins(1));
    net.best(sink, prefix);
}

#[test]
#[should_panic(expected = "unobserved sink")]
fn reading_the_damping_state_of_a_sink_panics() {
    let (mut net, sink, prefix) = network_with_a_sink();
    net.run_until(SimTime::from_mins(1));
    let peer = net.router(sink).unwrap().neighbor_ids()[0];
    net.is_suppressed(sink, peer, prefix);
}

#[test]
fn an_observed_sink_is_simulated() {
    let (mut net, sink, prefix) = network_with_a_sink();
    net.observe(sink);
    net.run_to_quiescence();
    assert!(net.best(sink, prefix).is_some());
}

#[test]
#[should_panic(expected = "fixed once a run starts")]
fn observing_after_the_first_run_panics() {
    let (mut net, sink, _) = network_with_a_sink();
    net.run_until(SimTime::from_mins(1));
    net.observe(sink);
}
