//! The routing oracle: what every router selects once the network is
//! quiet, computed from the Gao–Rexford model alone and held against the
//! simulator.
//!
//! Under valley-free export with an acyclic provider graph, a prefix
//! has exactly one stable routing state, and three breadth-first phases
//! build it. Customer routes climb the provider edges from the origin;
//! ASs still without a route then take one peer hop from an AS holding
//! a customer (or its own) route; provider routes then descend the
//! customer edges from every AS that holds any route. Each phase visits
//! offers by (path length, neighbour ASN), the decision ladder's order
//! after the relationship's preference. The reference shares no code with
//! the simulator, so a simulator that picks another route at quiescence,
//! or a sink predicate that leaves unsimulated a router a vantage point
//! hears from, fails here.

use std::collections::{BTreeMap, BTreeSet};

use beacon::Campaign;
use bgpsim::{AsId, Network, NetworkConfig, Prefix, Relationship};
use experiments::{Deployment, DeploymentConfig, ExperimentConfig};
use netsim::faults::{FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};
use topology::{generate, Topology, TopologyConfig};

/// Each AS's neighbours by the relationship the AS sees them in,
/// ascending by ASN.
fn neighbours(topology: &Topology, rel: Relationship) -> BTreeMap<AsId, BTreeSet<AsId>> {
    let mut out: BTreeMap<AsId, BTreeSet<AsId>> = topology
        .ases
        .iter()
        .map(|a| (a.id, BTreeSet::new()))
        .collect();
    for l in &topology.links {
        if l.rel_at_a == rel {
            out.get_mut(&l.a).unwrap().insert(l.b);
        }
        if l.rel_at_a == reversed(rel) {
            out.get_mut(&l.b).unwrap().insert(l.a);
        }
    }
    out
}

fn reversed(rel: Relationship) -> Relationship {
    match rel {
        Relationship::Customer => Relationship::Provider,
        Relationship::Peer => Relationship::Peer,
        Relationship::Provider => Relationship::Customer,
    }
}

/// One phase: every AS in `from` offers its route to its `rel`
/// neighbours that have none; an AS takes the shortest offer, the lowest
/// offering ASN among equals. With `once`, offers travel a single hop
/// and only from `from`; otherwise every AS that takes a route offers it
/// on in turn.
fn spread(
    routes: &mut BTreeMap<AsId, Vec<AsId>>,
    from: &BTreeSet<AsId>,
    edges: &BTreeMap<AsId, BTreeSet<AsId>>,
    once: bool,
) {
    // Offering ASs by the length of the route they export.
    let mut by_len: BTreeMap<usize, BTreeSet<AsId>> = BTreeMap::new();
    for asn in from {
        by_len.entry(routes[asn].len()).or_default().insert(*asn);
    }
    while let Some((len, offering)) = by_len.pop_first() {
        let mut taken: BTreeMap<AsId, AsId> = BTreeMap::new();
        for &n in &offering {
            for &x in &edges[&n] {
                if !routes.contains_key(&x) {
                    taken.entry(x).or_insert(n);
                }
            }
        }
        for (x, n) in taken {
            let mut path = vec![x];
            path.extend_from_slice(&routes[&n]);
            routes.insert(x, path);
            if !once {
                by_len.entry(len + 1).or_default().insert(x);
            }
        }
    }
}

/// Every AS's converged route for a prefix originated at `origin`, as
/// the AS exports it: its own ASN first, the origin last.
fn reference(topology: &Topology, origin: AsId) -> BTreeMap<AsId, Vec<AsId>> {
    let mut routes = BTreeMap::from([(origin, vec![origin])]);
    // Customer routes, up the provider edges.
    spread(
        &mut routes,
        &BTreeSet::from([origin]),
        &neighbours(topology, Relationship::Provider),
        false,
    );
    // One peer hop from an AS holding its own or a customer route.
    let customer_routes: BTreeSet<AsId> = routes.keys().copied().collect();
    spread(
        &mut routes,
        &customer_routes,
        &neighbours(topology, Relationship::Peer),
        true,
    );
    // Provider routes, down the customer edges from every routed AS.
    let routed: BTreeSet<AsId> = routes.keys().copied().collect();
    spread(
        &mut routes,
        &routed,
        &neighbours(topology, Relationship::Customer),
        false,
    );
    routes
}

/// Whether the customer → provider edges form no cycle (Kahn's
/// algorithm): the condition under which the stable state is unique.
fn provider_graph_is_acyclic(topology: &Topology) -> bool {
    let providers = neighbours(topology, Relationship::Provider);
    let customers = neighbours(topology, Relationship::Customer);
    let mut pending: BTreeMap<AsId, usize> = customers.iter().map(|(&a, c)| (a, c.len())).collect();
    let mut ready: Vec<AsId> = pending
        .iter()
        .filter(|&(_, &n)| n == 0)
        .map(|(&a, _)| a)
        .collect();
    let mut seen = 0;
    while let Some(asn) = ready.pop() {
        seen += 1;
        for p in &providers[&asn] {
            let n = pending.get_mut(p).unwrap();
            *n -= 1;
            if *n == 0 {
                ready.push(*p);
            }
        }
    }
    seen == topology.ases.len()
}

/// What `asn` selects for `prefix`, as it would export it.
fn selected(net: &Network, asn: AsId, prefix: Prefix) -> Option<Vec<AsId>> {
    let best = net.best(asn, prefix)?;
    Some(best.exported_view(asn).path.asns().to_vec())
}

/// Assert that every AS in `readers` selects its reference route for
/// each `(origin, prefix)`; returns how many selections were compared.
fn assert_reference(
    net: &Network,
    topology: &Topology,
    readers: &[AsId],
    anchors: &[(AsId, Prefix)],
) -> usize {
    let mut compared = 0;
    for &(origin, prefix) in anchors {
        let want = reference(topology, origin);
        for &asn in readers {
            let got = selected(net, asn, prefix);
            assert_eq!(got.as_ref(), want.get(&asn), "{asn} {prefix}");
            compared += usize::from(got.is_some());
        }
    }
    compared
}

/// The small scale's topology (the experiment suite's `small`).
fn small(seed: u64) -> TopologyConfig {
    TopologyConfig {
        n_tier1: 6,
        n_transit: 60,
        n_stub: 150,
        n_beacon_sites: 7,
        n_vantage_points: 40,
        seed,
    }
}

/// Each site's anchor prefix, announced once and run to quiescence
/// under the default deployment (whose MRAI gates defer the updates of
/// path exploration); with `observe_all`, every router is observed.
/// Returns the network and the `(site, prefix)` pairs.
fn converged_anchors(topology: &Topology, observe_all: bool) -> (Network, Vec<(AsId, Prefix)>) {
    let config = NetworkConfig {
        jitter: 0.5,
        seed: 3,
        ..Default::default()
    };
    let deployment = Deployment::assign(topology, &DeploymentConfig::default());
    let mut net = topology.instantiate(config, deployment.policy_hook());
    if observe_all {
        for asn in net.as_ids() {
            net.observe(asn);
        }
    }
    let campaign = Campaign::new(
        &topology.beacon_sites,
        &[SimDuration::from_mins(1)],
        SimDuration::from_hours(2),
        SimTime::ZERO,
        1,
    );
    let anchors: Vec<(AsId, Prefix)> = campaign
        .sites
        .iter()
        .map(|s| (s.site, s.anchor.prefix))
        .collect();
    for &(site, prefix) in &anchors {
        net.schedule_announce(SimTime::ZERO, site, prefix, true);
    }
    net.run_to_quiescence();
    (net, anchors)
}

fn topologies() -> Vec<Topology> {
    let tiny = [1, 7, 2020].map(TopologyConfig::tiny);
    let small = [11, 2020].map(small);
    tiny.iter().chain(&small).map(generate).collect()
}

#[test]
fn the_generated_provider_graphs_are_acyclic() {
    for topology in topologies() {
        assert!(provider_graph_is_acyclic(&topology));
    }
}

#[test]
fn vantage_points_converge_to_the_reference_with_sinks_elided() {
    for topology in topologies() {
        let (net, anchors) = converged_anchors(&topology, false);
        assert!(net.stats().deliveries_elided > 0, "sinks were elided");
        let vps = &topology.vantage_points;
        let compared = assert_reference(&net, &topology, vps, &anchors);
        assert_eq!(compared, vps.len() * anchors.len(), "every VP is routed");
    }
}

#[test]
fn every_router_converges_to_the_reference_when_all_are_observed() {
    for topology in topologies() {
        let (net, anchors) = converged_anchors(&topology, true);
        assert_eq!(net.stats().deliveries_elided, 0);
        let all = net.as_ids();
        let compared = assert_reference(&net, &topology, &all, &anchors);
        assert_eq!(compared, all.len() * anchors.len(), "every AS is routed");
    }
}

#[test]
fn a_damped_campaign_ends_at_the_reference() {
    for faults in [None, Some(FaultSpec::drill(2020))] {
        let mut config = ExperimentConfig::small(1, 2020);
        config.faults = faults;
        let topology = generate(&config.topology);
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
        if let Some(spec) = &config.faults {
            let plan = FaultPlan::new(spec.clone());
            net.apply_faults(&plan, campaign.end() - SimTime::ZERO);
        }
        // Quiescence is past the last suppression's release: a pending
        // reuse timer is an event.
        net.run_to_quiescence();
        let suppressions: u64 = net.stats().rfd.values().map(|p| p.suppressions).sum();
        assert!(suppressions > 0, "the campaign exercises RFD");

        // Every burst ends on an announcement; every anchor cycle ends on
        // a withdrawal.
        let beacons: Vec<(AsId, Prefix)> = campaign
            .beacon_schedules()
            .map(|b| (b.site, b.prefix))
            .collect();
        let vps = &topology.vantage_points;
        let compared = assert_reference(&net, &topology, vps, &beacons);
        assert_eq!(compared, vps.len() * beacons.len());
        for site in &campaign.sites {
            for &vp in vps {
                assert_eq!(selected(&net, vp, site.anchor.prefix), None);
            }
        }
    }
}
