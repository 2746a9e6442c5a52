//! The simulator's path boundary. Inside a prefix lane a route carries
//! its AS path as an id into the lane's hash-consed path arena; a path
//! becomes an `AsPath` only where it leaves the lane: in a tap record
//! (built once per distinct path and shared) and in `Network::best`
//! (built on request). This test holds a drilled tiny campaign, run to
//! quiescence, to the two sides agreeing, and every path to being the
//! path a route really took.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use beacon::Campaign;
use bgpsim::router::Selection;
use bgpsim::{AsId, AsPath, Network, NetworkConfig, Prefix, TapRecord};
use collector::clean_path;
use experiments::pipeline::ExperimentConfig;
use experiments::Deployment;
use netsim::faults::{FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};

/// The tiny campaign over three intervals and two cycles under the fault
/// drill, simulated to quiescence; also returns the vantage points and
/// beacon sites.
fn drilled_campaign() -> (Network, Vec<AsId>, Vec<AsId>) {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    let topology = topology::generate(&config.topology);
    let deployment = Deployment::assign(&topology, &config.deployment);
    let net_config = NetworkConfig {
        jitter: 0.5,
        ..NetworkConfig::realistic(config.seed)
    };
    let mut net = topology.instantiate(net_config, deployment.policy_hook());
    // The sweep below reads every router's selection.
    for asn in net.as_ids() {
        net.observe(asn);
    }
    let campaign = Campaign::new(
        &topology.beacon_sites,
        &config.intervals,
        config.break_duration,
        SimTime::ZERO,
        config.cycles,
    );
    campaign.apply(&mut net);
    let plan = FaultPlan::new(FaultSpec::drill(2020));
    net.apply_faults(&plan, campaign.end() - SimTime::ZERO);
    net.run_to_quiescence();
    (
        net,
        topology.vantage_points.clone(),
        topology.beacon_sites.clone(),
    )
}

#[test]
fn tap_records_agree_with_the_materialized_best_routes() {
    let (net, vantage_points, sites) = drilled_campaign();
    assert!(net.fault_counters().session_resets > 0, "the drill resets");
    let suppressions: u64 = net.stats().rfd.values().map(|p| p.suppressions).sum();
    assert!(suppressions > 0, "the campaign exercises RFD");

    let log = net.tap_log();
    let prefixes: BTreeSet<Prefix> = log.iter().map(|r| r.prefix).collect();
    assert!(prefixes.len() > 1, "several prefix lanes");
    let mut last: BTreeMap<(AsId, Prefix), &TapRecord> = BTreeMap::new();
    for record in log {
        last.insert((record.vantage, record.prefix), record);
    }

    // At quiescence, a VP's last tap record for a prefix is its current
    // best route in exported view (or no record and no route).
    let mut compared = 0;
    for &vp in &vantage_points {
        for &prefix in &prefixes {
            let best = net.best(vp, prefix);
            let expected = best.as_ref().map(|s| s.exported_view(vp));
            let tapped = last.get(&(vp, prefix)).and_then(|r| r.route.clone());
            assert_eq!(tapped, expected, "{vp} {prefix}: last tap vs best");
            compared += usize::from(expected.is_some());
        }
    }
    assert!(compared > vantage_points.len(), "most VPs hold routes");

    // Every tapped path starts at its VP and ends at a beacon site, and
    // within a prefix equal paths share one allocation.
    let mut shared: HashMap<(Prefix, AsPath), *const AsId> = HashMap::new();
    for record in log {
        let Some(route) = &record.route else { continue };
        let asns = route.path.asns();
        assert_eq!(asns.first(), Some(&record.vantage), "{record:?}");
        let origin = route.path.origin().expect("a tapped path is not empty");
        assert!(sites.contains(&origin), "{record:?} ends off-site");
        let at = *shared
            .entry((record.prefix, route.path.clone()))
            .or_insert(asns.as_ptr());
        assert_eq!(at, asns.as_ptr(), "{record:?}: an equal path built twice");
    }
    assert!(shared.len() < log.len(), "some tapped paths repeat");

    // Every router's selection, built from its lane: learned from the
    // path's first hop, loop-free, originated at a beacon site.
    for asn in net.as_ids() {
        for &prefix in &prefixes {
            match net.best(asn, prefix) {
                Some(Selection::Learned { neighbor, route }) => {
                    assert_eq!(route.path.asns().first(), Some(&neighbor));
                    assert!(!route.path.contains(asn), "{asn} {prefix}: loop");
                    assert!(clean_path(&route.path).is_some(), "{asn} {prefix}: loop");
                    assert!(sites.contains(&route.path.origin().unwrap()));
                }
                Some(Selection::Local { .. }) => assert!(sites.contains(&asn)),
                None => {}
            }
        }
    }
}
