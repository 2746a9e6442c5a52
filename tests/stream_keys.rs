//! A dump record carries no stream key: its prefix, its vantage point
//! and that VP's project are kept once, in its stream's header. This
//! test holds a fault-free campaign's dump to that layout: each stream
//! holds exactly its vantage point's tap records for its prefix, matched
//! record for record on observation time, clean path and stamp, and
//! each vantage point's streams name the one project it feeds.

use std::collections::{BTreeMap, BTreeSet};

use beacon::Campaign;
use bgpsim::{AsId, NetworkConfig, Prefix, TapRecord};
use collector::{clean_path, CollectorConfig, CollectorSet, Project};
use experiments::pipeline::ExperimentConfig;
use experiments::Deployment;
use netsim::faults::FaultCounters;
use netsim::{SimDuration, SimTime};

/// What a record keeps of its tap: observation time, clean path and
/// stamp (send time, validity).
type Kept = (SimTime, Option<Vec<AsId>>, Option<(SimTime, bool)>);

/// The `small` campaign over three intervals and two cycles, fault-free,
/// simulated to quiescence: its tap log, vantage points and end.
fn campaign() -> (Vec<TapRecord>, Vec<AsId>, SimTime) {
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
    let campaign = Campaign::new(
        &topology.beacon_sites,
        &config.intervals,
        config.break_duration,
        SimTime::ZERO,
        config.cycles,
    );
    campaign.apply(&mut net);
    net.run_to_quiescence();
    (
        net.take_tap_log(),
        topology.vantage_points.clone(),
        campaign.end(),
    )
}

#[test]
fn every_stream_holds_exactly_its_vantage_points_records_for_its_prefix() {
    let (taps, vantage_points, horizon) = campaign();
    let collectors = CollectorSet::assign(&vantage_points, 2020);
    let dump = collectors.process_with_faults(
        &taps,
        &CollectorConfig::clean(),
        horizon,
        None,
        &mut FaultCounters::default(),
    );

    // Each (prefix, VP)'s taps as the collector keeps them: paths
    // cleaned, looped or empty paths not recorded.
    let mut expected: BTreeMap<(Prefix, AsId), Vec<Kept>> = BTreeMap::new();
    for tap in &taps {
        let (path, stamp) = match &tap.route {
            Some(route) => match clean_path(&route.path) {
                Some(path) => (Some(path.asns().to_vec()), route.aggregator),
                None => continue,
            },
            None => (None, None),
        };
        expected
            .entry((tap.prefix, tap.vantage))
            .or_default()
            .push((tap.time, path, stamp.map(|s| (s.sent_at, s.valid))));
    }

    let mut got: BTreeMap<(Prefix, AsId), Vec<Kept>> = BTreeMap::new();
    let mut projects: BTreeMap<AsId, BTreeSet<Project>> = BTreeMap::new();
    for (prefix, vp, project, stream) in dump.streams() {
        projects.entry(vp).or_default().insert(project);
        let kept = stream.iter().map(|r| {
            let path = r.path.as_ref().map(|p| p.asns().to_vec());
            let stamp = r.aggregator.map(|s| (s.sent_at, s.valid));
            (r.observed_at, path, stamp)
        });
        let previous = got.insert((prefix, vp), kept.collect());
        assert!(previous.is_none(), "({prefix}, {vp}) has two streams");
    }

    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "one stream per (prefix, VP) with records"
    );
    let prefixes: BTreeSet<Prefix> = got.keys().map(|&(p, _)| p).collect();
    assert!(prefixes.len() > 1, "several prefixes");
    for (key, mut records) in got {
        let mut want = expected.remove(&key).expect("keys compared above");
        records.sort();
        want.sort();
        assert_eq!(records, want, "{key:?}: the stream's records");
    }

    // Every registered VP reports, and each names one project; the
    // projects split the VPs as evenly as `assign` does.
    let registered: BTreeSet<AsId> = vantage_points.iter().copied().collect();
    assert!(projects.keys().eq(&registered), "every VP has a stream");
    let mut per_project: BTreeMap<Project, usize> = BTreeMap::new();
    for (vp, named) in &projects {
        assert_eq!(named.len(), 1, "{vp} feeds one project: {named:?}");
        *per_project.entry(*named.first().unwrap()).or_default() += 1;
    }
    assert_eq!(per_project.len(), Project::ALL.len());
    let (lo, hi) = (
        per_project.values().min().unwrap(),
        per_project.values().max().unwrap(),
    );
    assert!(
        hi - lo <= 1,
        "projects split the VPs evenly: {per_project:?}"
    );
}
