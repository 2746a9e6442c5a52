//! Exact-value pins and lane invariants of the measurement pipeline.
//!
//! `pipeline_is_deterministic_end_to_end` compares two runs of the same
//! build, so it cannot catch a change that reorders simulator events the
//! same way every time. The pin tests compare one run against numbers
//! recorded from a known-good build instead: the simulator's event,
//! delivery and elided-delivery counts, the number of labeled paths, and
//! an FNV-1a digest of the labels' `Debug` form. Any change to event
//! order, to an RNG draw or to a labeling decision moves at least one of
//! them.
//!
//! Re-record the constants only for a deliberate, documented change of
//! simulator semantics. The delivery counts and the label fields were
//! last re-recorded when each prefix got its own simulation lane
//! (per-prefix jitter streams and FIFO horizons). The event counts were
//! re-recorded when deliveries to sinks (routers nobody observes) came
//! to be counted instead of simulated: they count work that no longer
//! happens, while the deliveries and labels stayed the same.
//!
//! The lane tests pin what makes the simulator's output independent of
//! the number of cores that ran it: a prefix simulates the same alone as
//! inside the campaign, and cutting a run into slices changes nothing.

use beacon::Campaign;
use bgpsim::{Network, NetworkConfig, Prefix};
use experiments::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};
use experiments::Deployment;
use netsim::faults::{FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(events_processed, updates_delivered, deliveries_elided, label
/// count, label digest)`.
fn pins(out: &CampaignOutput) -> (u64, u64, u64, usize, u64) {
    let digest = fnv1a(format!("{:?}", out.labels).as_bytes());
    let elided = match out
        .report
        .get("bgpsim.network")
        .and_then(|section| section.get("deliveries_elided"))
    {
        Some(&obs::Value::Counter(n)) => n,
        other => panic!("no deliveries_elided counter: {other:?}"),
    };
    (
        out.events_processed,
        out.updates_delivered,
        elided,
        out.labels.len(),
        digest,
    )
}

/// The tiny campaign over three intervals and two cycles, with the fault
/// drill (session resets among its faults).
fn drill_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    config.faults = Some(FaultSpec::drill(2020));
    config
}

/// The network `run_campaign` simulates for `config`, before the run:
/// the schedules of every campaign prefix (or of `only`) and the fault
/// plan's session resets applied.
fn campaign_network(config: &ExperimentConfig, only: Option<Prefix>) -> (Network, Campaign) {
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
    match only {
        None => campaign.apply(&mut net),
        Some(prefix) => campaign
            .schedule_for(prefix)
            .expect("a beacon prefix")
            .apply(&mut net),
    }
    if let Some(spec) = &config.faults {
        let plan = FaultPlan::new(spec.clone());
        net.apply_faults(&plan, campaign.end() - SimTime::ZERO);
    }
    (net, campaign)
}

#[test]
fn fault_free_tiny_campaign_matches_recorded_pins() {
    let out = run_campaign(&ExperimentConfig::small(1, 2020));
    assert_eq!(
        pins(&out),
        (29_716, 64_221, 37_718, 11, 0x35b0_8dd0_eb36_e213),
        "fault-free tiny campaign drifted from its recorded pins"
    );
}

#[test]
fn drill_tiny_campaign_matches_recorded_pins() {
    let out = run_campaign(&drill_config());
    assert!(
        out.fault_counters.session_resets > 0,
        "the drill must exercise session resets"
    );
    assert_eq!(
        pins(&out),
        (40_213, 73_830, 37_527, 36, 0xf43e_d98c_6070_02c5),
        "drill tiny campaign drifted from its recorded pins"
    );
}

#[test]
fn each_beacon_prefix_simulates_the_same_alone_and_in_the_campaign() {
    let config = drill_config();
    let (mut full, campaign) = campaign_network(&config, None);
    full.run_to_quiescence();
    assert!(full.fault_counters().session_resets > 0);
    let mut suppressions = 0;
    for schedule in campaign.beacon_schedules() {
        let prefix = schedule.prefix;
        let (mut alone, _) = campaign_network(&config, Some(prefix));
        alone.run_to_quiescence();
        let in_campaign: Vec<_> = full
            .tap_log()
            .iter()
            .filter(|r| r.prefix == prefix)
            .cloned()
            .collect();
        assert!(!in_campaign.is_empty(), "{prefix} reached no vantage point");
        assert_eq!(in_campaign, alone.take_tap_log(), "{prefix}: tap records");
        let stats = full.prefix_stats(prefix).expect("scheduled");
        assert_eq!(stats, alone.stats(), "{prefix}: deliveries and RFD stats");
        assert_eq!(stats.delivered(), alone.delivered());
        suppressions += stats.rfd.values().map(|p| p.suppressions).sum::<u64>();
    }
    assert!(suppressions > 0, "the drill must exercise RFD");
}

#[test]
fn slicing_the_run_at_burst_and_break_boundaries_changes_nothing() {
    let config = drill_config();
    let (mut whole, campaign) = campaign_network(&config, None);
    whole.run_to_quiescence();

    // The cuts e2ebench's traced replay makes: every beacon runs on one
    // clock, so the first schedule's boundaries cut the whole campaign.
    let schedule = campaign.beacon_schedules().next().expect("beacons");
    let mut cuts = vec![schedule.burst_start(0)];
    for i in 0..schedule.cycles {
        cuts.push(schedule.burst_end(i));
        cuts.push(schedule.break_end(i));
    }
    cuts.push(SimTime::MAX);
    let (mut sliced, _) = campaign_network(&config, None);
    let events: u64 = cuts.into_iter().map(|until| sliced.run_until(until)).sum();

    assert_eq!(events, whole.events_processed());
    assert_eq!(sliced.events_processed(), whole.events_processed());
    assert_eq!(sliced.delivered(), whole.delivered());
    assert_eq!(sliced.stats(), whole.stats());
    assert_eq!(sliced.fault_counters(), whole.fault_counters());
    assert_eq!(sliced.tap_log(), whole.tap_log());
}
