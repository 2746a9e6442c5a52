//! The AS-701 case: pinpointing an *inconsistently* damping AS.
//!
//! Reproduces §5.1's running example: an AS that damps every neighbor
//! except one. Its marginal posterior is dragged towards zero by the many
//! clean paths through the spared neighbor — yet the damped paths need an
//! explanation, and the Eq.-8 pass finds it by asking, per unexplained
//! path, which AS the joint posterior most often blames.
//!
//! The topology mirrors the structural features that make the real case
//! identifiable: AS 701 feeds the route collectors directly (big transits
//! peer with collector projects), each damped neighbor also has a clean
//! second provider (so it is independently exonerated), and the spared
//! neighbor AS 2497 carries the majority of 701's paths.
//!
//! Run with: `cargo run --release --example inconsistent_damping`

use beacon::BeaconSchedule;
use because::{Analysis, AnalysisConfig, NodeId};
use bgpsim::{AsId, Network, NetworkConfig, Relationship, SessionPolicy, VendorProfile};
use collector::{CollectorConfig, CollectorSet, Project};
use experiments::infer::path_data;
use experiments::pipeline::measure;
use netsim::{SimDuration, SimTime};
use signature::LabelingConfig;

fn schedule(site: u32, prefix: &str) -> BeaconSchedule {
    BeaconSchedule::standard(
        prefix.parse().unwrap(),
        AsId(site),
        SimDuration::from_mins(1),
        SimDuration::from_hours(2),
        SimTime::ZERO,
        10,
    )
}

fn main() {
    let cisco = VendorProfile::Cisco.params();
    let cust = SessionPolicy::plain(Relationship::Customer);
    let prov = SessionPolicy::plain(Relationship::Provider);
    let mut net = Network::new(NetworkConfig {
        jitter: 0.2,
        seed: 2020,
        ..Default::default()
    });

    // AS 701 damps its sessions from 3356/1299/6453, spares 2497.
    let damped = [3356u32, 1299, 6453];
    for (i, &x) in damped.iter().enumerate() {
        net.connect(AsId(65000 + 10 * i as u32), AsId(x), prov, cust, None);
        net.connect(AsId(x), AsId(701), prov, cust.with_rfd(cisco), None);
        net.connect(AsId(902 + i as u32), AsId(x), prov, cust, None); // VP below x
        net.connect(AsId(x), AsId(10), prov, cust, None); // clean bypass provider
    }
    net.connect(AsId(930), AsId(10), prov, cust, None); // VP below the bypass
    net.connect(AsId(65002), AsId(2497), prov, cust, None); // spared neighbor's site
    net.connect(AsId(2497), AsId(701), prov, cust, None);
    net.connect(AsId(906), AsId(2497), prov, cust, None); // VP below 2497

    let vps: Vec<AsId> = [701u32, 902, 903, 904, 906, 930]
        .iter()
        .map(|&v| AsId(v))
        .collect();
    for &vp in &vps {
        net.attach_tap(vp);
    }

    let schedules = [
        schedule(65000, "10.0.0.0/24"),
        schedule(65010, "10.0.10.0/24"),
        schedule(65020, "10.0.20.0/24"),
        schedule(65002, "10.0.2.0/24"),
        schedule(65002, "10.0.3.0/24"),
        schedule(65002, "10.0.4.0/24"),
        schedule(65002, "10.0.5.0/24"),
    ];
    for s in &schedules {
        s.apply(&mut net);
    }
    println!("simulating 10 Burst–Break pairs over 7 beacon prefixes…");
    let schedule_refs: Vec<&BeaconSchedule> = schedules.iter().collect();
    let labels = measure(
        net,
        &schedule_refs,
        &CollectorSet::single(&vps, Project::RipeRis),
        &CollectorConfig::clean(),
        &LabelingConfig::default(),
        None,
        false,
    )
    .labels;

    let damped_count = labels.iter().filter(|l| l.rfd).count();
    println!(
        "labeled paths: {} ({} show the RFD signature)",
        labels.len(),
        damped_count
    );

    let sites: Vec<NodeId> = schedules.iter().map(|s| NodeId(s.site.0)).collect();
    let data = path_data(&labels, &sites);
    let analysis = Analysis::run(&data, &AnalysisConfig::fast(2020));

    println!("\nper-AS verdicts:");
    for r in &analysis.reports {
        println!(
            "  AS{:<6} mean {:.2}  C{}{}",
            r.id,
            r.mean(),
            r.category.value(),
            if r.flagged_inconsistent {
                "  ← inconsistent damper found via Eq. 8"
            } else {
                ""
            }
        );
    }
    let r701 = analysis.report(NodeId(701)).expect("701 measured");
    println!(
        "\nAS701: marginal mean {:.2} (dragged down by the spared neighbor's clean paths),",
        r701.mean()
    );
    println!(
        "       final category C{} — flagged by the Eq.-8 pass with P = {:.2}",
        r701.category.value(),
        r701.pinpoint_prob.unwrap_or(f64::NAN)
    );
    assert!(r701.is_property(), "the pinpoint pass should flag AS701");
    assert!(r701.flagged_inconsistent);
}
