//! Fig. 5 — the Beacon pattern and the RFD signature.
//!
//! Builds a minimal network: a beacon site feeding two parallel chains to
//! one vantage point, one chain damping (Cisco defaults) and the other
//! clean. Runs one Burst–Break pair at a 1-minute interval and prints the
//! update timeline observed at the vantage point for each path, plus the
//! measured r-delta — the damped path's delayed re-advertisement.

use beacon::BeaconSchedule;
use bgpsim::{AsId, Network, NetworkConfig, Relationship, SessionPolicy, VendorProfile};
use collector::{CollectorConfig, CollectorSet, Project};
use netsim::{SimDuration, SimTime};
use signature::LabelingConfig;

use super::{io, Suite, Write};
use crate::pipeline::measure;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    // Topology: beacon AS 65000 → AS 10 → {AS 21 (damps), AS 22 (clean)} → VPs 31/32.
    let mut net = Network::new(NetworkConfig {
        jitter: 0.2,
        seed: suite.seed(),
        ..Default::default()
    });
    let cust = SessionPolicy::plain(Relationship::Customer);
    let prov = SessionPolicy::plain(Relationship::Provider);
    net.connect(AsId(65000), AsId(10), prov, cust, None);
    net.connect(
        AsId(10),
        AsId(21),
        prov,
        cust.with_rfd(VendorProfile::Cisco.params()),
        None,
    );
    net.connect(AsId(10), AsId(22), prov, cust, None);
    net.connect(AsId(21), AsId(31), prov, cust, None);
    net.connect(AsId(22), AsId(32), prov, cust, None);
    net.attach_tap(AsId(31));
    net.attach_tap(AsId(32));

    let schedule = BeaconSchedule::standard(
        "10.0.0.0/24".parse().unwrap(),
        AsId(65000),
        SimDuration::from_mins(1),
        SimDuration::from_hours(2),
        SimTime::ZERO,
        1,
    );
    schedule.apply(&mut net);
    let m = measure(
        net,
        &[&schedule],
        &CollectorSet::single(&[AsId(31), AsId(32)], Project::Isolario),
        &CollectorConfig::clean(),
        &LabelingConfig::default(),
        suite.faults(),
        suite.sim_trace_enabled(),
    );

    let burst_end = schedule.burst_end(0);
    writeln!(
        w,
        "burst: {} .. {} (update interval 1 min)",
        schedule.burst_start(0),
        burst_end
    )?;
    writeln!(w)?;
    for (vp, name) in [
        (AsId(31), "RFD path (via damping AS 21)"),
        (AsId(32), "non-RFD path (via AS 22)"),
    ] {
        writeln!(w, "--- {name} ---")?;
        let records = m
            .dump
            .streams_of(schedule.prefix)
            .find(|s| s.1 == vp)
            .map_or(&[][..], |s| s.3);
        let during_burst = records
            .iter()
            .filter(|r| r.exported_at <= burst_end)
            .count();
        writeln!(w, "updates seen during burst: {during_burst}")?;
        for r in records.iter().rev().take(3).rev() {
            writeln!(
                w,
                "  {}  {}",
                r.exported_at,
                if r.is_announcement() {
                    "announce"
                } else {
                    "withdraw"
                }
            )?;
        }
        writeln!(w)?;
    }

    writeln!(w, "path labels:")?;
    for l in &m.labels {
        let fmt = |v: Option<f64>| {
            v.map(|mins| format!("{mins:.1} min"))
                .unwrap_or_else(|| "-".to_string())
        };
        writeln!(
            w,
            "  {}  rfd={}  pairs {}/{}  r-delta {} (from last update, §4.2), {} (from burst end, Fig. 13){}",
            l.path,
            l.rfd,
            l.pairs_matching,
            l.pairs_total,
            fmt(l.mean_r_delta_mins()),
            fmt(l.mean_break_delta_mins()),
            if l.unobservable { "  [unobservable]" } else { "" }
        )?;
    }
    suite.report_mut().merge(m.report);
    suite.merge_trace(m.trace);
    Ok(())
}
