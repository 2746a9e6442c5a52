//! Table 3 — reasons for divergence between pinpointing methods and
//! ground truth, reproduced as scripted micro-scenarios.
//!
//! The paper's divergence cases:
//!
//! * **Verizon / AS 701** — heterogeneous (per-neighbor) configuration:
//!   BeCAUSe finds it via the Eq.-8 pass, the heuristics miss it.
//! * **JINX / AS 37474** — a damper hidden behind an upstream damper:
//!   BeCAUSe says *unsure* (no usable signal reaches it), while the
//!   heuristics (using raw-dump side information) may flag it.
//! * **TekSavvy / AS 5645** — a clean AS whose only upstream damps: the
//!   path-ratio heuristic false-positives it, BeCAUSe correctly keeps it
//!   clean because the likelihood attributes the signal upstream.
//!
//! Each scenario is built as an explicit miniature topology, run end to
//! end, and the verdicts of both methods are compared to the oracle.

use beacon::BeaconSchedule;
use because::{AnalysisConfig, NodeId};
use bgpsim::{AsId, Network, NetworkConfig, Relationship, SessionPolicy, VendorProfile};
use collector::{CollectorConfig, CollectorSet, Project};
use heuristics::HeuristicConfig;
use netsim::{SimDuration, SimTime};
use signature::LabelingConfig;

use super::{io, Suite, Write};
use crate::infer::path_data;
use crate::pipeline::measure;
use crate::report;

/// A standard 1-minute two-phase schedule from `site` for `prefix`.
fn schedule_for(site: AsId, prefix: &str) -> BeaconSchedule {
    BeaconSchedule::standard(
        prefix.parse().unwrap(),
        site,
        SimDuration::from_mins(1),
        SimDuration::from_hours(2),
        SimTime::ZERO,
        // Many Burst–Break pairs sharpen the posterior, standing in for
        // the two months of data behind the paper's Table 3.
        10,
    )
}

/// Run a micro-scenario: build the net, run the given beacon schedules,
/// label, infer with both methods, and report the verdicts for `target`.
fn run_case(
    suite: &mut Suite,
    tag: &str,
    build: impl Fn(&mut Network),
    schedules: &[BeaconSchedule],
    vantage_points: &[AsId],
    target: AsId,
) -> (bool, bool) {
    let mut net = Network::new(NetworkConfig {
        jitter: 0.2,
        seed: suite.seed(),
        ..Default::default()
    });
    build(&mut net);
    for &vp in vantage_points {
        net.attach_tap(vp);
    }
    for s in schedules {
        s.apply(&mut net);
    }
    let schedules: Vec<&BeaconSchedule> = schedules.iter().collect();
    let m = measure(
        net,
        &schedules,
        &CollectorSet::single(vantage_points, Project::Isolario),
        &CollectorConfig::clean(),
        &LabelingConfig::default(),
        None,
        suite.sim_trace_enabled(),
    );
    suite.merge_trace(m.trace);

    // BeCAUSe.
    let sites: Vec<NodeId> = schedules.iter().map(|s| NodeId(s.site.0)).collect();
    let data = path_data(&m.labels, &sites);
    let acfg = AnalysisConfig {
        progress_every: suite.progress_every(),
        trace: suite.chain_trace_enabled(),
        ..AnalysisConfig::fast(suite.seed())
    };
    // Three analyses share this process: tag the checkpoint files so
    // the cases never collide.
    let mut analysis = because::Analysis::run_supervised(&data, &acfg, &suite.supervisor(tag));
    // Three micro-scenarios share the run: the dashboard shows the last.
    suite.analysed(&mut analysis);
    let because_flag = analysis
        .report(NodeId(target.0))
        .map(|r| r.is_property())
        .unwrap_or(false);

    // Heuristics.
    let scores = heuristics::evaluate(&m.labels, &m.dump, &schedules, &HeuristicConfig::default());
    let heuristic_flag = scores
        .per_as
        .get(&target)
        .map(|s| s.is_rfd(HeuristicConfig::default().threshold))
        .unwrap_or(false);

    (because_flag, heuristic_flag)
}

/// Render the table after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let cisco = VendorProfile::Cisco.params();
    let cust = SessionPolicy::plain(Relationship::Customer);
    let prov = SessionPolicy::plain(Relationship::Provider);
    let verdict = |damping: bool, otherwise: &str| -> String {
        if damping { "damping" } else { otherwise }.to_string()
    };
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- Case 1: heterogeneous configuration (AS 701 analogue) ---------
    // AS 701 damps the sessions from three of its customers (3356, 1299,
    // 6453) but not from AS 2497 — "damps all neighbours except AS 2497".
    // As in reality, 701 itself feeds the route collectors (big transits
    // peer with the collector projects directly), each damped neighbor is
    // independently exonerated through a second provider that bypasses
    // 701, and the spared neighbor's site announces four prefixes so the
    // *majority* of paths through 701 stay clean. Result (as in the
    // paper): 701's marginal mean is dragged towards zero by the clean
    // paths — the ratio heuristics miss it — but the Eq.-8 pass flags it
    // as the most likely cause of the damped paths.
    {
        let damped_neighbors = [3356u32, 1299, 6453];
        let (b, h) = run_case(
            suite,
            "verizon",
            |net| {
                for (i, &x) in damped_neighbors.iter().enumerate() {
                    // Site under each damped neighbor, damped at 701.
                    net.connect(AsId(65000 + 10 * i as u32), AsId(x), prov, cust, None);
                    net.connect(AsId(x), AsId(701), prov, cust.with_rfd(cisco), None);
                    // A vantage point directly under the neighbor.
                    net.connect(AsId(902 + i as u32), AsId(x), prov, cust, None);
                    // A second, clean provider bypassing 701.
                    net.connect(AsId(x), AsId(10), prov, cust, None);
                }
                net.connect(AsId(930), AsId(10), prov, cust, None);
                // The spared neighbor and its four-prefix site.
                net.connect(AsId(65002), AsId(2497), prov, cust, None);
                net.connect(AsId(2497), AsId(701), prov, cust, None);
                net.connect(AsId(906), AsId(2497), prov, cust, None);
            },
            &[
                schedule_for(AsId(65000), "10.0.0.0/24"),  // under 3356
                schedule_for(AsId(65010), "10.0.10.0/24"), // under 1299
                schedule_for(AsId(65020), "10.0.20.0/24"), // under 6453
                schedule_for(AsId(65002), "10.0.2.0/24"),
                schedule_for(AsId(65002), "10.0.3.0/24"),
                schedule_for(AsId(65002), "10.0.4.0/24"),
                schedule_for(AsId(65002), "10.0.5.0/24"),
            ],
            &[
                AsId(701),
                AsId(902),
                AsId(903),
                AsId(904),
                AsId(906),
                AsId(930),
            ],
            AsId(701),
        );
        rows.push(vec![
            "Verizon-like (AS 701)".into(),
            AsId(701).to_string(),
            verdict(true, "clean"),
            verdict(b, "clean"),
            verdict(h, "clean"),
            "heterogeneous configuration".into(),
        ]);
    }

    // --- Case 2: damper hidden behind an upstream damper (JINX) --------
    // 65000 → 10 (damps towards 65000? no: 10's provider side) …
    // Chain: 65000 → 20 → 37474, both 20 and 37474 damp; 37474's signal
    // never materialises because 20 already suppresses.
    {
        let (b, h) = run_case(
            suite,
            "jinx",
            |net| {
                net.connect(AsId(65000), AsId(20), prov, cust.with_rfd(cisco), None);
                net.connect(AsId(37474), AsId(20), prov.with_rfd(cisco), cust, None);
                net.connect(AsId(910), AsId(37474), prov, cust, None);
                net.connect(AsId(911), AsId(20), prov, cust, None);
            },
            &[schedule_for(AsId(65000), "10.0.0.0/24")],
            &[AsId(910), AsId(911)],
            AsId(37474),
        );
        rows.push(vec![
            "JINX-like (AS 37474)".into(),
            AsId(37474).to_string(),
            verdict(true, "clean"),
            verdict(b, "unsure/clean"),
            verdict(h, "clean"),
            "upstream uses RFD (shadowed)".into(),
        ]);
    }

    // --- Case 3: clean stub behind a damper (TekSavvy) -----------------
    // 5645 does not damp, but its only upstream 30 does: the path-ratio
    // heuristic sees 100 % RFD paths for 5645.
    {
        let (b, h) = run_case(
            suite,
            "teksavvy",
            |net| {
                net.connect(AsId(65000), AsId(30), prov, cust.with_rfd(cisco), None);
                net.connect(AsId(5645), AsId(30), prov, cust, None);
                net.connect(AsId(920), AsId(5645), prov, cust, None);
                net.connect(AsId(921), AsId(30), prov, cust, None);
            },
            &[schedule_for(AsId(65000), "10.0.0.0/24")],
            &[AsId(920), AsId(921)],
            AsId(5645),
        );
        rows.push(vec![
            "TekSavvy-like (AS 5645)".into(),
            AsId(5645).to_string(),
            verdict(false, "clean"),
            verdict(b, "clean"),
            verdict(h, "clean"),
            "upstream uses RFD (inherited ratio)".into(),
        ]);
    }

    let table = report::table(
        &[
            "case",
            "AS",
            "ground truth",
            "BeCAUSe",
            "heuristics",
            "divergence reason",
        ],
        &rows,
    );
    writeln!(w, "{table}")
}
