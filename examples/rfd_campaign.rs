//! A complete RFD measurement campaign, end to end.
//!
//! Mirrors the paper's study on a synthetic Internet: grow a topology,
//! plant an RFD deployment (vendor-default heavy, some inconsistent
//! dampers), run two-phase beacons from every site at a 1-minute update
//! interval, label paths by the RFD signature, run BeCAUSe and the three
//! heuristics, and score both against the deployment oracle.
//!
//! Run with: `cargo run --release --example rfd_campaign`

use because::{AnalysisConfig, SupervisorConfig};
use experiments::infer::infer_with_supervision;
use experiments::metrics::evaluate_against_oracle;
use experiments::pipeline::{run_campaign, ExperimentConfig};
use heuristics::HeuristicConfig;
use netsim::SimDuration;

fn main() {
    let seed = 2020;
    let mut config = ExperimentConfig::single_interval(1, seed);
    // Keep the example snappy: a mid-sized topology, 3 Burst–Break pairs.
    config.topology.n_transit = 40;
    config.topology.n_stub = 100;
    config.topology.n_vantage_points = 25;
    config.cycles = 3;

    println!(
        "simulating campaign (1-minute beacons, {} cycles)…",
        config.cycles
    );
    let out = run_campaign(&config);
    println!(
        "  {} ASs, {} events, {} BGP updates delivered",
        out.topology.len(),
        out.events_processed,
        out.updates_delivered
    );
    println!(
        "  {} labeled paths, {:.1}% showing the RFD signature",
        out.labels.len(),
        100.0 * out.rfd_path_share()
    );
    println!(
        "  planted dampers: {} ({} inconsistent)",
        out.deployment.ground_truth().len(),
        out.deployment.inconsistent().len()
    );

    println!("\nrunning BeCAUSe (MH + HMC) and heuristics…");
    let inf = infer_with_supervision(
        &out,
        &AnalysisConfig::fast(seed),
        &HeuristicConfig::default(),
        &SupervisorConfig::default(),
    );

    let interval = SimDuration::from_mins(1);
    let because_eval = evaluate_against_oracle(&out, &inf.because_flagged(), interval);
    let heuristic_eval = evaluate_against_oracle(&out, &inf.heuristics_flagged(), interval);
    println!("  BeCAUSe:    {}", because_eval.summary());
    println!("  heuristics: {}", heuristic_eval.summary());

    let counts = inf.analysis.category_counts();
    println!(
        "\ncategories: C1={} C2={} C3={} C4={} C5={}  (C4+C5 = RFD-enabled)",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    );
    for report in inf.analysis.reports.iter().filter(|r| r.is_property()) {
        println!(
            "  AS{:<6} mean {:.2} certainty {:.2}{}",
            report.id,
            report.mean(),
            report.certainty(),
            if report.flagged_inconsistent {
                "  (via Eq. 8)"
            } else {
                ""
            }
        );
    }
}
