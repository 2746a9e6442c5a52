//! BeCAUSe beyond RFD: the Route Origin Validation benchmark (§7).
//!
//! Builds the paper's ROV evaluation setup — real-ish AS paths of two
//! RPKI beacon prefixes, ~90 % labeled ROV by a planted enforcement set —
//! and runs the *unchanged* BeCAUSe pipeline on it. Demonstrates the
//! genericity claim: only the labels changed, not the algorithm.
//!
//! Run with: `cargo run --release --example rov_inference`

use because::AnalysisConfig;
use rov::{build, RovScenarioConfig};
use topology::TopologyConfig;

fn main() {
    let seed = 2020;
    let config = RovScenarioConfig {
        topology: TopologyConfig {
            n_transit: 40,
            n_stub: 100,
            ..TopologyConfig::default_with_seed(seed)
        },
        seed,
    };

    println!(
        "building ROV scenario ({} beacon prefixes)…",
        config.topology.n_beacon_sites
    );
    let scenario = build(&config);
    println!(
        "  {} paths collected, {:.1}% labeled ROV (paper: ~90%)",
        scenario.paths.len(),
        100.0 * scenario.rov_share()
    );
    println!(
        "  planted ROV set: {} ASs, of which {} are hidden behind another ROV AS",
        scenario.rov_ases.len(),
        scenario.hidden_rov_ases().len()
    );

    println!("\nrunning BeCAUSe…");
    let (analysis, pr) = scenario.evaluate(&AnalysisConfig::fast(seed));
    println!(
        "  precision {:.1}%  recall {:.1}%  (paper: 100% / 64%)",
        100.0 * pr.precision(),
        100.0 * pr.recall()
    );
    println!(
        "  true positives: {}, false positives: {}, misses: {}",
        pr.true_positives.len(),
        pr.false_positives.len(),
        pr.false_negatives.len()
    );

    // The paper's recall analysis: every miss should be a hidden AS.
    let hidden = scenario.hidden_rov_ases();
    let hidden_misses = pr
        .false_negatives
        .iter()
        .filter(|m| hidden.contains(m))
        .count();
    println!(
        "  misses explained by hiding: {}/{}",
        hidden_misses,
        pr.false_negatives.len()
    );
    println!("\ncategory counts: {:?}", analysis.category_counts());
}
