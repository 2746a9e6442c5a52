//! Quickstart: BeCAUSe on a hand-written tomography problem.
//!
//! Five ASs, seven observed paths. AS 20932 damps everything, AS 701
//! damps inconsistently, the rest are clean. We feed the labeled paths to
//! [`because::Analysis`] and read back categories, means and credible
//! intervals — no simulator required.
//!
//! Run with: `cargo run --release --example quickstart`

use because::{Analysis, AnalysisConfig, NodeId, PathData, PathObservation};

fn main() {
    // Paths are sets of ASs plus a boolean: did the path show the
    // property (here: the RFD signature)?
    let mut observations = Vec::new();
    let mut add = |asns: &[u32], shows: bool, copies: usize| {
        for _ in 0..copies {
            observations.push(PathObservation::new(
                asns.iter().map(|&a| NodeId(a)).collect(),
                shows,
            ));
        }
    };

    // AS 20932 damps: every path through it shows the signature.
    add(&[20932, 3356], true, 24);
    add(&[20932, 1299], true, 18);
    // AS 701 damps all neighbors except AS 2497: contradictory evidence
    // (damped paths through two well-exonerated partners, plus a pile of
    // clean paths through the spared neighbor).
    add(&[701, 3356], true, 18);
    add(&[701, 1299], true, 14);
    add(&[701, 2497], false, 30);
    // Clean reference paths.
    add(&[3356], false, 40);
    add(&[1299], false, 35);
    add(&[2497], false, 28);
    // AS 12874 is only ever seen behind the damper: no information.
    add(&[12874, 20932, 3356], true, 10);

    let data = PathData::from_observations(&observations, &[]);
    println!(
        "dataset: {} ASs, {} distinct paths, {} observations\n",
        data.num_nodes(),
        data.num_paths(),
        data.num_observations()
    );

    // Run both MCMC kernels, summarise, categorise, pinpoint.
    let analysis = Analysis::run(&data, &AnalysisConfig::fast(7));

    println!(
        "{:<8} {:>6} {:>14} {:>10}  category",
        "AS", "mean", "95% HPDI", "certainty"
    );
    for report in &analysis.reports {
        let m = report.hmc.or(report.mh).expect("a sampler ran");
        println!(
            "AS{:<6} {:>6.3} [{:>5.3}, {:>5.3}] {:>10.3}  C{}{}",
            report.id,
            report.mean(),
            m.hpdi_low,
            m.hpdi_high,
            report.certainty(),
            report.category.value(),
            if report.flagged_inconsistent {
                "  (inconsistent damper, Eq. 8)"
            } else {
                ""
            }
        );
    }

    println!("\nflagged as damping: {:?}", analysis.property_nodes());
    println!("max rank-R̂ across chains: {:.3}", analysis.max_rank_r_hat);
}
