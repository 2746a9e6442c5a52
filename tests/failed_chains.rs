//! A chain that does not complete says why on the dashboard.
//!
//! `Analysis::failures` holds each failed chain's reason (a panic
//! message, a checkpoint error, a timeout phase, an interruption). The
//! run report only counts failures, so the dashboard's summary is where
//! a reader finds the cause.

use because::chain::ChainConfig;
use because::model::{NodeId, PathData, PathObservation};
use because::{Analysis, AnalysisConfig, SupervisorConfig};

/// Four ASs on a handful of showing and non-showing paths.
fn dataset() -> PathData {
    let paths: &[(&[u32], bool)] = &[
        (&[1], true),
        (&[1, 2], true),
        (&[2, 3], false),
        (&[3, 4], false),
        (&[4], true),
    ];
    let obs: Vec<PathObservation> = paths
        .iter()
        .map(|&(ids, shows)| PathObservation::new(ids.iter().map(|&i| NodeId(i)).collect(), shows))
        .collect();
    PathData::from_observations(&obs, &[])
}

#[test]
fn the_dashboard_names_why_each_chain_failed() {
    let config = AnalysisConfig {
        chain: ChainConfig {
            warmup: 30,
            samples: 60,
            thin: 1,
        },
        ..AnalysisConfig::fast(7)
    };
    let stop = SupervisorConfig {
        stop_after_draws: Some(20),
        ..SupervisorConfig::default()
    };
    let analysis = Analysis::run_supervised(&dataset(), &config, &stop);
    assert_eq!(
        analysis.failures.len(),
        2 * config.n_chains,
        "every chain stops"
    );

    let html = experiments::dash::build("failed_chains", &analysis).render();
    for f in &analysis.failures {
        assert_eq!(f.reason, "interrupted after 20 draws");
        let item = format!("failed {} chain {}", f.kernel, f.chain_index);
        assert!(html.contains(&item), "{item} missing from the summary");
    }
    assert!(html.contains("interrupted after 20 draws"));
}
