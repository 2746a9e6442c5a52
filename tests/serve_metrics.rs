//! `/metrics` as a served analysis leaves it.
//!
//! With a serve state installed, every chain of an `Analysis` publishes
//! its progress snapshots to it. After two full runs in one process (as
//! a binary running several analyses does), the exposition must parse,
//! carry exactly one `{kernel,chain}`-labelled sample per chain for each
//! progress gauge, and have credited every draw of both runs.

use std::sync::Arc;

use because::model::{NodeId, PathData, PathObservation};
use because::{Analysis, AnalysisConfig};
use obs::serve::{install, validate_exposition, ServeState};

/// Six ASs on paths of one to three hops, showing and quiet.
fn dataset() -> PathData {
    let paths: &[(&[u32], bool, u32)] = &[
        (&[1], true, 4),
        (&[1, 2], true, 3),
        (&[2, 3], false, 5),
        (&[3, 4, 5], false, 2),
        (&[4, 6], true, 2),
        (&[5, 6], false, 3),
    ];
    let mut obs = Vec::new();
    for &(ids, shows, copies) in paths {
        for _ in 0..copies {
            obs.push(PathObservation::new(
                ids.iter().map(|&i| NodeId(i)).collect(),
                shows,
            ));
        }
    }
    PathData::from_observations(&obs, &[])
}

#[test]
fn two_served_runs_label_every_chain_and_credit_every_draw() {
    let state = install(Arc::new(ServeState::new()));
    let data = dataset();
    let config = AnalysisConfig::fast(2020);
    for _ in 0..2 {
        let analysis = Analysis::run(&data, &config);
        assert!(analysis.failures.is_empty(), "{:?}", analysis.failures);
    }

    let body = state.render_metrics();
    validate_exposition(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));

    let mut want: Vec<String> = ["MH", "HMC"]
        .iter()
        .flat_map(|k| {
            (0..config.n_chains).map(move |c| format!("{{kernel=\"{k}\",chain=\"{c}\"}}"))
        })
        .collect();
    want.sort();
    for gauge in ["accept_rate", "divergences", "split_r_hat", "min_ess"] {
        let prefix = format!("repro_{gauge}{{");
        let mut labels: Vec<String> = body
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l[prefix.len() - 1..].split(' ').next().unwrap().to_string())
            .collect();
        labels.sort();
        assert_eq!(labels, want, "{gauge} samples in\n{body}");
    }

    let draws = 2 * 2 * config.n_chains * config.chain.samples;
    assert_eq!(draws, 2 * 4 * 400);
    assert!(
        body.lines().any(|l| l == format!("repro_draws {draws}")),
        "want repro_draws {draws} in\n{body}"
    );
}
