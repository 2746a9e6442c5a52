//! `/metrics` as a served analysis leaves it.
//!
//! With a serve state installed, every chain of an `Analysis` publishes
//! its progress snapshots to it. After two full runs in one process (as
//! a binary running several analyses does), the exposition must parse,
//! carry exactly one `{kernel,chain}`-labelled sample per chain for each
//! progress gauge, and have credited every draw of both runs. Each
//! chain's final `/progress` row and gauge samples must carry, bit for
//! bit, the rank diagnostics of that chain alone.

use std::sync::Arc;

use because::diagnostics::coordinate;
use because::model::{NodeId, PathData, PathObservation};
use because::{Analysis, AnalysisConfig, Chain};
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
    let mut last = None;
    for _ in 0..2 {
        let analysis = Analysis::run(&data, &config);
        assert!(analysis.failures.is_empty(), "{:?}", analysis.failures);
        last = Some(analysis);
    }
    let analysis = last.unwrap();

    let body = state.render_metrics();
    validate_exposition(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));

    let mut want: Vec<String> = ["MH", "HMC"]
        .iter()
        .flat_map(|k| {
            (0..config.n_chains).map(move |c| format!("{{kernel=\"{k}\",chain=\"{c}\"}}"))
        })
        .collect();
    want.sort();
    for gauge in [
        "accept_rate",
        "divergences",
        "max_rank_r_hat",
        "min_ess_bulk",
    ] {
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

    // Both runs are identical, so the rows the second one left are its
    // chains' final snapshots.
    let progress = state.render_progress();
    let rows: Vec<&str> = progress
        .trim_start_matches("{\"chains\":[{")
        .trim_end_matches("}]}")
        .split("},{")
        .collect();
    assert_eq!(rows.len(), 2 * config.n_chains, "{progress}");
    for row in rows {
        let field = |key: &str| {
            let at = row.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
            row[at..].split([',', '}']).next().unwrap()
        };
        let (kernel, chain) = (field("kernel").trim_matches('"'), field("chain"));
        let chains = match kernel {
            "MH" => &analysis.mh_chains,
            _ => &analysis.hmc_chains,
        };
        let (r_hat, ess) = alone(&chains[chain.parse::<usize>().unwrap()]);
        assert_eq!(field("phase"), "\"done\"", "{row}");
        for (key, want) in [("max_rank_r_hat", r_hat), ("min_ess_bulk", ess)] {
            let got: f64 = field(key).parse().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{key} of {kernel} {chain}");
            let sample = format!("repro_{key}{{kernel=\"{kernel}\",chain=\"{chain}\"}} ");
            let line = body.lines().find(|l| l.starts_with(&sample)).unwrap();
            let got: f64 = line[sample.len()..].parse().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{line}");
        }
    }
}

/// The worst rank-R̂ and smallest bulk ESS over the coordinates of
/// `chain` alone.
fn alone(chain: &Chain) -> (f64, f64) {
    let chains = std::slice::from_ref(chain);
    let coords: Vec<_> = (0..chain.dim()).map(|i| coordinate(chains, i)).collect();
    assert!(coords
        .iter()
        .all(|c| c.rank_r_hat.is_finite() && c.ess_bulk.is_finite()));
    let r_hat = coords.iter().map(|c| c.rank_r_hat).fold(f64::MIN, f64::max);
    let ess = coords.iter().map(|c| c.ess_bulk).fold(f64::MAX, f64::min);
    (r_hat, ess)
}
