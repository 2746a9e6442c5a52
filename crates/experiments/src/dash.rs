//! Assembling the single-file HTML diagnostics dashboard from an
//! inference run.
//!
//! [`obs::html`] renders; this module decides what goes on the page:
//! which coordinates get trace plots and marginals (flagged ASs first,
//! then the worst-converged rest), the per-coordinate diagnostics table
//! (rank-normalized split-R̂ and bulk/tail ESS, read from the rows
//! [`Analysis`] computed), the per-chain E-BFMI strip, and the
//! run-summary header. The caller attaches the final [`obs::RunReport`]
//! and phase spans before writing (see
//! [`Suite::emit`](crate::suite::Suite::emit)).

use because::diagnostics::CoordDiagnostics;
use because::{Analysis, Category, Chain, Marginal};
use obs::html::{Dashboard, DiagRow, MarginalPlot, TracePlot};

/// Most coordinates shown in the trace/marginal/diagnostics sections —
/// the dashboard stays readable (and small) on paper-scale runs.
pub const MAX_COORDS: usize = 12;

/// Bins in each marginal-posterior histogram.
const BINS: usize = 30;

/// Build the inference part of the dashboard: summary header, one
/// trace + marginal + diagnostics row per selected coordinate, and the
/// E-BFMI strip. Plots come from the HMC chains when HMC ran, else the
/// MH chains; divergent-draw ticks mark HMC divergences.
pub fn build(title: &str, analysis: &Analysis) -> Dashboard {
    let (chains, diag, kernel) = if !analysis.hmc_chains.is_empty() {
        (&analysis.hmc_chains, &analysis.hmc_diagnostics, "HMC")
    } else {
        (&analysis.mh_chains, &analysis.mh_diagnostics, "MH")
    };

    let mut dash = Dashboard::new(title);
    summarize(&mut dash, analysis, chains, kernel);
    dash.set_e_bfmi(analysis.e_bfmi.clone());
    if chains.is_empty() {
        return dash;
    }

    let pooled = Chain::pooled(chains);
    for coord in select_coords(analysis, &diag.coords) {
        let name = format!("theta[AS{}]", analysis.reports[coord].id);
        let row = &diag.coords[coord];
        dash.push_diag_row(DiagRow {
            name: name.clone(),
            rank_r_hat: row.rank_r_hat,
            ess_bulk: row.ess_bulk,
            ess_tail: row.ess_tail,
        });
        dash.push_trace(trace_plot(&name, chains, coord));
        dash.push_marginal(marginal_plot(&name, &pooled.column(coord)));
    }
    dash
}

fn flagged(r: &because::AsReport) -> bool {
    matches!(r.category, Category::C4 | Category::C5) || r.flagged_inconsistent
}

fn summarize(dash: &mut Dashboard, analysis: &Analysis, chains: &[Chain], kernel: &str) {
    let draws: usize = chains.iter().map(|c| c.len()).sum();
    let divergent: usize = chains.iter().map(|c| c.divergent_draws().len()).sum();
    let n_flagged = analysis.reports.iter().filter(|r| flagged(r)).count();
    let fmt = |v: f64| {
        if v.is_nan() {
            "—".to_string()
        } else {
            format!("{v:.3}")
        }
    };
    dash.summary_item("ASs analysed", &analysis.reports.len().to_string())
        .summary_item(
            "chains",
            &format!("{} × {kernel} ({draws} retained draws)", chains.len()),
        )
        .summary_item("max rank-R̂", &fmt(analysis.max_rank_r_hat))
        .summary_item("min bulk ESS", &fmt(analysis.min_ess_bulk))
        .summary_item("min tail ESS", &fmt(analysis.min_ess_tail))
        .summary_item("divergent draws", &divergent.to_string())
        .summary_item("flagged ASs", &n_flagged.to_string())
        .summary_item("unexplained paths", &analysis.unexplained_paths.to_string());
    for f in &analysis.failures {
        dash.summary_item(
            &format!("failed {} chain {}", f.kernel, f.chain_index),
            &f.reason,
        );
    }
}

/// Pick the coordinates worth plotting: every flagged AS (category 4/5
/// or Eq.-8 inconsistent) first, then the worst rank-R̂ of the rest,
/// capped at [`MAX_COORDS`]. `rows` are the plotted kernel's
/// per-coordinate diagnostics.
fn select_coords(analysis: &Analysis, rows: &[CoordDiagnostics]) -> Vec<usize> {
    let reports = &analysis.reports;
    let mut picked: Vec<usize> = (0..reports.len())
        .filter(|&i| flagged(&reports[i]))
        .take(MAX_COORDS)
        .collect();
    if picked.len() < MAX_COORDS {
        let mut rest: Vec<(usize, f64)> = (0..reports.len())
            .filter(|&i| !flagged(&reports[i]))
            .map(|i| (i, rows[i].rank_r_hat))
            .collect();
        // Worst convergence first; NaN (single chain / short run) last.
        rest.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (false, false) => b.1.total_cmp(&a.1),
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (true, true) => a.0.cmp(&b.0),
        });
        picked.extend(
            rest.into_iter()
                .take(MAX_COORDS - picked.len())
                .map(|(i, _)| i),
        );
    }
    picked.sort_unstable();
    picked
}

fn trace_plot(name: &str, chains: &[Chain], coord: usize) -> TracePlot {
    let mut marks: Vec<usize> = chains
        .iter()
        .flat_map(|c| c.divergent_draws().iter().copied())
        .collect();
    marks.sort_unstable();
    marks.dedup();
    TracePlot {
        title: name.to_string(),
        series: chains
            .iter()
            .enumerate()
            .map(|(k, c)| (format!("chain {k}"), c.column(coord)))
            .collect(),
        marks,
    }
}

fn marginal_plot(name: &str, draws: &[f64]) -> MarginalPlot {
    let mut counts = vec![0u64; BINS];
    for &d in draws {
        let idx = ((d.clamp(0.0, 1.0) * BINS as f64) as usize).min(BINS - 1);
        counts[idx] += 1;
    }
    let m = Marginal::from_samples(draws, 0.95);
    MarginalPlot {
        title: name.to_string(),
        lo: 0.0,
        hi: 1.0,
        counts,
        mean: m.mean,
        hpdi: (m.hpdi_low, m.hpdi_high),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_campaign, ExperimentConfig};
    use because::{AnalysisConfig, SupervisorConfig};
    use heuristics::HeuristicConfig;

    fn inference() -> crate::InferenceOutput {
        let out = run_campaign(&ExperimentConfig::small(1, 31));
        crate::infer::infer_with_supervision(
            &out,
            &AnalysisConfig::fast(31),
            &HeuristicConfig::default(),
            &SupervisorConfig::default(),
        )
    }

    #[test]
    fn dashboard_is_self_contained_and_capped() {
        let inf = inference();
        let dash = build("test run", &inf.analysis);
        let html = dash.render();
        assert!(html.contains("<svg"), "trace/marginal SVGs present");
        assert!(html.contains("id=\"diagnostics\""));
        // The SVG xmlns identifier is the only allowed URL.
        let stripped = html.replace("http://www.w3.org/2000/svg", "");
        assert!(
            !stripped.contains("http://") && !stripped.contains("https://"),
            "no external assets"
        );
        assert!(html.matches("theta[AS").count() > 0, "coordinates plotted");
        let coords = select_coords(&inf.analysis, &inf.analysis.hmc_diagnostics.coords);
        assert!(!coords.is_empty() && coords.len() <= MAX_COORDS);
        // Selected coordinates are unique and in range.
        let mut deduped = coords.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), coords.len());
        assert!(coords.iter().all(|&c| c < inf.analysis.reports.len()));
    }

    #[test]
    fn flagged_ases_are_always_plotted() {
        let inf = inference();
        let coords = select_coords(&inf.analysis, &inf.analysis.hmc_diagnostics.coords);
        let flagged_coords: Vec<usize> = (0..inf.analysis.reports.len())
            .filter(|&i| flagged(&inf.analysis.reports[i]))
            .take(MAX_COORDS)
            .collect();
        for f in flagged_coords {
            assert!(coords.contains(&f), "flagged coord {f} missing");
        }
    }

    #[test]
    fn marginal_histogram_counts_every_draw() {
        let draws = [0.0, 0.1, 0.5, 0.999, 1.0];
        let m = marginal_plot("x", &draws);
        assert_eq!(m.counts.iter().sum::<u64>(), draws.len() as u64);
        assert_eq!((m.lo, m.hi), (0.0, 1.0));
        assert!(m.hpdi.0 <= m.mean && m.mean <= m.hpdi.1);
    }
}
