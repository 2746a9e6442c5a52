//! Table 4 — precision/recall of BeCAUSe versus the heuristics on RFD
//! ground truth, plus BeCAUSe on the ROV benchmark.
//!
//! Paper values: RFD — BeCAUSe 100 % / 87 %, heuristics 97 % / 80 %;
//! ROV — BeCAUSe 100 % / 64 % (misses are ASs hidden behind another ROV
//! AS). The shape to reproduce: BeCAUSe precision ≥ heuristic precision,
//! recall bounded by visibility, ROV recall below RFD recall.

use netsim::SimDuration;
use rov::{build, RovScenarioConfig};

use super::{io, Suite, Write};
use crate::metrics::evaluate_against_oracle;
use crate::report;

/// Render the table after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    // --- RFD ------------------------------------------------------------
    let (out, inf) = suite.inference(1);
    let interval = SimDuration::from_mins(1);
    let because_eval = evaluate_against_oracle(&out, &inf.because_flagged(), interval);
    let heuristics_eval = evaluate_against_oracle(&out, &inf.heuristics_flagged(), interval);

    // --- ROV ------------------------------------------------------------
    let rov_cfg = RovScenarioConfig {
        topology: suite.topology_config(),
        seed: suite.seed(),
    };
    let scenario = build(&rov_cfg);
    let (_, rov_pr) = scenario.evaluate(&suite.analysis_config());

    let rows = vec![
        vec![
            "RFD".to_string(),
            "BeCAUSe".to_string(),
            report::pct(because_eval.pr.precision()),
            report::pct(because_eval.pr.recall()),
        ],
        vec![
            "RFD".to_string(),
            "Heuristics".to_string(),
            report::pct(heuristics_eval.pr.precision()),
            report::pct(heuristics_eval.pr.recall()),
        ],
        vec![
            "ROV".to_string(),
            "BeCAUSe".to_string(),
            report::pct(rov_pr.precision()),
            report::pct(rov_pr.recall()),
        ],
    ];
    let table = report::table(&["problem", "method", "precision", "recall"], &rows);
    writeln!(w, "{table}")?;

    writeln!(w, "RFD detail:  BeCAUSe    {}", because_eval.summary())?;
    writeln!(w, "             heuristics {}", heuristics_eval.summary())?;
    writeln!(
        w,
        "ROV detail:  {} planted, {} hidden behind another ROV AS, {} paths ({} ROV share)",
        scenario.rov_ases.len(),
        scenario.hidden_rov_ases().len(),
        scenario.paths.len(),
        report::pct(scenario.rov_share())
    )?;
    writeln!(
        w,
        "(paper: RFD 100/87 vs 97/80; ROV 100/64 — shape, not absolutes)"
    )
}
