//! Fig. 12 — share of damping ASs per beacon update interval.
//!
//! Runs the full pipeline at 1/2/3/5/10/15-minute intervals (the paper's
//! March and April campaigns) on the *same* topology/deployment and
//! reports, per interval, the share of measured ASs flagged as damping:
//! consistently (step 1 of §5.1 only) and including inconsistent dampers
//! (step 2, Eq. 8). Expected shape: monotone decline with a cliff after
//! 5 minutes (deprecated vendor defaults trigger up to ≈7–9 min flaps,
//! the recommended 6000 threshold only at ≤2–3 min) and ≈0 at 10/15 min.
//!
//! Only ASs measured in all six experiments are counted, as in the paper.

use std::collections::BTreeSet;

use bgpsim::AsId;

use super::{io, Suite, Write};
use crate::metrics::detectable_universe;
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let intervals = [1u64, 2, 3, 5, 10, 15];

    let mut per_interval = Vec::new();
    let mut common_universe: Option<BTreeSet<AsId>> = None;
    for &mins in &intervals {
        // The 1-minute pair is the suite's shared one; the others are
        // dropped at the end of this iteration.
        let (out, inf) = suite.inference(mins);
        let universe = detectable_universe(&out);
        common_universe = Some(match common_universe {
            None => universe.clone(),
            Some(u) => u.intersection(&universe).copied().collect(),
        });
        let consistent: BTreeSet<AsId> = inf
            .analysis
            .reports
            .iter()
            .filter(|r| r.is_property() && !r.flagged_inconsistent)
            .map(|r| AsId(r.id.0))
            .collect();
        let with_inconsistent: BTreeSet<AsId> = inf
            .analysis
            .reports
            .iter()
            .filter(|r| r.is_property())
            .map(|r| AsId(r.id.0))
            .collect();
        per_interval.push((mins, consistent, with_inconsistent));
        eprintln!(
            "  interval {mins} min done ({} labeled paths)",
            out.labels.len()
        );
    }

    let universe = common_universe.unwrap_or_default();
    let total = universe.len().max(1) as f64;
    writeln!(w, "ASs measured in all 6 experiments: {}", universe.len())?;
    writeln!(w)?;
    let rows: Vec<Vec<String>> = per_interval
        .iter()
        .map(|(mins, consistent, all)| {
            let c = consistent.intersection(&universe).count() as f64 / total;
            let a = all.intersection(&universe).count() as f64 / total;
            vec![
                format!("{mins} min"),
                report::pct(c),
                report::pct(a),
                report::bar(a, 0.2, 30),
            ]
        })
        .collect();
    let table = report::table(&["interval", "consistent", "incl. inconsistent", ""], &rows);
    writeln!(w, "{table}")
}
