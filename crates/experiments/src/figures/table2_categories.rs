//! Table 2 — total and share of assigned categories for the 1-minute
//! update interval.
//!
//! The paper reports 574 ASs split 28.9 / 49.3 / 12.5 / 4.3 / 4.9 % over
//! categories 1–5, with categories 4+5 (≥ 9 %) accepted as RFD-enabled.
//! The shape to reproduce: most ASs confidently non-damping (C1+C2),
//! a C3 tail with no information, and a C4+C5 share around the planted
//! deployment rate.

use super::{io, Suite, Write};
use crate::report;

/// Render the table after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let (out, inf) = suite.inference(1);

    let counts = inf.analysis.category_counts();
    let shares = inf.analysis.category_shares();
    let rows: Vec<Vec<String>> = (0..5)
        .map(|i| {
            vec![
                format!("Category {}", i + 1),
                counts[i].to_string(),
                report::pct(shares[i]),
                report::bar(shares[i], 1.0, 30),
            ]
        })
        .collect();
    let table = report::table(&["category", "total", "share", ""], &rows);
    writeln!(w, "{table}")?;

    let rfd_share = shares[3] + shares[4];
    writeln!(w, "measured ASs: {}", inf.analysis.reports.len())?;
    writeln!(
        w,
        "RFD-enabled (C4+C5): {} (paper: ≥ 9 %)",
        report::pct(rfd_share)
    )?;
    writeln!(
        w,
        "planted deployment share over measured ASs: {}",
        report::pct(
            out.deployment
                .ground_truth()
                .iter()
                .filter(|a| inf.data.index(because::NodeId(a.0)).is_some())
                .count() as f64
                / inf.analysis.reports.len().max(1) as f64
        )
    )
}
