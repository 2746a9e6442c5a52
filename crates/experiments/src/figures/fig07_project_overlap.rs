//! Fig. 7 — overlap of gathered data between the collector projects.
//!
//! Per project: observations contributed, unique AS paths, and the share
//! of all paths only that project saw — the paper's justification for
//! consuming RIPE RIS, RouteViews *and* Isolario.

use super::{io, Suite, Write};
use crate::coverage::project_shares;
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let out = suite.campaign(1);

    let rows: Vec<Vec<String>> = project_shares(&out.dump)
        .iter()
        .map(|(p, share)| {
            vec![
                p.name().to_string(),
                share.observations.to_string(),
                share.paths.to_string(),
                report::pct(share.exclusive),
            ]
        })
        .collect();
    let table = report::table(
        &["project", "observations", "unique paths", "exclusive share"],
        &rows,
    );
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "(an exclusive share > 0 for every project = each adds data)"
    )
}
