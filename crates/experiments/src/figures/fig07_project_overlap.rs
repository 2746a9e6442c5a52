//! Fig. 7 — overlap of gathered data between the collector projects.
//!
//! Per project: observations contributed, unique AS paths, and the share
//! of all paths only that project saw — the paper's justification for
//! consuming RIPE RIS, RouteViews *and* Isolario.

use super::{io, Suite, Write};
use crate::coverage::{project_exclusive_shares, project_observations};
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let out = suite.campaign(1);

    let obs = project_observations(&out.dump);
    let shares = project_exclusive_shares(&obs);

    let rows: Vec<Vec<String>> = shares
        .iter()
        .map(|(p, (paths, exclusive))| {
            vec![
                p.name().to_string(),
                obs[p].len().to_string(),
                paths.to_string(),
                report::pct(*exclusive),
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
