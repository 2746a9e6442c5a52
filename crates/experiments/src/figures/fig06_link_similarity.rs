//! Fig. 6 — similarity of links on AS paths compared between beacon sites.
//!
//! For each site, the share of all observed AS links that the site's own
//! beacon prefixes reveal (the paper: 70–95 % per site), plus the median
//! number of paths per link with all sites combined versus a single site
//! — the argument for multi-site measurement.

use std::collections::BTreeMap;

use bgpsim::Prefix;

use super::{io, Suite, Write};
use crate::coverage::link_coverage;
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let out = suite.campaign(1);

    let mut site_prefixes: BTreeMap<bgpsim::AsId, Vec<Prefix>> = BTreeMap::new();
    for sc in &out.campaign.sites {
        site_prefixes
            .entry(sc.site)
            .or_default()
            .extend(sc.beacons.iter().map(|b| b.prefix));
    }
    let coverage = link_coverage(&out.dump, &site_prefixes);
    let rows: Vec<Vec<String>> = coverage
        .site_shares
        .iter()
        .map(|(site, share)| {
            vec![
                site.to_string(),
                report::pct(*share),
                report::bar(*share, 1.0, 30),
            ]
        })
        .collect();
    let table = report::table(&["site", "share of all links", ""], &rows);
    writeln!(w, "{table}")?;

    // Median paths per link: single site vs all sites.
    let (all_sites, single_site) = coverage.median_paths_per_link;
    writeln!(w, "median paths per link, single site: {single_site}")?;
    writeln!(w, "median paths per link, all sites:   {all_sites}")?;
    writeln!(w)?;
    writeln!(w, "total links observed: {}", coverage.total_links)
}
