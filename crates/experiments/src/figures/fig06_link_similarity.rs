//! Fig. 6 — similarity of links on AS paths compared between beacon sites.
//!
//! For each site, the share of all observed AS links that the site's own
//! beacon prefixes reveal (the paper: 70–95 % per site), plus the median
//! number of paths per link with all sites combined versus a single site
//! — the argument for multi-site measurement.

use std::collections::BTreeMap;

use bgpsim::Prefix;

use super::{io, Suite, Write};
use crate::coverage::{link_path_counts, link_similarity, observed_links};
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
    let sim = link_similarity(&out.dump, &site_prefixes);
    let rows: Vec<Vec<String>> = sim
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
    let all_prefixes: Vec<Prefix> = site_prefixes
        .values()
        .flat_map(|v| v.iter().copied())
        .collect();
    let median = |prefixes: &[Prefix]| -> usize {
        let counts = link_path_counts(&out.dump, prefixes);
        let mut v: Vec<usize> = counts.values().copied().collect();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        v[v.len() / 2]
    };
    let single_site = site_prefixes
        .values()
        .next()
        .map(|p| median(p))
        .unwrap_or(0);
    writeln!(w, "median paths per link, single site: {single_site}")?;
    writeln!(
        w,
        "median paths per link, all sites:   {}",
        median(&all_prefixes)
    )?;
    writeln!(w)?;
    writeln!(
        w,
        "total links observed: {}",
        observed_links(&out.dump, &all_prefixes).len()
    )
}
