//! Measurement-infrastructure statistics: link similarity across beacon
//! sites (Fig. 6), data overlap across collector projects (Fig. 7), and
//! propagation-delay distributions (Fig. 8).

use std::collections::{BTreeMap, BTreeSet};

use bgpsim::{AsId, Prefix};
use collector::{Dump, Project, UpdateRecord};
use netsim::stats::Ecdf;
use signature::clean_path;

/// The valid announcements of the given prefixes, read from their
/// streams only (each prefix once, however often it is listed).
fn valid_announcements_of<'a>(
    dump: &'a Dump,
    prefixes: &[Prefix],
) -> impl Iterator<Item = &'a UpdateRecord> {
    let wanted: BTreeSet<Prefix> = prefixes.iter().copied().collect();
    wanted
        .into_iter()
        .flat_map(|p| dump.streams_of(p))
        .flat_map(|(_, stream)| stream)
        .filter(|r| r.is_valid_announcement())
}

/// The set of AS-level links (unordered pairs) observed on paths of the
/// given prefixes in the dump.
pub fn observed_links(dump: &Dump, prefixes: &[Prefix]) -> BTreeSet<(AsId, AsId)> {
    let mut links = BTreeSet::new();
    for r in valid_announcements_of(dump, prefixes) {
        if let Some(p) = r.path.as_ref().and_then(clean_path) {
            for (a, b) in p.links() {
                links.insert((a.min(b), a.max(b)));
            }
        }
    }
    links
}

/// Fig. 6 — for each beacon site, the share of *all* observed links that
/// the site's prefixes alone reveal.
pub fn link_similarity(
    dump: &Dump,
    site_prefixes: &BTreeMap<AsId, Vec<Prefix>>,
) -> BTreeMap<AsId, f64> {
    let all_prefixes: Vec<Prefix> = site_prefixes
        .values()
        .flat_map(|v| v.iter().copied())
        .collect();
    let all_links = observed_links(dump, &all_prefixes);
    let total = all_links.len().max(1) as f64;
    site_prefixes
        .iter()
        .map(|(&site, prefixes)| {
            let own = observed_links(dump, prefixes);
            (site, own.len() as f64 / total)
        })
        .collect()
}

/// How often each link is seen on distinct (vantage, prefix, path)
/// combinations — the paper's "median paths per link" argument for using
/// several sites.
pub fn link_path_counts(dump: &Dump, prefixes: &[Prefix]) -> BTreeMap<(AsId, AsId), usize> {
    let mut paths: BTreeSet<(AsId, Prefix, Vec<AsId>)> = BTreeSet::new();
    for r in valid_announcements_of(dump, prefixes) {
        if let Some(p) = r.path.as_ref().and_then(clean_path) {
            paths.insert((r.vantage, r.prefix, p.asns().to_vec()));
        }
    }
    let mut counts: BTreeMap<(AsId, AsId), usize> = BTreeMap::new();
    for (_, _, asns) in &paths {
        for w in asns.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
}

/// Fig. 7 — per project: the set of (vantage, prefix, path) observations
/// it contributes, for overlap analysis.
pub fn project_observations(dump: &Dump) -> BTreeMap<Project, BTreeSet<(AsId, Prefix, Vec<AsId>)>> {
    let mut out: BTreeMap<Project, BTreeSet<(AsId, Prefix, Vec<AsId>)>> = BTreeMap::new();
    for p in Project::ALL {
        out.entry(p).or_default();
    }
    for r in dump.valid_announcements() {
        if let Some(p) = r.path.as_ref().and_then(clean_path) {
            out.entry(r.project)
                .or_default()
                .insert((r.vantage, r.prefix, p.asns().to_vec()));
        }
    }
    out
}

/// Unique AS paths per project and the share each project contributes
/// exclusively (Fig. 7's "every project adds data" point).
pub fn project_exclusive_shares(dump: &Dump) -> BTreeMap<Project, (usize, f64)> {
    let obs = project_observations(dump);
    // Overlap is computed on paths (ignoring which VP reported them).
    let paths_of = |p: Project| -> BTreeSet<Vec<AsId>> {
        obs[&p].iter().map(|(_, _, path)| path.clone()).collect()
    };
    let all: BTreeSet<Vec<AsId>> = Project::ALL.iter().flat_map(|&p| paths_of(p)).collect();
    let total = all.len().max(1) as f64;
    Project::ALL
        .iter()
        .map(|&p| {
            let own = paths_of(p);
            let others: BTreeSet<Vec<AsId>> = Project::ALL
                .iter()
                .filter(|&&q| q != p)
                .flat_map(|&q| paths_of(q))
                .collect();
            let exclusive = own.difference(&others).count();
            (p, (own.len(), exclusive as f64 / total))
        })
        .collect()
}

/// First-arrival delays per (vantage, prefix, beacon event).
///
/// The paper measures "the time it takes from sending the announcement
/// from the Beacon routers until the **first** announcement of each
/// router reaches the vantage points". Later copies of the same stamp —
/// path-hunting transients re-announcing a stored route hours after its
/// origination — are not propagation and must not pollute the CDF.
fn first_arrival_delays(
    dump: &Dump,
    prefixes: &[Prefix],
    project: Option<Project>,
    use_export_time: bool,
) -> Vec<f64> {
    let mut first: BTreeMap<(AsId, Prefix, netsim::SimTime), f64> = BTreeMap::new();
    for r in valid_announcements_of(dump, prefixes) {
        if let Some(p) = project {
            if r.project != p {
                continue;
            }
        }
        let Some(sent) = r.beacon_time() else {
            continue;
        };
        let at = if use_export_time {
            r.exported_at
        } else {
            r.observed_at
        };
        let delay = at.saturating_since(sent).as_secs_f64();
        first
            .entry((r.vantage, r.prefix, sent))
            .and_modify(|d| *d = d.min(delay))
            .or_insert(delay);
    }
    first.into_values().collect()
}

/// Fig. 8 — empirical CDF of first-arrival propagation delays for a set
/// of prefixes (anchor prefixes in the paper's comparison).
pub fn propagation_cdf(dump: &Dump, prefixes: &[Prefix]) -> Ecdf {
    Ecdf::new(first_arrival_delays(dump, prefixes, None, false))
}

/// Fig. 8 variant measured at dump-export time (what a researcher reading
/// public dumps sees, including collector cadence).
pub fn export_propagation_cdf(dump: &Dump, prefixes: &[Prefix], project: Project) -> Ecdf {
    Ecdf::new(first_arrival_delays(dump, prefixes, Some(project), true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_campaign, ExperimentConfig};

    fn output() -> crate::pipeline::CampaignOutput {
        run_campaign(&ExperimentConfig::small(1, 41))
    }

    #[test]
    fn links_are_canonical_pairs() {
        let out = output();
        let prefixes = out.campaign.prefixes();
        let links = observed_links(&out.dump, &prefixes);
        assert!(!links.is_empty());
        for &(a, b) in &links {
            assert!(a < b, "links must be canonicalised");
        }
    }

    #[test]
    fn per_site_share_bounded_by_one() {
        let out = output();
        let mut site_prefixes: BTreeMap<AsId, Vec<Prefix>> = BTreeMap::new();
        for sc in &out.campaign.sites {
            site_prefixes
                .entry(sc.site)
                .or_default()
                .extend(sc.beacons.iter().map(|b| b.prefix));
        }
        let sim = link_similarity(&out.dump, &site_prefixes);
        assert_eq!(sim.len(), out.topology.beacon_sites.len());
        for (&site, &share) in &sim {
            assert!((0.0..=1.0).contains(&share), "{site}: {share}");
        }
        // Multiple sites: no single site should see everything if the
        // others contribute anything at all (usually true; tolerate 1.0
        // only if all sites reach 1.0 — degenerate tiny graphs).
        let max = sim.values().cloned().fold(0.0, f64::max);
        assert!(max > 0.0);
    }

    #[test]
    fn project_shares_cover_all_projects() {
        let out = output();
        let shares = project_exclusive_shares(&out.dump);
        assert_eq!(shares.len(), 3);
        let total_paths: usize = shares.values().map(|(n, _)| *n).sum();
        assert!(total_paths > 0);
        for (&p, &(n, excl)) in &shares {
            assert!((0.0..=1.0).contains(&excl), "{p:?}: {excl}");
            assert!(n > 0, "{p:?} contributed nothing");
        }
    }

    #[test]
    fn propagation_delays_are_small_for_anchors() {
        let out = output();
        let anchors: Vec<Prefix> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
        let cdf = propagation_cdf(&out.dump, &anchors);
        assert!(!cdf.is_empty());
        // Paper: anchor propagation at most ~1 minute.
        let p99 = cdf.quantile(0.99).unwrap();
        assert!(p99 < 60.0, "p99 propagation {p99}s");
    }

    #[test]
    fn export_cdf_slower_than_arrival_cdf() {
        let out = output();
        let anchors: Vec<Prefix> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
        let arrival = propagation_cdf(&out.dump, &anchors);
        for project in Project::ALL {
            let export = export_propagation_cdf(&out.dump, &anchors, project);
            if export.is_empty() {
                continue;
            }
            let a50 = arrival.quantile(0.5).unwrap();
            let e50 = export.quantile(0.5).unwrap();
            assert!(
                e50 >= a50,
                "{project:?}: export median {e50} < arrival {a50}"
            );
        }
    }

    #[test]
    fn link_path_counts_positive() {
        let out = output();
        let prefixes = out.campaign.prefixes();
        let counts = link_path_counts(&out.dump, &prefixes);
        assert!(!counts.is_empty());
        assert!(counts.values().all(|&c| c >= 1));
    }
}
