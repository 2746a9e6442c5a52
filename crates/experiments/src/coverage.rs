//! Measurement-infrastructure statistics: link similarity across beacon
//! sites (Fig. 6), data overlap across collector projects (Fig. 7), and
//! propagation-delay distributions (Fig. 8).
//!
//! Each statistic reads every stream it needs once and takes the
//! stream's prefix, vantage point and project from the stream header,
//! so a stream's distinct valid paths are its distinct
//! (vantage, prefix, path) observations.

use std::collections::{BTreeMap, BTreeSet};

use bgpsim::{AsId, Prefix};
use collector::{CleanPath, Dump, Project, UpdateRecord};
use netsim::stats::Ecdf;
use netsim::SimTime;

/// The distinct paths of a stream's valid announcements.
fn distinct_valid_paths(stream: &[UpdateRecord]) -> BTreeSet<&CleanPath> {
    stream
        .iter()
        .filter(|r| r.is_valid_announcement())
        .filter_map(|r| r.path.as_ref())
        .collect()
}

/// What Fig. 6 knows of one observed AS link.
#[derive(Default)]
struct LinkSeen {
    /// The beacon sites whose prefixes reveal the link.
    sites: BTreeSet<AsId>,
    /// Distinct (vantage, prefix, path) observations crossing the link.
    paths: usize,
    /// The same, on the first site's prefixes alone.
    first_site_paths: usize,
}

/// Fig. 6's link statistics over the beacon sites' prefixes.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkCoverage {
    /// Per site, the share of *all* observed links that the site's
    /// prefixes alone reveal.
    pub site_shares: BTreeMap<AsId, f64>,
    /// Distinct AS links (unordered pairs) observed on all sites'
    /// prefixes.
    pub total_links: usize,
    /// The median number of distinct (vantage, prefix, path)
    /// observations per link on all sites' prefixes, and on the first
    /// site's alone — the paper's argument for several sites. Each is 0
    /// when it observes no link.
    pub median_paths_per_link: (usize, usize),
}

/// Fig. 6 — read each of the sites' prefixes' streams once into one map
/// keyed by link. A prefix listed under several sites counts for each.
pub fn link_coverage(dump: &Dump, site_prefixes: &BTreeMap<AsId, Vec<Prefix>>) -> LinkCoverage {
    let mut owners: BTreeMap<Prefix, BTreeSet<AsId>> = BTreeMap::new();
    for (&site, prefixes) in site_prefixes {
        for &prefix in prefixes {
            owners.entry(prefix).or_default().insert(site);
        }
    }
    let first = site_prefixes.keys().next();
    let mut links: BTreeMap<(AsId, AsId), LinkSeen> = BTreeMap::new();
    for (&prefix, sites) in &owners {
        let on_first = first.is_some_and(|f| sites.contains(f));
        for (_, _, _, stream) in dump.streams_of(prefix) {
            for path in distinct_valid_paths(stream) {
                for (a, b) in path.links() {
                    let seen = links.entry((a.min(b), a.max(b))).or_default();
                    seen.sites.extend(sites);
                    seen.paths += 1;
                    seen.first_site_paths += usize::from(on_first);
                }
            }
        }
    }

    let mut own: BTreeMap<AsId, usize> = site_prefixes.keys().map(|&s| (s, 0)).collect();
    for site in links.values().flat_map(|l| &l.sites) {
        *own.get_mut(site).expect("a listed site") += 1;
    }
    let total = links.len().max(1) as f64;
    let median = |mut v: Vec<usize>| -> usize {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    let first_site = links.values().map(|l| l.first_site_paths);
    LinkCoverage {
        site_shares: own
            .into_iter()
            .map(|(s, n)| (s, n as f64 / total))
            .collect(),
        total_links: links.len(),
        median_paths_per_link: (
            median(links.values().map(|l| l.paths).collect()),
            median(first_site.filter(|&n| n > 0).collect()),
        ),
    }
}

/// Fig. 7 — what one collector project contributes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectShare {
    /// Distinct (vantage, prefix, path) observations.
    pub observations: usize,
    /// Distinct AS paths among them, whichever VP reported them.
    pub paths: usize,
    /// Share of all distinct paths that only this project saw (Fig. 7's
    /// "every project adds data" point).
    pub exclusive: f64,
}

/// Fig. 7 — every project's share of the dump, from one pass over its
/// streams keyed by path. Every project has an entry.
pub fn project_shares(dump: &Dump) -> BTreeMap<Project, ProjectShare> {
    let mut observations: BTreeMap<Project, usize> = BTreeMap::new();
    // The projects that saw each path.
    let mut seen_by: BTreeMap<&CleanPath, BTreeSet<Project>> = BTreeMap::new();
    for (_, _, project, stream) in dump.streams() {
        let paths = distinct_valid_paths(stream);
        *observations.entry(project).or_default() += paths.len();
        for path in paths {
            seen_by.entry(path).or_default().insert(project);
        }
    }
    let total = seen_by.len().max(1) as f64;
    Project::ALL
        .map(|p| {
            let paths = seen_by.values().filter(|s| s.contains(&p)).count();
            let exclusive = seen_by.values().filter(|s| s.len() == 1 && s.contains(&p));
            let share = ProjectShare {
                observations: observations.get(&p).copied().unwrap_or(0),
                paths,
                exclusive: exclusive.count() as f64 / total,
            };
            (p, share)
        })
        .into()
}

/// Fig. 8 — first-arrival propagation delays of a set of prefixes.
pub struct Propagation {
    /// Send → arrival at the vantage point.
    pub arrival: Ecdf,
    /// Send → visible in the public dump (what a researcher reading
    /// public dumps sees, collector cadence included), per project.
    /// Every project has an entry.
    pub export: BTreeMap<Project, Ecdf>,
}

/// Fig. 8 — the delays per (vantage, prefix, beacon event) of the given
/// prefixes, reading each of their streams once (each prefix once,
/// however often it is listed).
///
/// The paper measures "the time it takes from sending the announcement
/// from the Beacon routers until the **first** announcement of each
/// router reaches the vantage points". Later copies of the same stamp —
/// path-hunting transients re-announcing a stored route hours after its
/// origination — are not propagation and must not pollute the CDF.
pub fn propagation(dump: &Dump, prefixes: &[Prefix]) -> Propagation {
    let wanted: BTreeSet<Prefix> = prefixes.iter().copied().collect();
    let mut arrival = Vec::new();
    let mut export: BTreeMap<Project, Vec<f64>> = Project::ALL.map(|p| (p, Vec::new())).into();
    for prefix in wanted {
        for (_, _, project, stream) in dump.streams_of(prefix) {
            // Per stamp: the first arrival and the first export.
            let mut first: BTreeMap<SimTime, (f64, f64)> = BTreeMap::new();
            for r in stream.iter().filter(|r| r.is_announcement()) {
                let Some(sent) = r.beacon_time() else {
                    continue; // invalid stamp: discarded
                };
                let delay = |at: SimTime| at.saturating_since(sent).as_secs_f64();
                let (arrived, exported) = (delay(r.observed_at), delay(r.exported_at));
                first
                    .entry(sent)
                    .and_modify(|(a, e)| {
                        *a = a.min(arrived);
                        *e = e.min(exported);
                    })
                    .or_insert((arrived, exported));
            }
            let export = export.get_mut(&project).expect("every project");
            for (arrived, exported) in first.into_values() {
                arrival.push(arrived);
                export.push(exported);
            }
        }
    }
    Propagation {
        arrival: Ecdf::new(arrival),
        export: export
            .into_iter()
            .map(|(p, delays)| (p, Ecdf::new(delays)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};

    fn output() -> CampaignOutput {
        run_campaign(&ExperimentConfig::small(1, 41))
    }

    fn site_prefixes(out: &CampaignOutput) -> BTreeMap<AsId, Vec<Prefix>> {
        let mut site_prefixes: BTreeMap<AsId, Vec<Prefix>> = BTreeMap::new();
        for sc in &out.campaign.sites {
            site_prefixes
                .entry(sc.site)
                .or_default()
                .extend(sc.beacons.iter().map(|b| b.prefix));
        }
        site_prefixes
    }

    /// The one-pass statistics equal per-site link sets and per-prefix-set
    /// path counts built apart, as Fig. 6 once built them.
    #[test]
    fn link_coverage_matches_per_site_sets() {
        let out = output();
        let sites = site_prefixes(&out);
        // Distinct (vantage, prefix, path) observations of some prefixes.
        let observations = |prefixes: &[Prefix]| -> BTreeSet<(AsId, Prefix, &CleanPath)> {
            let mut set = BTreeSet::new();
            for (prefix, vp, _, stream) in out.dump.streams() {
                if prefixes.contains(&prefix) {
                    set.extend(
                        distinct_valid_paths(stream)
                            .into_iter()
                            .map(|p| (vp, prefix, p)),
                    );
                }
            }
            set
        };
        let counts = |prefixes: &[Prefix]| -> BTreeMap<(AsId, AsId), usize> {
            let mut counts = BTreeMap::new();
            for (_, _, path) in observations(prefixes) {
                for (a, b) in path.links() {
                    *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                }
            }
            counts
        };
        let median = |c: BTreeMap<(AsId, AsId), usize>| {
            let mut v: Vec<usize> = c.into_values().collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let all: Vec<Prefix> = sites.values().flatten().copied().collect();
        let first: &[Prefix] = sites.values().next().unwrap();

        let total = counts(&all).len();
        let want = LinkCoverage {
            site_shares: sites
                .iter()
                .map(|(&site, prefixes)| (site, counts(prefixes).len() as f64 / total as f64))
                .collect(),
            total_links: total,
            median_paths_per_link: (median(counts(&all)), median(counts(first))),
        };
        assert_eq!(link_coverage(&out.dump, &sites), want);
        let max = want.site_shares.values().cloned().fold(0.0, f64::max);
        assert!(max > 0.0 && max <= 1.0);
        assert!(want.median_paths_per_link.1 >= 1);
    }

    #[test]
    fn project_shares_cover_all_projects() {
        let out = output();
        let shares = project_shares(&out.dump);
        assert_eq!(shares.len(), 3);
        for (&p, share) in &shares {
            assert!((0.0..=1.0).contains(&share.exclusive), "{p:?}: {share:?}");
            assert!(share.paths > 0, "{p:?} contributed nothing");
            assert!(share.observations >= share.paths, "{p:?}: {share:?}");
        }
    }

    #[test]
    fn propagation_delays_are_small_for_anchors() {
        let out = output();
        let anchors: Vec<Prefix> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
        let cdf = propagation(&out.dump, &anchors).arrival;
        assert!(!cdf.is_empty());
        // Paper: anchor propagation at most ~1 minute.
        let p99 = cdf.quantile(0.99).unwrap();
        assert!(p99 < 60.0, "p99 propagation {p99}s");
    }

    #[test]
    fn export_cdf_slower_than_arrival_cdf() {
        let out = output();
        let anchors: Vec<Prefix> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
        let delays = propagation(&out.dump, &anchors);
        assert_eq!(delays.export.len(), 3);
        let exported: usize = delays.export.values().map(Ecdf::len).sum();
        assert_eq!(
            exported,
            delays.arrival.len(),
            "one export delay per arrival"
        );
        let a50 = delays.arrival.quantile(0.5).unwrap();
        for (project, export) in &delays.export {
            if export.is_empty() {
                continue;
            }
            let e50 = export.quantile(0.5).unwrap();
            assert!(
                e50 >= a50,
                "{project:?}: export median {e50} < arrival {a50}"
            );
        }
    }
}
