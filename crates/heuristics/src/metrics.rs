//! Implementations of the three heuristics and their combination.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use beacon::{BeaconSchedule, Phase};
use bgpsim::{AsId, Prefix};
use collector::{Dump, PathId};
use netsim::stats::{linear_fit_bins, Histogram};
use signature::LabeledPath;

/// Histogram buckets for M3 (the paper uses 40).
pub const M3_BINS: usize = 40;

/// Combination settings.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Decision threshold on the averaged score.
    pub threshold: f64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig { threshold: 0.5 }
    }
}

/// The three per-AS metric values (absent where an AS had no data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AsScores {
    /// M1: RFD path ratio.
    pub path_ratio: Option<f64>,
    /// M2: share of alternative paths avoiding this AS.
    pub alt_path: Option<f64>,
    /// M3: burst announcement-distribution score.
    pub burst_slope: Option<f64>,
}

impl AsScores {
    /// The averaged score over available metrics (`None` if none).
    pub fn combined(&self) -> Option<f64> {
        let values: Vec<f64> = [self.path_ratio, self.alt_path, self.burst_slope]
            .into_iter()
            .flatten()
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Heuristic verdict at the given threshold.
    pub fn is_rfd(&self, threshold: f64) -> bool {
        self.combined().map(|s| s >= threshold).unwrap_or(false)
    }
}

/// Per-AS heuristic outputs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HeuristicScores {
    /// Scores per AS.
    pub per_as: BTreeMap<AsId, AsScores>,
}

impl HeuristicScores {
    /// ASs flagged RFD at the threshold.
    pub fn rfd_ases(&self, threshold: f64) -> Vec<AsId> {
        self.per_as
            .iter()
            .filter(|(_, s)| s.is_rfd(threshold))
            .map(|(&a, _)| a)
            .collect()
    }
}

/// **M1** — per AS: `#RFD paths / (#RFD + #non-RFD paths)` (§5.2.1).
pub fn path_ratio(labels: &[LabeledPath]) -> BTreeMap<AsId, f64> {
    let mut rfd: BTreeMap<AsId, u32> = BTreeMap::new();
    let mut total: BTreeMap<AsId, u32> = BTreeMap::new();
    for l in labels {
        for &a in l.path.asns() {
            *total.entry(a).or_insert(0) += 1;
            if l.rfd {
                *rfd.entry(a).or_insert(0) += 1;
            }
        }
    }
    total
        .into_iter()
        .map(|(a, t)| {
            (
                a,
                f64::from(rfd.get(&a).copied().unwrap_or(0)) / f64::from(t),
            )
        })
        .collect()
}

/// **M2** — alternative-path analysis (§5.2.2).
///
/// For every damped path, the *alternative paths* are the other distinct
/// paths observed between the same beacon prefix and vantage point
/// (revealed by path hunting). For each AS on the damped path, score the
/// share of alternatives that avoid the AS; average over all damped paths
/// the AS sits on. ASs on no damped path get no score.
pub fn alternative_paths(labels: &[LabeledPath]) -> BTreeMap<AsId, f64> {
    // Group observed paths by (vantage, prefix).
    let mut groups: BTreeMap<(AsId, Prefix), Vec<&LabeledPath>> = BTreeMap::new();
    for l in labels {
        groups.entry((l.vantage, l.prefix)).or_default().push(l);
    }
    let mut sums: BTreeMap<AsId, f64> = BTreeMap::new();
    let mut counts: BTreeMap<AsId, u32> = BTreeMap::new();
    for paths in groups.values() {
        for damped in paths.iter().filter(|l| l.rfd) {
            let alts: Vec<&&LabeledPath> = paths.iter().filter(|l| l.path != damped.path).collect();
            if alts.is_empty() {
                continue;
            }
            for &a in damped.path.asns() {
                let avoiding =
                    alts.iter().filter(|l| !l.path.contains(a)).count() as f64 / alts.len() as f64;
                *sums.entry(a).or_insert(0.0) += avoiding;
                *counts.entry(a).or_insert(0) += 1;
            }
        }
    }
    sums.into_iter()
        .map(|(a, s)| (a, s / f64::from(counts[&a])))
        .collect()
}

/// **M3** — announcement distribution across Bursts (§5.2.3, Fig. 10).
///
/// Builds, per AS, a histogram of announcement arrivals over the relative
/// Burst time for every path containing the AS ([`burst_histograms`]),
/// fits a linear regression to the bin heights, and maps the decline to
/// `[0, 1]`: a line that falls to zero over the Burst scores 1, a flat or
/// rising line scores 0.
pub fn burst_distribution(
    dump: &Dump,
    schedule: &BeaconSchedule,
    bins: usize,
) -> BTreeMap<AsId, f64> {
    burst_histograms(dump, schedule, bins)
        .into_iter()
        .filter_map(|(a, h)| {
            let fit = linear_fit_bins(&h.heights())?;
            let score = if fit.slope >= 0.0 {
                0.0
            } else {
                // Relative decline across the burst, clamped to [0, 1].
                (-fit.relative_change(0.0, (bins - 1) as f64)).clamp(0.0, 1.0)
            };
            Some((a, score))
        })
        .collect()
}

/// M3's histograms: per AS, the arrivals of the schedule's valid burst
/// announcements over relative Burst time, in `bins` bins over
/// `[0, 1)`, counted on every path through the AS (what Fig. 10 plots).
pub fn burst_histograms(
    dump: &Dump,
    schedule: &BeaconSchedule,
    bins: usize,
) -> BTreeMap<AsId, Histogram> {
    // One histogram per distinct clean path, added into the histogram of
    // each of its ASs. Bin heights are counts, so the order of the
    // additions does not matter.
    let mut by_path: HashMap<PathId, Histogram> = HashMap::new();
    let records = dump
        .streams_of(schedule.prefix)
        .flat_map(|(_, _, _, stream)| stream);
    for record in records {
        // The validity filter: an announcement with a valid stamp.
        let (Some(path), Some(sent)) = (record.path, record.beacon_time()) else {
            continue;
        };
        // Locate the burst this announcement belongs to.
        let Phase::Burst(burst) = schedule.phase_at(sent) else {
            continue;
        };
        // Relative position of the *arrival* within the burst; damped
        // paths stop receiving early, re-advertisements land past 1.0 and
        // clamp into the last bin — which is fine, they are a single
        // update against dozens of missing ones.
        let rel = record
            .exported_at
            .saturating_since(schedule.burst_start(burst))
            .as_secs_f64()
            / schedule.burst_duration.as_secs_f64();
        by_path
            .entry(path)
            .or_insert_with(|| Histogram::new(0.0, 1.0, bins))
            .push(rel.min(1.0 - 1e-9));
    }
    let mut histograms: BTreeMap<AsId, Histogram> = BTreeMap::new();
    for (&path, h) in &by_path {
        for &a in dump.path(path).asns() {
            histograms
                .entry(a)
                .or_insert_with(|| Histogram::new(0.0, 1.0, bins))
                .merge(h);
        }
    }
    histograms
}

/// Run all three heuristics and combine per AS. The scores do not
/// depend on the configuration: its threshold applies to the result
/// ([`HeuristicScores::rfd_ases`]), and M3 uses [`M3_BINS`].
pub fn evaluate(
    labels: &[LabeledPath],
    dump: &Dump,
    schedules: &[&BeaconSchedule],
    _config: &HeuristicConfig,
) -> HeuristicScores {
    let m1 = path_ratio(labels);
    let m2 = alternative_paths(labels);
    let mut m3: BTreeMap<AsId, Vec<f64>> = BTreeMap::new();
    for s in schedules {
        for (a, v) in burst_distribution(dump, s, M3_BINS) {
            m3.entry(a).or_default().push(v);
        }
    }
    let m3: BTreeMap<AsId, f64> = m3
        .into_iter()
        .map(|(a, vs)| {
            let mean = vs.iter().sum::<f64>() / vs.len() as f64;
            (a, mean)
        })
        .collect();

    let mut per_as: BTreeMap<AsId, AsScores> = BTreeMap::new();
    for (&a, &v) in &m1 {
        per_as.entry(a).or_default().path_ratio = Some(v);
    }
    for (&a, &v) in &m2 {
        per_as.entry(a).or_default().alt_path = Some(v);
    }
    for (&a, &v) in &m3 {
        per_as.entry(a).or_default().burst_slope = Some(v);
    }
    HeuristicScores { per_as }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::CleanPath;
    use netsim::{SimDuration, SimTime};

    fn lp(vantage: u32, path: &[u32], rfd: bool) -> LabeledPath {
        LabeledPath {
            vantage: AsId(vantage),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: CleanPath::from_asns(&path.iter().map(|&i| AsId(i)).collect::<Vec<_>>()),
            pairs_total: 5,
            pairs_matching: if rfd { 5 } else { 0 },
            pairs_unobservable: 0,
            r_deltas: vec![],
            break_deltas: vec![],
            rfd,
            unobservable: false,
        }
    }

    #[test]
    fn m1_ratio_counts_paths() {
        let labels = vec![
            lp(100, &[100, 1, 65000], true),
            lp(101, &[101, 1, 65000], true),
            lp(102, &[102, 1, 65000], false),
            lp(102, &[102, 2, 65000], false),
        ];
        let m1 = path_ratio(&labels);
        assert!((m1[&AsId(1)] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m1[&AsId(2)], 0.0);
        // The beacon origin sits on all 4 paths, 2 of them RFD.
        assert!((m1[&AsId(65000)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn m2_scores_damper_absent_from_alternatives() {
        // VP 100 sees a damped path through AS 1 and two alternatives
        // through AS 2 and AS 3 (path hunting).
        let labels = vec![
            lp(100, &[100, 1, 65000], true),
            lp(100, &[100, 2, 65000], false),
            lp(100, &[100, 3, 65000], false),
        ];
        let m2 = alternative_paths(&labels);
        // AS 1 avoids both alternatives → 1.0.
        assert!((m2[&AsId(1)] - 1.0).abs() < 1e-12);
        // VP AS 100 is on every alternative → 0.0.
        assert!((m2[&AsId(100)] - 0.0).abs() < 1e-12);
        // ASs not on damped paths have no score.
        assert!(!m2.contains_key(&AsId(2)));
    }

    #[test]
    fn m2_no_alternatives_no_score() {
        let labels = vec![lp(100, &[100, 1, 65000], true)];
        let m2 = alternative_paths(&labels);
        assert!(m2.is_empty());
    }

    #[test]
    fn m3_declining_histogram_scores_high() {
        use bgpsim::AggregatorStamp;
        use collector::{Project, UpdateRecord};
        let schedule = BeaconSchedule::standard(
            "10.0.0.0/24".parse().unwrap(),
            AsId(65000),
            SimDuration::from_mins(1),
            SimDuration::from_hours(2),
            SimTime::ZERO,
            1,
        );
        let mk = |sent: SimTime, arrival: SimTime, via: u32| {
            let record = UpdateRecord {
                observed_at: arrival,
                exported_at: arrival,
                path: None,
                aggregator: Some(AggregatorStamp::new(sent)),
            };
            let path = CleanPath::from_asns(&[AsId(900), AsId(via), AsId(65000)]);
            (
                schedule.prefix,
                AsId(900),
                Project::Isolario,
                record,
                Some(path),
            )
        };
        let mut records = Vec::new();
        for (j, e) in schedule.burst_events(0).iter().enumerate() {
            if j % 2 == 0 {
                continue; // withdrawals
            }
            let lag = SimDuration::from_secs(20);
            // Path via AS 1: only the first 25 % of announcements arrive
            // (damping), via AS 2: everything arrives.
            if (e.at.saturating_since(schedule.burst_start(0))).as_secs_f64()
                < 0.25 * schedule.burst_duration.as_secs_f64()
            {
                records.push(mk(e.at, e.at + lag, 1));
            }
            records.push(mk(e.at, e.at + lag, 2));
        }
        let dump = Dump::new(records);
        let m3 = burst_distribution(&dump, &schedule, 40);
        let damped = m3[&AsId(1)];
        let clean = m3[&AsId(2)];
        assert!(damped > 0.8, "damped score {damped}");
        assert!(clean < 0.2, "clean score {clean}");
    }

    #[test]
    fn combination_and_threshold() {
        let s = AsScores {
            path_ratio: Some(1.0),
            alt_path: Some(0.8),
            burst_slope: Some(0.9),
        };
        assert!((s.combined().unwrap() - 0.9).abs() < 1e-12);
        assert!(s.is_rfd(0.5));
        assert!(!s.is_rfd(0.95));

        let partial = AsScores {
            path_ratio: Some(0.2),
            alt_path: None,
            burst_slope: None,
        };
        assert!((partial.combined().unwrap() - 0.2).abs() < 1e-12);

        let empty = AsScores::default();
        assert_eq!(empty.combined(), None);
        assert!(!empty.is_rfd(0.0));
    }

    #[test]
    fn evaluate_merges_all_metrics() {
        let labels = vec![
            lp(100, &[100, 1, 65000], true),
            lp(100, &[100, 2, 65000], false),
        ];
        let schedule = BeaconSchedule::standard(
            "10.0.0.0/24".parse().unwrap(),
            AsId(65000),
            SimDuration::from_mins(1),
            SimDuration::from_hours(2),
            SimTime::ZERO,
            1,
        );
        let scores = evaluate(
            &labels,
            &Dump::default(),
            &[&schedule],
            &HeuristicConfig::default(),
        );
        let s1 = scores.per_as[&AsId(1)];
        assert_eq!(s1.path_ratio, Some(1.0));
        assert!(s1.alt_path.is_some());
        assert_eq!(s1.burst_slope, None, "empty dump → no M3");
        let flagged = scores.rfd_ases(0.9);
        assert!(flagged.contains(&AsId(1)));
        assert!(!flagged.contains(&AsId(2)));
    }

    #[test]
    fn stub_bias_false_positive_mode() {
        // The documented M1 weakness: a stub whose only upstream damps is
        // scored 1.0 even though it does not damp itself.
        let labels = vec![
            lp(100, &[100, 7, 42, 65000], true), // 42 damps, 7 is innocent upstream path hop
            lp(101, &[101, 7, 42, 65000], true),
        ];
        let m1 = path_ratio(&labels);
        assert_eq!(
            m1[&AsId(7)],
            1.0,
            "co-traveller inherits the damper's ratio"
        );
        assert_eq!(m1[&AsId(42)], 1.0);
    }
}
