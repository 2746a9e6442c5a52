//! Burst–Break pairing, r-delta computation and the ≥ 90 % labeling rule.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use beacon::BeaconSchedule;
use bgpsim::{AsId, Prefix};
use collector::{CleanPath, Dump, UpdateRecord};
use netsim::{SimDuration, SimTime};

/// Detection thresholds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LabelingConfig {
    /// Minimum r-delta to count as the RFD signature (paper: 5 minutes —
    /// clearly above propagation ≤ 1 min plus MRAI ≈ 30 s).
    pub min_r_delta: SimDuration,
    /// Slack after the burst end within which arrivals still count as
    /// burst-phase updates (propagation + MRAI + export cadence).
    pub propagation_bound: SimDuration,
    /// Share of Burst–Break pairs that must match to label a path RFD
    /// (paper: 90 %, tolerating session resets).
    pub signature_share: f64,
    /// Minimum number of pairs with data required to label at all.
    pub min_pairs: usize,
    /// The *suppression* half of the signature (Fig. 5: "first the
    /// announcements are damped away"): a pair only matches when the
    /// burst delivered at most this share of the scheduled updates.
    /// Guards against convergence echoes — on a churning network a stray
    /// copy of the final burst announcement can surface minutes into the
    /// break even without damping, but only damping silences the burst.
    pub max_burst_delivery_share: f64,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            min_r_delta: SimDuration::from_mins(5),
            propagation_bound: SimDuration::from_mins(2),
            signature_share: 0.9,
            min_pairs: 1,
            max_burst_delivery_share: 0.5,
        }
    }
}

/// What one Burst–Break pair showed for one (vantage, prefix).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Burst index.
    pub burst: usize,
    /// The path this pair is attributed to (the steady/re-advertised one).
    pub path: CleanPath,
    /// Observed r-delta (last burst update → re-advertisement, the §4.2
    /// labeling quantity), when a break re-advertisement existed.
    pub r_delta: Option<SimDuration>,
    /// Break delta (end of Burst → re-advertisement), the §6.2 quantity
    /// plotted in Fig. 13 — equals max-suppress-time when the penalty
    /// saturated at its ceiling.
    pub break_delta: Option<SimDuration>,
    /// Whether the pair matches the RFD signature.
    pub matches: bool,
    /// False when a vantage-point outage overlapped this pair's
    /// Burst–Break window: whatever was (not) seen cannot be trusted, so
    /// the pair is excluded from the labeling rule instead of counting
    /// as "no signature".
    pub observable: bool,
}

/// Aggregated label for one (vantage, prefix, path).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabeledPath {
    /// The vantage point.
    pub vantage: AsId,
    /// The beacon prefix.
    pub prefix: Prefix,
    /// The cleaned path (vantage first, beacon origin last).
    pub path: CleanPath,
    /// Burst–Break pairs attributed to this path.
    pub pairs_total: usize,
    /// Pairs matching the RFD signature.
    pub pairs_matching: usize,
    /// All observed r-deltas (§4.2 definition: last burst update →
    /// re-advertisement).
    pub r_deltas: Vec<SimDuration>,
    /// All observed break deltas (§6.2 / Fig. 13 definition: burst end →
    /// re-advertisement).
    pub break_deltas: Vec<SimDuration>,
    /// Pairs eaten by a vantage-point outage — excluded from
    /// `pairs_total` and from the ≥ 90 % rule.
    pub pairs_unobservable: usize,
    /// The verdict: RFD path or not. Always false when `unobservable`.
    pub rfd: bool,
    /// True when an outage left this path with fewer observable pairs
    /// than `min_pairs`: the path has no usable data and must not be
    /// read as "clean" downstream.
    pub unobservable: bool,
}

impl LabeledPath {
    /// Mean r-delta in minutes (§4.2 quantity).
    pub fn mean_r_delta_mins(&self) -> Option<f64> {
        if self.r_deltas.is_empty() {
            return None;
        }
        let sum: f64 = self.r_deltas.iter().map(|d| d.as_mins_f64()).sum();
        Some(sum / self.r_deltas.len() as f64)
    }

    /// Mean break delta in minutes — what Fig. 13 actually plots (it
    /// rarely exceeds max-suppress-time ≈ 60 min).
    pub fn mean_break_delta_mins(&self) -> Option<f64> {
        if self.break_deltas.is_empty() {
            return None;
        }
        let sum: f64 = self.break_deltas.iter().map(|d| d.as_mins_f64()).sum();
        Some(sum / self.break_deltas.len() as f64)
    }
}

/// Label every (vantage, prefix, path) in `dump` against `schedule`,
/// aware of vantage-point outage windows: the ones the collector applied
/// ([`Dump::vp_outages`]), or any other known infrastructure failures;
/// empty when there are none. Paths come clean from the dump.
///
/// Only the schedule's prefix's streams are read ([`Dump::streams_of`]);
/// run once per beacon prefix (each (site, prefix) is an independent
/// experiment, §4.3).
///
/// A Burst–Break pair whose window overlaps its vantage point's outage
/// is *unobservable*: the outage may have eaten the burst (faking
/// suppression) or the re-advertisement (faking cleanliness), so the
/// pair is excluded from the ≥ 90 % rule rather than mislabeled. Paths
/// left with no observable pairs are emitted with
/// [`LabeledPath::unobservable`] set instead of being called clean.
pub fn label_dump_with_outages(
    dump: &Dump,
    schedule: &BeaconSchedule,
    config: &LabelingConfig,
    outages: &BTreeMap<AsId, (SimTime, SimTime)>,
) -> Vec<LabeledPath> {
    // Only this schedule's streams: per vantage point, ascending.
    let prefix = schedule.prefix;
    let mut out = Vec::new();
    for (_, vantage, _, records) in dump.streams_of(prefix) {
        let outage = outages.get(&vantage).copied();
        let mut per_path: BTreeMap<CleanPath, LabeledPath> = BTreeMap::new();
        for o in pair_outcomes_with_outage(records, schedule, config, outage) {
            let l = per_path
                .entry(o.path.clone())
                .or_insert_with(|| LabeledPath {
                    vantage,
                    prefix,
                    path: o.path,
                    pairs_total: 0,
                    pairs_matching: 0,
                    r_deltas: Vec::new(),
                    break_deltas: Vec::new(),
                    pairs_unobservable: 0,
                    rfd: false,
                    unobservable: false,
                });
            if !o.observable {
                l.pairs_unobservable += 1;
                continue;
            }
            l.pairs_total += 1;
            l.pairs_matching += usize::from(o.matches);
            l.r_deltas.extend(o.r_delta);
            l.break_deltas.extend(o.break_delta);
        }
        for mut l in per_path.into_values() {
            if l.pairs_total >= config.min_pairs {
                l.rfd = l.pairs_matching as f64 / l.pairs_total as f64 >= config.signature_share;
                out.push(l);
            } else if l.pairs_unobservable > 0 {
                // Too few observable pairs *because* of the outage: say
                // so instead of silently dropping or mislabeling.
                l.unobservable = true;
                out.push(l);
            }
        }
    }
    out
}

/// Snapshot a label set into a `signature.labels` report section:
/// RFD/clean path counts and the r-delta distribution (minutes).
pub fn obs_section(labels: &[LabeledPath]) -> obs::Section {
    let mut section = obs::Section::new("signature.labels");
    let rfd = labels.iter().filter(|l| l.rfd).count();
    let unobservable = labels.iter().filter(|l| l.unobservable).count();
    section.counter("paths_rfd", rfd as u64);
    section.counter("paths_clean", (labels.len() - rfd - unobservable) as u64);
    section.counter("paths_unobservable", unobservable as u64);
    section.counter(
        "pairs_unobservable",
        labels.iter().map(|l| l.pairs_unobservable as u64).sum(),
    );
    // Bounds straddle the 5-minute labeling threshold up to the RFD
    // max-suppress ceiling (≈ 60 min plus reuse-timer slack).
    let mut r_deltas = obs::Histogram::new(&[1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0]);
    for l in labels {
        for d in &l.r_deltas {
            r_deltas.record(d.as_mins_f64());
        }
    }
    section.histogram("r_delta_mins", &r_deltas);
    section
}

/// Analyse every Burst–Break pair for one (vantage, prefix) record
/// stream, aware of the vantage point's outage window: pairs whose
/// Burst–Break window overlaps it come back with
/// [`PairOutcome::observable`] false and no match verdict.
pub fn pair_outcomes_with_outage(
    records: &[UpdateRecord],
    schedule: &BeaconSchedule,
    config: &LabelingConfig,
    outage: Option<(SimTime, SimTime)>,
) -> Vec<PairOutcome> {
    let mut outcomes = Vec::new();
    for i in 0..schedule.cycles {
        let burst_start = schedule.burst_start(i);
        let burst_end = schedule.burst_end(i);
        let break_end = schedule.break_end(i);
        let burst_cutoff = burst_end + config.propagation_bound;
        // Conservative observability rule: any overlap between the
        // outage and this pair's full window taints the pair.
        let observable = match outage {
            Some((o0, o1)) => o1 <= burst_start || o0 >= break_end,
            None => true,
        };

        // Records attributable to this pair's burst phase. Announcements
        // must carry a valid stamp from within the burst (the validity
        // filter); withdrawals carry no stamp and are accepted by time.
        let in_burst: Vec<&UpdateRecord> = records
            .iter()
            .filter(|r| {
                if r.exported_at < burst_start || r.exported_at >= burst_cutoff {
                    return false;
                }
                match (&r.path, r.beacon_time()) {
                    (Some(_), Some(sent)) => sent >= burst_start && sent < burst_end,
                    (Some(_), None) => false, // invalid stamp: discarded
                    (None, _) => true,        // withdrawal
                }
            })
            .collect();
        if in_burst.is_empty() {
            continue; // no data for this pair (session reset, unreachable…)
        }
        let last_burst_at = in_burst.last().expect("non-empty").exported_at;

        // The re-advertisement: first valid announcement in the break
        // window whose stamp replays a burst announcement.
        let re_adv = records.iter().find(|r| {
            r.exported_at >= burst_cutoff
                && r.exported_at < break_end
                && r.path.is_some()
                && matches!(r.beacon_time(), Some(sent) if sent >= burst_start && sent < burst_end)
        });

        // Attribute the pair to a path: the re-advertised path when
        // present, otherwise the last announced path of the burst.
        let path_record =
            re_adv.or_else(|| in_burst.iter().rev().find(|r| r.path.is_some()).copied());
        let Some(path) = path_record.and_then(|r| r.path.clone()) else {
            continue; // only withdrawals seen: nothing to attribute
        };

        let r_delta = re_adv.map(|r| r.exported_at.saturating_since(last_burst_at));
        let break_delta = re_adv.map(|r| r.exported_at.saturating_since(burst_end));
        // Both halves of the signature: the burst was damped away (far
        // fewer updates than scheduled) AND the re-advertisement was
        // delayed beyond anything propagation/MRAI can produce.
        let expected = schedule.updates_per_burst().max(1);
        let suppressed =
            (in_burst.len() as f64) <= config.max_burst_delivery_share * expected as f64;
        let matches =
            observable && suppressed && r_delta.map(|d| d >= config.min_r_delta).unwrap_or(false);
        outcomes.push(PairOutcome {
            burst: i,
            path,
            r_delta: if observable { r_delta } else { None },
            break_delta: if observable { break_delta } else { None },
            matches,
            observable,
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::AggregatorStamp;
    use collector::Project;
    use netsim::SimTime;

    fn schedule() -> BeaconSchedule {
        BeaconSchedule::standard(
            "10.0.0.0/24".parse().unwrap(),
            AsId(65000),
            SimDuration::from_mins(1),
            SimDuration::from_hours(2),
            SimTime::ZERO,
            3,
        )
    }

    fn asns(ids: &[u32]) -> Vec<AsId> {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    type Keyed = (Prefix, AsId, Project, UpdateRecord);

    /// A collected record: its path, if any, already clean.
    fn rec(t: SimTime, announced: bool, stamp: Option<SimTime>, path: &[u32]) -> UpdateRecord {
        UpdateRecord {
            observed_at: t,
            exported_at: t,
            path: announced.then(|| CleanPath::from_asns(&asns(path))),
            aggregator: stamp.map(AggregatorStamp::new),
        }
    }

    /// A faithful non-RFD stream: every beacon event arrives ~30 s later.
    fn non_rfd_stream(s: &BeaconSchedule) -> Vec<UpdateRecord> {
        let lag = SimDuration::from_secs(30);
        let mut v = vec![rec(s.start + lag, true, Some(s.start), &[900, 100, 65000])];
        for i in 0..s.cycles {
            for (j, e) in s.burst_events(i).iter().enumerate() {
                let announced = j % 2 == 1;
                v.push(rec(
                    e.at + lag,
                    announced,
                    announced.then_some(e.at),
                    &[900, 100, 65000],
                ));
            }
        }
        v
    }

    /// An RFD stream: the first 10 burst updates arrive, then silence,
    /// then a re-advertisement 40 minutes into the break.
    fn rfd_stream(s: &BeaconSchedule) -> Vec<UpdateRecord> {
        let lag = SimDuration::from_secs(30);
        let mut v = vec![rec(s.start + lag, true, Some(s.start), &[900, 100, 65000])];
        for i in 0..s.cycles {
            let events = s.burst_events(i);
            for (j, e) in events.iter().enumerate().take(10) {
                let announced = j % 2 == 1;
                v.push(rec(
                    e.at + lag,
                    announced,
                    announced.then_some(e.at),
                    &[900, 100, 65000],
                ));
            }
            // Suppression: nothing more during the burst. Withdrawal of the
            // damped route propagates once:
            v.push(rec(events[10].at + lag, false, None, &[]));
            // Re-advertisement 40 min into the break, replaying the final
            // burst announcement's stamp.
            let final_announce = s.final_burst_announce(i);
            v.push(rec(
                s.burst_end(i) + SimDuration::from_mins(40),
                true,
                Some(final_announce),
                &[900, 100, 65000],
            ));
        }
        v
    }

    /// `records` as `vp`'s stream for `prefix`, in collection order.
    fn keyed(prefix: Prefix, vp: u32, records: Vec<UpdateRecord>) -> Vec<Keyed> {
        records
            .into_iter()
            .map(|r| (prefix, AsId(vp), Project::Isolario, r))
            .collect()
    }

    /// `records` as VP 900's stream for the schedule's prefix.
    fn dump(records: Vec<UpdateRecord>, s: &BeaconSchedule) -> Dump {
        Dump::new(keyed(s.prefix, 900, records))
    }

    fn label(records: Vec<UpdateRecord>, s: &BeaconSchedule) -> Vec<LabeledPath> {
        label_dump(&dump(records, s), s)
    }

    fn label_dump(dump: &Dump, s: &BeaconSchedule) -> Vec<LabeledPath> {
        label_dump_with_outages(dump, s, &LabelingConfig::default(), &BTreeMap::new())
    }

    /// `records` with VP 901 in place of VP 900 at the head of each path.
    fn via_vp_901(mut records: Vec<UpdateRecord>) -> Vec<UpdateRecord> {
        for r in records.iter_mut() {
            if let Some(path) = &r.path {
                let mut asns: Vec<AsId> = path.asns().to_vec();
                asns[0] = AsId(901);
                r.path = Some(CleanPath::from_asns(&asns));
            }
        }
        records
    }

    #[test]
    fn non_rfd_path_labeled_clean() {
        let s = schedule();
        let labels = label(non_rfd_stream(&s), &s);
        assert_eq!(labels.len(), 1);
        let l = &labels[0];
        assert!(!l.rfd);
        assert_eq!(l.pairs_total, 3);
        assert_eq!(l.pairs_matching, 0);
        assert!(l.r_deltas.is_empty());
    }

    #[test]
    fn rfd_path_labeled_damped_with_rdelta() {
        let s = schedule();
        let labels = label(rfd_stream(&s), &s);
        assert_eq!(labels.len(), 1);
        let l = &labels[0];
        assert!(l.rfd);
        assert_eq!(l.pairs_total, 3);
        assert_eq!(l.pairs_matching, 3);
        assert_eq!(l.r_deltas.len(), 3);
        // r-delta ≈ (burst_end + 40 min) − (11th update arrival)
        let mean = l.mean_r_delta_mins().unwrap();
        assert!(mean > 30.0, "mean r-delta {mean} should be large");
    }

    #[test]
    fn ninety_percent_rule_tolerates_one_bad_pair() {
        // 10 bursts, 9 matching: still RFD. 8 of 10: not RFD.
        let mut s = schedule();
        s.cycles = 10;
        let mut records = rfd_stream(&s);
        // Remove the re-advertisement of the last burst (simulate a reset
        // by replacing it with nothing): drop the final record.
        let re_adv_at = |i: usize| s.burst_end(i) + SimDuration::from_mins(40);
        let last_re_adv = records
            .iter()
            .position(|r| r.path.is_some() && r.exported_at == re_adv_at(9))
            .unwrap();
        records.remove(last_re_adv);
        let labels = label(records.clone(), &s);
        assert!(labels[0].rfd, "9/10 still ≥ 90 %");

        // Remove another burst's re-advertisement → 8/10 < 90 %.
        let re_adv_8 = records
            .iter()
            .position(|r| r.path.is_some() && r.exported_at == re_adv_at(8))
            .unwrap();
        records.remove(re_adv_8);
        let labels = label(records, &s);
        assert!(!labels[0].rfd, "8/10 < 90 %");
    }

    #[test]
    fn mrai_delayed_finale_is_not_a_signature() {
        // The final burst announcement arrives 90 s late (MRAI + slow
        // propagation) — within the propagation bound, so no false RFD.
        let s = schedule();
        let mut records = non_rfd_stream(&s);
        // Delay each burst's final announcement by 90 s extra.
        for i in 0..s.cycles {
            let fin = s.final_burst_announce(i);
            for r in records.iter_mut() {
                if r.beacon_time() == Some(fin) {
                    r.exported_at += SimDuration::from_secs(90);
                    r.observed_at = r.exported_at;
                }
            }
        }
        records.sort_by_key(|r| r.exported_at);
        let labels = label(records, &s);
        assert_eq!(labels.len(), 1);
        assert!(!labels[0].rfd, "MRAI delay must not look like damping");
    }

    #[test]
    fn full_burst_with_late_echo_is_not_a_signature() {
        // Every scheduled update arrived (no damping), but a stray copy
        // of the final announcement surfaces 6 minutes into the break —
        // BGP convergence echo, not RFD. The suppression half of the
        // signature must veto the match.
        let s = schedule();
        let mut records = non_rfd_stream(&s);
        for i in 0..s.cycles {
            let fin = s.final_burst_announce(i);
            records.push(rec(
                s.burst_end(i) + SimDuration::from_mins(6),
                true,
                Some(fin),
                &[900, 100, 65000],
            ));
        }
        records.sort_by_key(|r| r.exported_at);
        let labels = label(records, &s);
        assert_eq!(labels.len(), 1);
        assert!(!labels[0].rfd, "convergence echo must not read as damping");
    }

    #[test]
    fn corrupted_stamps_are_discarded() {
        let s = schedule();
        let mut records = rfd_stream(&s);
        // Corrupt every aggregator: all announcements get discarded, so
        // only withdrawals remain per burst → pairs have no announce to
        // attribute, or no re-advertisement to find.
        for r in records.iter_mut() {
            if let Some(stamp) = r.aggregator {
                r.aggregator = Some(stamp.corrupted());
            }
        }
        let labels = label(records, &s);
        assert!(
            labels.is_empty(),
            "no valid announcements → nothing labeled"
        );
    }

    #[test]
    fn pairs_without_data_are_skipped() {
        let s = schedule();
        // Data only for burst 0; bursts 1 and 2 silent.
        let records: Vec<UpdateRecord> = non_rfd_stream(&s)
            .into_iter()
            .filter(|r| r.exported_at < s.burst_end(0) + SimDuration::from_mins(2))
            .collect();
        let labels = label(records, &s);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].pairs_total, 1);
    }

    #[test]
    fn obs_section_counts_labels_and_buckets_rdeltas() {
        let s = schedule();
        let mut records = keyed(s.prefix, 900, rfd_stream(&s));
        records.extend(keyed(s.prefix, 901, via_vp_901(non_rfd_stream(&s))));
        let labels = label_dump(&Dump::new(records), &s);
        assert_eq!(labels.len(), 2);

        let section = obs_section(&labels);
        assert_eq!(section.name, "signature.labels");
        assert_eq!(section.get("paths_rfd"), Some(&obs::Value::Counter(1)));
        assert_eq!(section.get("paths_clean"), Some(&obs::Value::Counter(1)));
        match section.get("r_delta_mins") {
            // Three ~40-minute r-deltas from the damped path.
            Some(obs::Value::Histogram(h)) => {
                assert_eq!(h.count, 3);
                assert!(h.mean() > 30.0, "mean {} should be ≈ 40 min", h.mean());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn empty_labels_have_no_means() {
        let l = LabeledPath {
            vantage: AsId(1),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: CleanPath::from_asns(&[AsId(1), AsId(2)]),
            pairs_total: 0,
            pairs_matching: 0,
            r_deltas: Vec::new(),
            break_deltas: Vec::new(),
            pairs_unobservable: 0,
            rfd: false,
            unobservable: false,
        };
        assert_eq!(l.mean_r_delta_mins(), None);
        assert_eq!(l.mean_break_delta_mins(), None);
    }

    #[test]
    fn outage_over_one_break_excludes_the_pair_not_the_path() {
        let s = schedule();
        // Outage eats burst 0's break window (where its re-advertisement
        // lives). Without outage awareness that pair would still match
        // here (records exist in the dump), so observability must come
        // from the window rule, not from missing data.
        let outage = (
            s.burst_end(0) + SimDuration::from_mins(30),
            s.burst_end(0) + SimDuration::from_mins(50),
        );
        let mut outages = BTreeMap::new();
        outages.insert(AsId(900), outage);
        let dump = dump(rfd_stream(&s), &s);
        let labels = label_dump_with_outages(&dump, &s, &LabelingConfig::default(), &outages);
        assert_eq!(labels.len(), 1);
        let l = &labels[0];
        assert!(!l.unobservable);
        assert_eq!(l.pairs_unobservable, 1, "burst 0's pair is tainted");
        assert_eq!(l.pairs_total, 2, "only observable pairs count");
        assert_eq!(l.pairs_matching, 2);
        assert_eq!(l.r_deltas.len(), 2, "tainted pair contributes no r-delta");
        assert!(l.rfd, "2/2 observable pairs still match");
    }

    #[test]
    fn outage_over_everything_labels_path_unobservable() {
        let s = schedule();
        let mut outages = BTreeMap::new();
        outages.insert(AsId(900), (SimTime::ZERO, s.break_end(s.cycles - 1)));
        let dump = dump(rfd_stream(&s), &s);
        let labels = label_dump_with_outages(&dump, &s, &LabelingConfig::default(), &outages);
        assert_eq!(labels.len(), 1);
        let l = &labels[0];
        assert!(l.unobservable, "no observable pair → unobservable label");
        assert!(!l.rfd, "an unobservable path is never called RFD");
        assert_eq!(l.pairs_total, 0);
        assert_eq!(l.pairs_unobservable, 3);

        let section = obs_section(&labels);
        assert_eq!(
            section.get("paths_unobservable"),
            Some(&obs::Value::Counter(1))
        );
        assert_eq!(section.get("paths_clean"), Some(&obs::Value::Counter(0)));
        assert_eq!(
            section.get("pairs_unobservable"),
            Some(&obs::Value::Counter(3))
        );
    }

    #[test]
    fn outage_on_another_vantage_changes_nothing() {
        let s = schedule();
        let mut outages = BTreeMap::new();
        outages.insert(AsId(901), (SimTime::ZERO, SimTime::from_mins(100000)));
        let dump = dump(rfd_stream(&s), &s);
        let with = label_dump_with_outages(&dump, &s, &LabelingConfig::default(), &outages);
        assert_eq!(with, label_dump(&dump, &s));
    }

    #[test]
    fn other_prefixes_are_ignored() {
        let s = schedule();
        let other: Prefix = "10.0.99.0/24".parse().unwrap();
        let dump = Dump::new(keyed(other, 900, non_rfd_stream(&s)));
        assert!(label_dump(&dump, &s).is_empty());
    }

    mod properties {
        use super::*;
        use netsim::SimRng;
        use proptest::prelude::*;

        /// The two-vantage mixed stream: one damped path, one clean.
        fn mixed_records(s: &BeaconSchedule) -> Vec<Keyed> {
            let mut records = keyed(s.prefix, 900, rfd_stream(s));
            records.extend(keyed(s.prefix, 901, via_vp_901(non_rfd_stream(s))));
            records.sort_by_key(|k| (k.3.exported_at, k.1, k.0));
            records
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Labeling is invariant under record duplication and
            /// bounded reordering of the raw dump — the dump production
            /// labels, with no repair step: transport-level record
            /// shuffling must never flip a verdict.
            #[test]
            fn labels_survive_duplication_and_bounded_reordering(seed in any::<u64>()) {
                let s = schedule();
                let records = mixed_records(&s);

                let baseline = label_dump(&Dump::new(records.clone()), &s);
                prop_assert_eq!(baseline.len(), 2);

                let mut rng = SimRng::new(seed).split("perturb");
                let mut perturbed = records.clone();
                // Duplicate ~20 % of the records (exact copies).
                let dups: Vec<Keyed> = perturbed
                    .iter()
                    .filter(|_| rng.chance(0.2))
                    .cloned()
                    .collect();
                perturbed.extend(dups);
                // Bounded reordering: many short-range swaps.
                let n = perturbed.len();
                for _ in 0..2 * n {
                    let i = rng.below(n as u64) as usize;
                    let j = (i + 1 + rng.below(4) as usize).min(n - 1);
                    perturbed.swap(i, j);
                }

                let labels = label_dump(&Dump::new(perturbed), &s);
                prop_assert_eq!(labels, baseline);
            }
        }
    }
}
