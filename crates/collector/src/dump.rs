//! Update dumps: the collector-side record format and query helpers.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgpsim::{AggregatorStamp, AsId, AsPath, Prefix};
use netsim::SimTime;

use crate::project::Project;

/// One exported update as it appears in a collector dump.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// The collector project that published it.
    pub project: Project,
    /// The full-feed peer (vantage point) that reported it.
    pub vantage: AsId,
    /// The affected prefix.
    pub prefix: Prefix,
    /// When the VP's best route changed (arrival at the VP).
    pub observed_at: SimTime,
    /// When the record appeared in the public dump.
    pub exported_at: SimTime,
    /// The AS path (VP's ASN first); `None` records a withdrawal.
    pub path: Option<AsPath>,
    /// The transitive beacon stamp, possibly corrupted.
    pub aggregator: Option<AggregatorStamp>,
}

impl UpdateRecord {
    /// True for an announcement.
    pub fn is_announcement(&self) -> bool {
        self.path.is_some()
    }

    /// The beacon send time, if the record carries a *valid* stamp.
    /// Corrupted and missing stamps yield `None` — such announcements are
    /// discarded by the analysis, as in the paper.
    pub fn beacon_time(&self) -> Option<SimTime> {
        match self.aggregator {
            Some(stamp) if stamp.valid => Some(stamp.sent_at),
            _ => None,
        }
    }
}

/// A time-ordered set of update records with query helpers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dump {
    records: Vec<UpdateRecord>,
}

impl Dump {
    /// Wrap records (assumed sorted by export time).
    pub fn new(records: Vec<UpdateRecord>) -> Self {
        Dump { records }
    }

    /// All records.
    pub fn records(&self) -> &[UpdateRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Announcements whose aggregator stamp is present and valid —
    /// the paper's validity filter (§4.3).
    pub fn valid_announcements(&self) -> impl Iterator<Item = &UpdateRecord> {
        self.records
            .iter()
            .filter(|r| r.is_announcement() && r.beacon_time().is_some())
    }

    /// Share of announcements that fail the validity filter.
    pub fn invalid_share(&self) -> f64 {
        let announcements: Vec<&UpdateRecord> = self
            .records
            .iter()
            .filter(|r| r.is_announcement())
            .collect();
        if announcements.is_empty() {
            return 0.0;
        }
        let invalid = announcements
            .iter()
            .filter(|r| r.beacon_time().is_none())
            .count();
        invalid as f64 / announcements.len() as f64
    }

    /// Records grouped per (vantage, prefix) — the unit at which the RFD
    /// signature search runs. Groups preserve time order.
    pub fn by_vantage_prefix(&self) -> BTreeMap<(AsId, Prefix), Vec<&UpdateRecord>> {
        let mut map: BTreeMap<(AsId, Prefix), Vec<&UpdateRecord>> = BTreeMap::new();
        for r in &self.records {
            map.entry((r.vantage, r.prefix)).or_default().push(r);
        }
        map
    }

    /// Merge another dump, restoring the export-time sort invariant and
    /// collapsing exact duplicate records (identical in every field, as
    /// produced by overlapping project feeds or duplication faults).
    /// Returns the number of duplicates collapsed.
    pub fn merge(&mut self, other: Dump) -> u64 {
        self.records.extend(other.records);
        self.records
            .sort_by_key(|r| (r.exported_at, r.vantage, r.prefix));
        Self::collapse_exact_duplicates(&mut self.records)
    }

    /// Remove exact duplicates from an export-sorted record list.
    ///
    /// A plain `dedup` is not enough: the sort key is only
    /// `(exported_at, vantage, prefix)`, so two identical records can be
    /// separated by a distinct record carrying the same key. Collapse
    /// within each equal-key run instead, keeping first occurrences in
    /// order.
    fn collapse_exact_duplicates(records: &mut Vec<UpdateRecord>) -> u64 {
        let mut collapsed = 0u64;
        let mut out: Vec<UpdateRecord> = Vec::with_capacity(records.len());
        let mut run_start = 0usize;
        for r in records.drain(..) {
            let key = (r.exported_at, r.vantage, r.prefix);
            if out[run_start..]
                .first()
                .is_some_and(|f| (f.exported_at, f.vantage, f.prefix) != key)
            {
                run_start = out.len();
            }
            if out[run_start..].contains(&r) {
                collapsed += 1;
            } else {
                out.push(r);
            }
        }
        *records = out;
        collapsed
    }

    /// Audit the dump against its invariants without modifying it.
    ///
    /// Assumes the export-time sort invariant holds (it does for every
    /// dump this crate produces); anomalies are counted per
    /// `(vantage, prefix)` stream.
    pub fn check_integrity(&self, config: &IntegrityConfig) -> DumpIntegrity {
        let mut integrity = DumpIntegrity::default();
        let mut dup_probe = self.records.clone();
        integrity.exact_duplicates = Self::collapse_exact_duplicates(&mut dup_probe);
        for r in &self.records {
            if r.exported_at < r.observed_at {
                integrity.negative_export_delay += 1;
            }
        }
        for group in self.by_vantage_prefix().values() {
            let mut max_seen = SimTime::ZERO;
            for (i, r) in group.iter().enumerate() {
                if i > 0 && r.observed_at < max_seen {
                    let skew = max_seen.saturating_since(r.observed_at);
                    if skew <= config.reorder_budget {
                        integrity.reordered_within_budget += 1;
                    } else {
                        integrity.reordered_beyond_budget += 1;
                    }
                }
                max_seen = max_seen.max(r.observed_at);
                if i > 0 {
                    let gap = r.exported_at.saturating_since(group[i - 1].exported_at);
                    if gap > config.gap_threshold {
                        integrity.stream_gaps += 1;
                    }
                }
            }
        }
        integrity
    }

    /// Repair the dump into canonical *analysis order* and report what
    /// was wrong: exact duplicates are collapsed and records are
    /// re-sorted stream-major by observation time, which undoes any
    /// export-side reordering (the signature search walks streams in
    /// observation order). Returns the pre-repair integrity audit.
    pub fn normalize(&mut self, config: &IntegrityConfig) -> DumpIntegrity {
        let integrity = self.check_integrity(config);
        self.records
            .sort_by_key(|r| (r.exported_at, r.vantage, r.prefix));
        Self::collapse_exact_duplicates(&mut self.records);
        self.records
            .sort_by_key(|r| (r.vantage, r.prefix, r.observed_at, r.exported_at));
        integrity
    }

    /// Propagation delays (beacon send → VP arrival) of all valid
    /// announcements — the Fig. 8 measurement.
    pub fn propagation_delays_secs(&self) -> Vec<f64> {
        self.valid_announcements()
            .filter_map(|r| {
                let sent = r.beacon_time()?;
                Some(r.observed_at.saturating_since(sent).as_secs_f64())
            })
            .collect()
    }

    /// Export delays (VP arrival → dump publication), per project.
    pub fn export_delays_secs(&self, project: Project) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.project == project)
            .map(|r| r.exported_at.saturating_since(r.observed_at).as_secs_f64())
            .collect()
    }

    /// Snapshot the dump into a `collector.dump` report section:
    /// per-project record counts and the export-delay distribution.
    pub fn obs_section(&self) -> obs::Section {
        let mut section = obs::Section::new("collector.dump");
        section.counter("records", self.records.len() as u64);
        for project in Project::ALL {
            let slug = project.name().to_lowercase().replace(' ', "_");
            let count = self.records.iter().filter(|r| r.project == project).count();
            section.counter(&format!("records.{slug}"), count as u64);
        }
        // Bounds span the projects' export-delay models (seconds to a
        // couple of minutes).
        let mut delays =
            obs::Histogram::new(&[1.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0]);
        for r in &self.records {
            delays.record(r.exported_at.saturating_since(r.observed_at).as_secs_f64());
        }
        section.histogram("export_delay_secs", &delays);
        section
    }
}

/// Tolerances for the dump integrity audit.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Out-of-order observation skew tolerated within a
    /// `(vantage, prefix)` stream before it counts as pathological.
    pub reorder_budget: netsim::SimDuration,
    /// Export-time gap within a stream above which a gap is reported
    /// (a likely collector blackout or truncated dump).
    pub gap_threshold: netsim::SimDuration,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            reorder_budget: netsim::SimDuration::from_secs(30),
            gap_threshold: netsim::SimDuration::from_mins(30),
        }
    }
}

/// Counts from a dump integrity audit ([`Dump::check_integrity`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DumpIntegrity {
    /// Records identical to an earlier record in every field.
    pub exact_duplicates: u64,
    /// In-stream observation-order inversions within the reorder budget.
    pub reordered_within_budget: u64,
    /// Inversions exceeding the budget — the dump is worse than its
    /// declared tolerance.
    pub reordered_beyond_budget: u64,
    /// Export-time gaps within a stream above the gap threshold.
    pub stream_gaps: u64,
    /// Records whose export precedes their observation (clock skew).
    pub negative_export_delay: u64,
}

impl DumpIntegrity {
    /// Total anomalies of all kinds.
    pub fn total(&self) -> u64 {
        self.exact_duplicates
            + self.reordered_within_budget
            + self.reordered_beyond_budget
            + self.stream_gaps
            + self.negative_export_delay
    }

    /// The `collector.integrity` section of a run report.
    pub fn obs_section(&self) -> obs::Section {
        let mut section = obs::Section::new("collector.integrity");
        section.counter("exact_duplicates", self.exact_duplicates);
        section.counter("reordered_within_budget", self.reordered_within_budget);
        section.counter("reordered_beyond_budget", self.reordered_beyond_budget);
        section.counter("stream_gaps", self.stream_gaps);
        section.counter("negative_export_delay", self.negative_export_delay);
        section.counter("total", self.total());
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vp: u32, t: u64, announced: bool, valid: bool) -> UpdateRecord {
        UpdateRecord {
            project: Project::Isolario,
            vantage: AsId(vp),
            prefix: "10.0.0.0/24".parse().unwrap(),
            observed_at: SimTime::from_secs(t),
            exported_at: SimTime::from_secs(t + 10),
            path: announced.then(|| AsPath::from_slice(&[AsId(vp), AsId(9)])),
            aggregator: announced.then(|| {
                let s = AggregatorStamp::new(SimTime::from_secs(t.saturating_sub(2)));
                if valid {
                    s
                } else {
                    s.corrupted()
                }
            }),
        }
    }

    #[test]
    fn validity_filter() {
        let d = Dump::new(vec![
            rec(1, 10, true, true),
            rec(1, 20, true, false),
            rec(1, 30, false, true),
        ]);
        assert_eq!(d.valid_announcements().count(), 1);
        assert!((d.invalid_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grouping_preserves_order() {
        let d = Dump::new(vec![
            rec(1, 10, true, true),
            rec(2, 15, true, true),
            rec(1, 20, false, true),
        ]);
        let groups = d.by_vantage_prefix();
        assert_eq!(groups.len(), 2);
        let g1 = &groups[&(AsId(1), "10.0.0.0/24".parse().unwrap())];
        assert_eq!(g1.len(), 2);
        assert!(g1[0].observed_at < g1[1].observed_at);
    }

    #[test]
    fn propagation_delays_only_from_valid_stamps() {
        let d = Dump::new(vec![rec(1, 10, true, true), rec(1, 20, true, false)]);
        let delays = d.propagation_delays_secs();
        assert_eq!(delays, vec![2.0]);
    }

    #[test]
    fn merge_resorts() {
        let mut a = Dump::new(vec![rec(1, 100, true, true)]);
        let b = Dump::new(vec![rec(2, 10, true, true)]);
        a.merge(b);
        assert_eq!(a.records()[0].vantage, AsId(2));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn export_delay_query() {
        let d = Dump::new(vec![rec(1, 10, true, true)]);
        assert_eq!(d.export_delays_secs(Project::Isolario), vec![10.0]);
        assert!(d.export_delays_secs(Project::RipeRis).is_empty());
    }

    #[test]
    fn obs_section_counts_per_project_and_buckets_delays() {
        let mut third = rec(3, 30, true, true);
        third.project = Project::RipeRis;
        let d = Dump::new(vec![rec(1, 10, true, true), rec(2, 20, false, true), third]);
        let section = d.obs_section();
        assert_eq!(section.name, "collector.dump");
        assert_eq!(section.get("records"), Some(&obs::Value::Counter(3)));
        assert_eq!(
            section.get("records.isolario"),
            Some(&obs::Value::Counter(2))
        );
        assert_eq!(
            section.get("records.ripe_ris"),
            Some(&obs::Value::Counter(1))
        );
        match section.get("export_delay_secs") {
            // All three records export 10 s after observation.
            Some(obs::Value::Histogram(h)) => assert_eq!(h.count, 3),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn empty_dump_behaves() {
        let d = Dump::default();
        assert!(d.is_empty());
        assert_eq!(d.invalid_share(), 0.0);
        assert!(d.propagation_delays_secs().is_empty());
        assert!(d.export_delays_secs(Project::Isolario).is_empty());
        assert_eq!(d.check_integrity(&IntegrityConfig::default()).total(), 0);
    }

    #[test]
    fn merge_collapses_exact_duplicates_from_overlapping_dumps() {
        // Two project dumps that overlap: the shared records are exact
        // duplicates and must collapse; the same-key-but-distinct record
        // (different path) must survive even when sorted between them.
        let shared = rec(1, 10, true, true);
        let mut interloper = rec(1, 10, true, true);
        interloper.path = Some(AsPath::from_slice(&[AsId(1), AsId(7), AsId(9)]));
        let mut a = Dump::new(vec![shared.clone(), rec(1, 30, true, true)]);
        let b = Dump::new(vec![
            shared.clone(),
            interloper.clone(),
            shared.clone(),
            rec(2, 20, false, true),
        ]);
        let collapsed = a.merge(b);
        assert_eq!(collapsed, 2, "both extra copies of the shared record");
        assert_eq!(a.len(), 4);
        assert!(a.records().contains(&interloper));
        let times: Vec<SimTime> = a.records().iter().map(|r| r.exported_at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "merge restores the export-time sort");
    }

    #[test]
    fn integrity_counts_duplicates_reorder_and_negative_delay() {
        let r1 = rec(1, 100, true, true);
        let mut early = rec(1, 90, true, true);
        // Exported after r1 but observed before it: a 10 s inversion.
        early.exported_at = r1.exported_at + netsim::SimDuration::from_secs(5);
        let mut negative = rec(1, 300, true, true);
        negative.exported_at = SimTime::from_secs(200);
        let d = Dump::new(vec![r1.clone(), r1.clone(), early, negative]);
        let cfg = IntegrityConfig::default();
        let integrity = d.check_integrity(&cfg);
        assert_eq!(integrity.exact_duplicates, 1);
        assert_eq!(integrity.reordered_within_budget, 1);
        assert_eq!(integrity.reordered_beyond_budget, 0);
        assert_eq!(integrity.negative_export_delay, 1);

        let tight = IntegrityConfig {
            reorder_budget: netsim::SimDuration::from_secs(1),
            ..cfg
        };
        assert_eq!(d.check_integrity(&tight).reordered_beyond_budget, 1);
    }

    #[test]
    fn integrity_reports_stream_gaps() {
        let mut late = rec(1, 10, true, true);
        late.exported_at = SimTime::from_mins(120);
        let d = Dump::new(vec![rec(1, 10, true, true), late]);
        let integrity = d.check_integrity(&IntegrityConfig::default());
        assert_eq!(integrity.stream_gaps, 1);
    }

    #[test]
    fn normalize_restores_observation_order_and_collapses() {
        let a = rec(1, 100, true, true);
        let mut b = rec(1, 200, true, true);
        // Export-side reordering: b observed later but exported first.
        b.exported_at = SimTime::from_secs(90);
        let mut d = Dump::new(vec![b.clone(), a.clone(), a.clone()]);
        let integrity = d.normalize(&IntegrityConfig::default());
        assert_eq!(integrity.exact_duplicates, 1);
        assert_eq!(d.len(), 2);
        let group = d.by_vantage_prefix();
        let stream = &group[&(AsId(1), "10.0.0.0/24".parse().unwrap())];
        assert_eq!(stream[0].observed_at, SimTime::from_secs(100));
        assert_eq!(stream[1].observed_at, SimTime::from_secs(200));
    }

    #[test]
    fn integrity_obs_section_has_all_counters() {
        let integrity = DumpIntegrity {
            exact_duplicates: 2,
            stream_gaps: 1,
            ..DumpIntegrity::default()
        };
        let section = integrity.obs_section();
        assert_eq!(section.name, "collector.integrity");
        assert_eq!(
            section.get("exact_duplicates"),
            Some(&obs::Value::Counter(2))
        );
        assert_eq!(section.get("total"), Some(&obs::Value::Counter(3)));
    }
}
