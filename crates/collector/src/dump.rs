//! Update dumps: the collector-side record format and query helpers.

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

    /// True for an announcement carrying a valid beacon stamp — the
    /// paper's validity filter (§4.3).
    pub fn is_valid_announcement(&self) -> bool {
        self.is_announcement() && self.beacon_time().is_some()
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

/// One `(prefix, vantage)` stream: the records `start..end` of a dump.
#[derive(Clone, Debug)]
struct Stream {
    prefix: Prefix,
    vantage: AsId,
    start: usize,
    end: usize,
}

/// Update records laid out stream-major, with query helpers.
///
/// The records are grouped into one stream per `(prefix, vantage)` pair
/// — the unit the paper labels (§4.2–4.3) — in ascending
/// `(prefix, vantage)` order. Each stream is in export order, and
/// records with equal export times keep their collection order: the
/// order a global stable sort by export time would leave them in.
/// [`Dump::normalize`] re-sorts each stream into observation order.
#[derive(Clone, Debug, Default)]
pub struct Dump {
    records: Vec<UpdateRecord>,
    streams: Vec<Stream>,
}

impl Dump {
    /// Lay `records` out stream-major. Their order is taken as
    /// collection order: within a stream, records with equal export
    /// times keep it.
    pub fn new(mut records: Vec<UpdateRecord>) -> Self {
        records.sort_by_key(|r| (r.prefix, r.vantage));
        Self::from_grouped(records)
    }

    /// Lay out records given in collection order, each tagged with the
    /// rank of its stream among `0..streams` in ascending
    /// `(prefix, vantage)` order. A counting sort places the records in
    /// place, without a second record buffer.
    pub(crate) fn from_tagged(
        mut records: Vec<UpdateRecord>,
        mut tags: Vec<u32>,
        streams: usize,
    ) -> Self {
        assert_eq!(records.len(), tags.len(), "one stream tag per record");
        assert!(
            u32::try_from(records.len()).is_ok(),
            "record positions fit the u32 tags"
        );
        let mut next = vec![0u32; streams];
        for &t in &tags {
            next[t as usize] += 1;
        }
        let mut offset = 0u32;
        for slot in &mut next {
            offset += std::mem::replace(slot, offset);
        }
        // Each tag becomes its record's destination; equal tags keep
        // their collection order.
        for t in &mut tags {
            let slot = &mut next[*t as usize];
            *t = *slot;
            *slot += 1;
        }
        // Follow the permutation's cycles: every swap puts one record in
        // its final place.
        for i in 0..records.len() {
            while tags[i] as usize != i {
                let j = tags[i] as usize;
                records.swap(i, j);
                tags.swap(i, j);
            }
        }
        Self::from_grouped(records)
    }

    /// Index records already grouped by stream in ascending
    /// `(prefix, vantage)` order, each stream in collection order, and
    /// sort each stream by export time (stably).
    fn from_grouped(mut records: Vec<UpdateRecord>) -> Self {
        let streams = Self::index(&records);
        for s in &streams {
            records[s.start..s.end].sort_by_key(|r| r.exported_at);
        }
        Dump { records, streams }
    }

    /// The stream table of grouped records.
    fn index(records: &[UpdateRecord]) -> Vec<Stream> {
        let mut streams: Vec<Stream> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match streams.last_mut() {
                Some(s) if (s.prefix, s.vantage) == (r.prefix, r.vantage) => s.end = i + 1,
                _ => streams.push(Stream {
                    prefix: r.prefix,
                    vantage: r.vantage,
                    start: i,
                    end: i + 1,
                }),
            }
        }
        streams
    }

    /// All records, stream-major (see [`Dump`]).
    pub fn records(&self) -> &[UpdateRecord] {
        &self.records
    }

    /// The streams of one prefix — the records each vantage point
    /// reported for it — in ascending vantage order.
    pub fn streams_of(&self, prefix: Prefix) -> impl Iterator<Item = (AsId, &[UpdateRecord])> {
        let first = self.streams.partition_point(|s| s.prefix < prefix);
        self.streams[first..]
            .iter()
            .take_while(move |s| s.prefix == prefix)
            .map(|s| (s.vantage, &self.records[s.start..s.end]))
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
        self.records.iter().filter(|r| r.is_valid_announcement())
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

    /// True when `stream[i]` repeats an earlier record of its stream
    /// exactly (identical in every field, as produced by duplication
    /// faults).
    ///
    /// Identical records share their export time, and in either stream
    /// order (export, or observation after [`Dump::normalize`]) every
    /// record between two of them does too, so only the run of equal
    /// export times before `i` is searched.
    fn is_repeat(stream: &[UpdateRecord], i: usize) -> bool {
        let r = &stream[i];
        stream[..i]
            .iter()
            .rev()
            .take_while(|e| e.exported_at == r.exported_at)
            .any(|e| e == r)
    }

    /// Audit the dump against its invariants without modifying it.
    ///
    /// Anomalies are counted per `(prefix, vantage)` stream, walked in
    /// stream order.
    pub fn check_integrity(&self, config: &IntegrityConfig) -> DumpIntegrity {
        let mut integrity = DumpIntegrity::default();
        for s in &self.streams {
            let stream = &self.records[s.start..s.end];
            let mut max_seen = SimTime::ZERO;
            for (i, r) in stream.iter().enumerate() {
                if Self::is_repeat(stream, i) {
                    integrity.exact_duplicates += 1;
                }
                if r.exported_at < r.observed_at {
                    integrity.negative_export_delay += 1;
                }
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
                    let gap = r.exported_at.saturating_since(stream[i - 1].exported_at);
                    if gap > config.gap_threshold {
                        integrity.stream_gaps += 1;
                    }
                }
            }
        }
        integrity
    }

    /// Repair the dump into canonical *analysis order* and report what
    /// was wrong: exact duplicates are collapsed and each stream is
    /// re-sorted by observation time, which undoes any export-side
    /// reordering (the signature search walks streams in observation
    /// order). Returns the pre-repair integrity audit.
    pub fn normalize(&mut self, config: &IntegrityConfig) -> DumpIntegrity {
        let integrity = self.check_integrity(config);
        let repeats: Vec<bool> = self
            .streams
            .iter()
            .flat_map(|s| {
                let stream = &self.records[s.start..s.end];
                (0..stream.len()).map(move |i| Self::is_repeat(stream, i))
            })
            .collect();
        let mut repeats = repeats.into_iter();
        self.records
            .retain(|_| !repeats.next().expect("one flag per record"));
        self.streams = Self::index(&self.records);
        for s in &self.streams {
            self.records[s.start..s.end].sort_by_key(|r| (r.observed_at, r.exported_at));
        }
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
    fn streams_group_per_prefix_and_vantage_in_export_order() {
        let mut other = rec(1, 5, true, true);
        other.prefix = "10.0.1.0/24".parse().unwrap();
        let d = Dump::new(vec![
            rec(2, 15, true, true),
            rec(1, 20, false, true),
            other,
            rec(1, 10, true, true),
        ]);
        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        let streams: Vec<(AsId, &[UpdateRecord])> = d.streams_of(prefix).collect();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].0, AsId(1));
        assert_eq!(streams[1].0, AsId(2));
        let times: Vec<SimTime> = streams[0].1.iter().map(|r| r.exported_at).collect();
        assert_eq!(times, [SimTime::from_secs(20), SimTime::from_secs(30)]);
        // The 10.0.0.0/24 streams come first, then 10.0.1.0/24's.
        assert_eq!(d.records()[3].prefix, "10.0.1.0/24".parse().unwrap());
        assert_eq!(d.streams_of("10.0.1.0/24".parse().unwrap()).count(), 1);
        assert_eq!(d.streams_of("10.0.2.0/24".parse().unwrap()).count(), 0);
    }

    #[test]
    fn equal_export_times_keep_collection_order() {
        let first = rec(1, 10, true, true);
        let mut second = rec(1, 10, false, true);
        second.observed_at = SimTime::from_secs(12);
        let d = Dump::new(vec![rec(1, 40, true, true), first.clone(), second.clone()]);
        assert_eq!(d.records()[..2], [first, second]);
    }

    #[test]
    fn from_tagged_matches_new() {
        let records: Vec<UpdateRecord> = (0..40u64)
            .map(|i| {
                let mut r = rec(1 + (i % 3) as u32, 100 - 2 * i, i % 4 != 0, true);
                r.exported_at = SimTime::from_secs(200 - 5 * (i % 7));
                if i % 2 == 0 {
                    r.prefix = "10.0.1.0/24".parse().unwrap();
                }
                r
            })
            .collect();
        // Rank of (prefix, vantage): 10.0.0.0/24 first, then VPs 1..=3.
        let second: Prefix = "10.0.1.0/24".parse().unwrap();
        let tags: Vec<u32> = records
            .iter()
            .map(|r| u32::from(r.prefix == second) * 3 + r.vantage.0 - 1)
            .collect();
        let tagged = Dump::from_tagged(records.clone(), tags, 6);
        assert_eq!(tagged.records(), Dump::new(records).records());
    }

    #[test]
    fn propagation_delays_only_from_valid_stamps() {
        let d = Dump::new(vec![rec(1, 10, true, true), rec(1, 20, true, false)]);
        let delays = d.propagation_delays_secs();
        assert_eq!(delays, vec![2.0]);
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
    fn duplicates_collapse_around_a_same_time_interloper() {
        // Duplicated records share their export time; a distinct record
        // with that export time (a different path) may sit between the
        // copies and must survive.
        let shared = rec(1, 10, true, true);
        let mut interloper = rec(1, 10, true, true);
        interloper.path = Some(AsPath::from_slice(&[AsId(1), AsId(7), AsId(9)]));
        let mut d = Dump::new(vec![
            shared.clone(),
            rec(1, 30, true, true),
            shared.clone(),
            interloper.clone(),
            shared.clone(),
            rec(2, 20, false, true),
        ]);
        let integrity = d.normalize(&IntegrityConfig::default());
        assert_eq!(
            integrity.exact_duplicates, 2,
            "both extra copies of the shared record"
        );
        assert_eq!(d.len(), 4);
        assert!(d.records().contains(&interloper));
        assert_eq!(
            d.check_integrity(&IntegrityConfig::default())
                .exact_duplicates,
            0
        );
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
        let (vantage, stream) = d.streams_of("10.0.0.0/24".parse().unwrap()).next().unwrap();
        assert_eq!(vantage, AsId(1));
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
