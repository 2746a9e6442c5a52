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
/// Faulted dumps are not repaired: duplicates, reordering and outage
/// gaps reach the labeller as the collector produced them.
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
        assert_eq!(d.valid_announcements().count(), 0);
        assert_eq!(d.streams_of("10.0.0.0/24".parse().unwrap()).count(), 0);
    }
}
