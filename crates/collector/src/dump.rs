//! Update dumps: the collector-side record format and query helpers.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use bgpsim::{AggregatorStamp, AsId, Prefix};
use netsim::SimTime;

use crate::clean::CleanPath;
use crate::project::Project;

/// One exported update as it appears in a collector dump.
///
/// A record holds only what varies within its stream: the prefix, the
/// vantage point and the VP's project are the stream's key, kept once
/// per stream ([`Dump::streams`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// When the VP's best route changed (arrival at the VP).
    pub observed_at: SimTime,
    /// When the record appeared in the public dump.
    pub exported_at: SimTime,
    /// The cleaned AS path (VP's ASN first); `None` records a withdrawal.
    pub path: Option<CleanPath>,
    /// The transitive beacon stamp, possibly corrupted.
    pub aggregator: Option<AggregatorStamp>,
}

// A dump holds millions of records; a byte here is a byte per record.
// Pinned so the record cannot grow unnoticed.
const _: () = assert!(std::mem::size_of::<UpdateRecord>() <= 48);

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

/// One `(prefix, vantage)` stream: its key, the project its vantage
/// point feeds, and the records `start..end` of a dump.
#[derive(Clone, Debug)]
struct Stream {
    prefix: Prefix,
    vantage: AsId,
    project: Project,
    start: usize,
    end: usize,
}

/// Update records laid out stream-major, with query helpers.
///
/// The records are grouped into one stream per `(prefix, vantage)` pair
/// — the unit the paper labels (§4.2–4.3) — in ascending
/// `(prefix, vantage)` order; no stream is empty. The stream table holds
/// each stream's key and its vantage point's project, so a record holds
/// none of them. Each stream is in export order, and records with equal
/// export times keep their collection order: the order a global stable
/// sort by export time would leave them in. Faulted dumps are not
/// repaired: duplicates, reordering and outage gaps reach the labeller
/// as the collector produced them, and the outage windows come with the
/// dump ([`Dump::vp_outages`]).
#[derive(Clone, Debug, Default)]
pub struct Dump {
    records: Vec<UpdateRecord>,
    streams: Vec<Stream>,
    vp_outages: BTreeMap<AsId, (SimTime, SimTime)>,
}

impl Dump {
    /// Lay out records given in collection order, each with its stream
    /// key and its vantage point's project (one project per vantage
    /// point). Within a stream, records with equal export times keep
    /// collection order. No vantage point was dark.
    pub fn new(records: impl IntoIterator<Item = (Prefix, AsId, Project, UpdateRecord)>) -> Self {
        let keyed: Vec<(Prefix, AsId, Project, UpdateRecord)> = records.into_iter().collect();
        let prefixes: BTreeSet<Prefix> = keyed.iter().map(|k| k.0).collect();
        let prefixes: Vec<Prefix> = prefixes.into_iter().collect();
        let vps: BTreeMap<AsId, Project> = keyed.iter().map(|k| (k.1, k.2)).collect();
        let vps: Vec<(AsId, Project)> = vps.into_iter().collect();
        let (records, tags) = keyed
            .into_iter()
            .map(|(prefix, vantage, _, record)| {
                let p = prefixes.binary_search(&prefix).expect("a collected prefix");
                let v = vps.binary_search_by_key(&vantage, |&(vp, _)| vp);
                let tag = p * vps.len() + v.expect("a collected vantage point");
                let tag = u32::try_from(tag).expect("stream ranks fit the u32 tags");
                (record, tag)
            })
            .unzip();
        Self::from_tagged(records, tags, &prefixes, &vps, BTreeMap::new())
    }

    /// Lay out records given in collection order, each tagged
    /// `prefix rank × |vps| + VP index`: the rank of its prefix in the
    /// ascending `prefixes`, the index of its vantage point in the
    /// ascending `vps` (each with its project). A counting sort places
    /// the records in place, without a second record buffer; each
    /// stream is then sorted by export time (stably).
    pub(crate) fn from_tagged(
        mut records: Vec<UpdateRecord>,
        mut tags: Vec<u32>,
        prefixes: &[Prefix],
        vps: &[(AsId, Project)],
        vp_outages: BTreeMap<AsId, (SimTime, SimTime)>,
    ) -> Self {
        assert_eq!(records.len(), tags.len(), "one stream tag per record");
        assert!(
            u32::try_from(records.len()).is_ok(),
            "record positions fit the u32 tags"
        );
        let mut next = vec![0u32; prefixes.len() * vps.len()];
        for &t in &tags {
            next[t as usize] += 1;
        }
        // Turn the counts into start offsets; each non-empty tag is a
        // stream.
        let mut streams = Vec::new();
        let mut offset = 0u32;
        for (t, slot) in next.iter_mut().enumerate() {
            let count = std::mem::replace(slot, offset);
            if count > 0 {
                let (vantage, project) = vps[t % vps.len()];
                streams.push(Stream {
                    prefix: prefixes[t / vps.len()],
                    vantage,
                    project,
                    start: offset as usize,
                    end: (offset + count) as usize,
                });
            }
            offset += count;
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
        for s in &streams {
            records[s.start..s.end].sort_by_key(|r| r.exported_at);
        }
        Dump {
            records,
            streams,
            vp_outages,
        }
    }

    /// Every stream, ascending by `(prefix, vantage)`: its prefix, its
    /// vantage point, the project that VP feeds, and its records.
    pub fn streams(&self) -> impl Iterator<Item = (Prefix, AsId, Project, &[UpdateRecord])> {
        self.streams.iter().map(|s| self.view(s))
    }

    /// The streams of one prefix — the records each vantage point
    /// reported for it — in ascending vantage order, keyed as in
    /// [`Dump::streams`].
    pub fn streams_of(
        &self,
        prefix: Prefix,
    ) -> impl Iterator<Item = (Prefix, AsId, Project, &[UpdateRecord])> {
        let first = self.streams.partition_point(|s| s.prefix < prefix);
        self.streams[first..]
            .iter()
            .take_while(move |s| s.prefix == prefix)
            .map(|s| self.view(s))
    }

    fn view(&self, s: &Stream) -> (Prefix, AsId, Project, &[UpdateRecord]) {
        (
            s.prefix,
            s.vantage,
            s.project,
            &self.records[s.start..s.end],
        )
    }

    /// The outage window each vantage point suffered, as the collector
    /// applied it: keyed by VP AS, `[start, end)` in observation time.
    /// Empty when no fault plan darkened a vantage point.
    pub fn vp_outages(&self) -> &BTreeMap<AsId, (SimTime, SimTime)> {
        &self.vp_outages
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Snapshot the dump into a `collector.dump` report section:
    /// per-project record counts and the export-delay distribution, in
    /// one pass over the streams.
    pub fn obs_section(&self) -> obs::Section {
        // Bounds span the projects' export-delay models (seconds to a
        // couple of minutes).
        let mut delays =
            obs::Histogram::new(&[1.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0]);
        let mut per_project: BTreeMap<Project, usize> = BTreeMap::new();
        for (_, _, project, stream) in self.streams() {
            *per_project.entry(project).or_default() += stream.len();
            for r in stream {
                delays.record(r.exported_at.saturating_since(r.observed_at).as_secs_f64());
            }
        }
        let mut section = obs::Section::new("collector.dump");
        section.counter("records", self.records.len() as u64);
        for project in Project::ALL {
            let slug = project.name().to_lowercase().replace(' ', "_");
            let count = per_project.get(&project).copied().unwrap_or(0);
            section.counter(&format!("records.{slug}"), count as u64);
        }
        section.histogram("export_delay_secs", &delays);
        section
    }
}

/// Test-side views of the dump, read through its streams.
#[cfg(test)]
impl Dump {
    /// Every record, stream after stream.
    pub(crate) fn records(&self) -> Vec<UpdateRecord> {
        self.streams()
            .flat_map(|(.., stream)| stream.iter().cloned())
            .collect()
    }

    /// Share of announcements that fail the validity filter.
    pub(crate) fn invalid_share(&self) -> f64 {
        let announcements: Vec<&UpdateRecord> = self
            .streams()
            .flat_map(|(.., stream)| stream)
            .filter(|r| r.is_announcement())
            .collect();
        let invalid = announcements
            .iter()
            .filter(|r| r.beacon_time().is_none())
            .count();
        invalid as f64 / announcements.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Keyed = (Prefix, AsId, Project, UpdateRecord);

    fn prefix() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    fn rec(vp: u32, t: u64, announced: bool, valid: bool) -> Keyed {
        let record = UpdateRecord {
            observed_at: SimTime::from_secs(t),
            exported_at: SimTime::from_secs(t + 10),
            path: announced.then(|| CleanPath::from_asns(&[AsId(vp), AsId(9)])),
            aggregator: announced.then(|| {
                let s = AggregatorStamp::new(SimTime::from_secs(t.saturating_sub(2)));
                if valid {
                    s
                } else {
                    s.corrupted()
                }
            }),
        };
        (prefix(), AsId(vp), Project::Isolario, record)
    }

    #[test]
    fn validity_filter() {
        let d = Dump::new([
            rec(1, 10, true, true),
            rec(1, 20, true, false),
            rec(1, 30, false, true),
        ]);
        let valid = d
            .records()
            .into_iter()
            .filter(|r| r.is_valid_announcement());
        assert_eq!(valid.count(), 1);
        assert!((d.invalid_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn streams_group_per_prefix_and_vantage_in_export_order() {
        let second: Prefix = "10.0.1.0/24".parse().unwrap();
        let mut other = rec(1, 5, true, true);
        other.0 = second;
        let d = Dump::new([
            rec(2, 15, true, true),
            rec(1, 20, false, true),
            other,
            rec(1, 10, true, true),
        ]);
        let streams: Vec<_> = d.streams_of(prefix()).collect();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].1, AsId(1));
        assert_eq!(streams[1].1, AsId(2));
        let times: Vec<SimTime> = streams[0].3.iter().map(|r| r.exported_at).collect();
        assert_eq!(times, [SimTime::from_secs(20), SimTime::from_secs(30)]);
        // The 10.0.0.0/24 streams come first, then 10.0.1.0/24's.
        let keys: Vec<(Prefix, AsId, usize)> =
            d.streams().map(|(p, vp, _, s)| (p, vp, s.len())).collect();
        assert_eq!(
            keys,
            [
                (prefix(), AsId(1), 2),
                (prefix(), AsId(2), 1),
                (second, AsId(1), 1)
            ]
        );
        // Stream-major: each stream's records follow the last one's.
        let slices: Vec<&[UpdateRecord]> = d.streams().map(|(.., s)| s).collect();
        for w in slices.windows(2) {
            assert!(std::ptr::eq(w[0].as_ptr_range().end, w[1].as_ptr()));
        }
        assert_eq!(d.streams_of("10.0.2.0/24".parse().unwrap()).count(), 0);
    }

    #[test]
    fn equal_export_times_keep_collection_order() {
        let first = rec(1, 10, true, true);
        let mut second = rec(1, 10, false, true);
        second.3.observed_at = SimTime::from_secs(12);
        let d = Dump::new([rec(1, 40, true, true), first.clone(), second.clone()]);
        assert_eq!(d.records()[..2], [first.3, second.3]);
    }

    #[test]
    fn layout_matches_a_stable_sort_by_stream_then_export_time() {
        let second: Prefix = "10.0.1.0/24".parse().unwrap();
        let keyed: Vec<Keyed> = (0..40u64)
            .map(|i| {
                let mut k = rec(1 + (i % 3) as u32, 100 - 2 * i, i % 4 != 0, true);
                k.3.exported_at = SimTime::from_secs(200 - 5 * (i % 7));
                if i % 2 == 0 {
                    k.0 = second;
                }
                k
            })
            .collect();
        let mut want = keyed.clone();
        want.sort_by_key(|k| (k.0, k.1, k.3.exported_at));
        let want: Vec<UpdateRecord> = want.into_iter().map(|k| k.3).collect();
        assert_eq!(Dump::new(keyed).records(), want);
    }

    #[test]
    fn streams_carry_their_vantage_points_project() {
        let mut ris = rec(3, 30, true, true);
        ris.2 = Project::RipeRis;
        let d = Dump::new([rec(1, 10, true, true), ris]);
        let projects: Vec<(AsId, Project)> = d.streams().map(|(_, vp, p, _)| (vp, p)).collect();
        assert_eq!(
            projects,
            [(AsId(1), Project::Isolario), (AsId(3), Project::RipeRis)]
        );
    }

    #[test]
    fn obs_section_counts_per_project_and_buckets_delays() {
        let mut third = rec(3, 30, true, true);
        third.2 = Project::RipeRis;
        let d = Dump::new([rec(1, 10, true, true), rec(2, 20, false, true), third]);
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
        assert_eq!(
            section.get("records.routeviews"),
            Some(&obs::Value::Counter(0))
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
        assert_eq!(d.streams().count(), 0);
        assert_eq!(d.streams_of(prefix()).count(), 0);
        assert!(d.vp_outages().is_empty());
        assert!(Dump::new([]).is_empty());
    }
}
