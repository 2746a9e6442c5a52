//! Collector projects, vantage-point assignment and the observation
//! pipeline from tap records to dumps.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgpsim::{AsId, Prefix, TapRecord};
use netsim::faults::{ExportFault, FaultCounters, FaultPlan};
use netsim::{SimDuration, SimRng, SimTime};

use crate::clean::clean_path;
use crate::dump::{Dump, UpdateRecord};

/// The three route-collector projects of the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash, Serialize, Deserialize)]
pub enum Project {
    /// RIPE Routing Information Service.
    RipeRis,
    /// University of Oregon Route Views.
    RouteViews,
    /// IIT-CNR Isolario.
    Isolario,
}

impl Project {
    /// All projects, in a stable order.
    pub const ALL: [Project; 3] = [Project::RipeRis, Project::RouteViews, Project::Isolario];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Project::RipeRis => "RIPE RIS",
            Project::RouteViews => "RouteViews",
            Project::Isolario => "Isolario",
        }
    }

    /// When an update observed at `observed_at` appears in the project's
    /// public dump.
    ///
    /// * RouteViews: batch export on a strict 50-second cadence (the
    ///   paper: "some vantage points in the RouteViews project export
    ///   updates exactly 50 seconds after our Beacon routers sent the BGP
    ///   updates");
    /// * Isolario: near-online, within 30 s;
    /// * RIPE RIS: diverse per-collector behaviour, 5–90 s.
    pub fn export_time(self, observed_at: SimTime, rng: &mut SimRng) -> SimTime {
        match self {
            Project::RouteViews => {
                let cadence = SimDuration::from_secs(50).as_millis();
                let ms = observed_at.as_millis();
                let next = ms.div_ceil(cadence) * cadence;
                SimTime::from_millis(next.max(ms))
            }
            Project::Isolario => observed_at + SimDuration::from_secs(5 + rng.below(25)),
            Project::RipeRis => observed_at + SimDuration::from_secs(5 + rng.below(85)),
        }
    }
}

/// Observation-noise configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CollectorConfig {
    /// Probability an announcement's aggregator field is corrupted
    /// (the paper measured ~1 %). Corrupted records are *kept* in the dump
    /// but flagged invalid; the analysis pipeline discards them.
    pub aggregator_corruption: f64,
    /// Noise seed.
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            aggregator_corruption: 0.01,
            seed: 0,
        }
    }
}

impl CollectorConfig {
    /// A noiseless configuration (for deterministic tests).
    pub fn clean() -> Self {
        CollectorConfig {
            aggregator_corruption: 0.0,
            ..Default::default()
        }
    }
}

/// The set of vantage points with their project assignments.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CollectorSet {
    assignments: BTreeMap<AsId, Project>,
}

impl CollectorSet {
    /// Assign vantage points to projects round-robin after a seeded
    /// shuffle (so each project gets a comparable, but distinct, share —
    /// the ingredient behind the Fig. 7 overlap analysis).
    pub fn assign(vantage_points: &[AsId], seed: u64) -> Self {
        let mut rng = SimRng::new(seed).split("collector-assignment");
        let mut vps = vantage_points.to_vec();
        rng.shuffle(&mut vps);
        let assignments = vps
            .into_iter()
            .enumerate()
            .map(|(i, vp)| (vp, Project::ALL[i % Project::ALL.len()]))
            .collect();
        CollectorSet { assignments }
    }

    /// Assign every vantage point to a single project.
    pub fn single(vantage_points: &[AsId], project: Project) -> Self {
        CollectorSet {
            assignments: vantage_points.iter().map(|&vp| (vp, project)).collect(),
        }
    }

    /// Number of registered vantage points.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no vantage point is registered.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Turn raw tap records into a collector dump, applying per-project
    /// export delays, the configured observation noise and the optional
    /// injected [`FaultPlan`].
    ///
    /// Each announced path is cleaned as it is recorded
    /// ([`clean_path`]); an announcement whose path cleaning rejects
    /// (looped or empty) is not recorded and draws nothing.
    ///
    /// `horizon` is the campaign end: the plan's VP outage windows start
    /// inside `[0, horizon)`, and the dump keeps the windows it applied
    /// ([`Dump::vp_outages`]). The fault machinery draws only from the
    /// plan's own decorrelated streams, so a plan never perturbs the
    /// collector-noise sequence. Every injected fault is tallied in
    /// `counters`. Random draws happen in tap order; the dump is then
    /// laid out stream-major (see [`Dump`]).
    pub fn process_with_faults(
        &self,
        taps: &[TapRecord],
        config: &CollectorConfig,
        horizon: SimTime,
        plan: Option<&FaultPlan>,
        counters: &mut FaultCounters,
    ) -> Dump {
        let mut rng = SimRng::new(config.seed).split("collector-noise");

        // The registered VPs, ascending, with their projects, and each
        // one's faults: pure functions of the plan's seed, drawn up front.
        let horizon_dur = horizon.saturating_since(SimTime::ZERO);
        let vps: Vec<(AsId, Project)> = self.assignments.iter().map(|(&v, &p)| (v, p)).collect();
        let mut vp_outages = BTreeMap::new();
        let mut faults: Vec<Option<VpFaults>> = vps
            .iter()
            .map(|&(vp, _)| {
                let plan = plan?;
                let id = u64::from(vp.0);
                let faults = VpFaults {
                    outage: plan.vp_outage(id, horizon_dur),
                    clock_skew_ms: plan.clock_skew_ms(id),
                    export: plan.export_fault(id, horizon_dur),
                    // Sequential per-record decisions, one stream per VP
                    // so the outcome is independent of how taps
                    // interleave across VPs.
                    records: plan.stream("records").split_index("vp", id),
                };
                if let Some(window) = faults.outage {
                    counters.vp_outages += 1;
                    vp_outages.insert(vp, window);
                }
                if faults.clock_skew_ms != 0 {
                    counters.clock_skewed_vps += 1;
                }
                if !faults.export.delay.is_zero() {
                    counters.exports_delayed += 1;
                }
                Some(faults)
            })
            .collect();

        // Each kept record is tagged `prefix id × |VPs| + VP index`, the
        // prefix id counting prefixes in order of first sight; the ids
        // are ranked once all prefixes are known.
        let mut prefix_ids: Vec<(Prefix, u32)> = Vec::new();
        let mut records = Vec::with_capacity(taps.len());
        let mut tags: Vec<u32> = Vec::with_capacity(taps.len());
        for tap in taps {
            let Ok(v) = vps.binary_search_by_key(&tap.vantage, |&(vp, _)| vp) else {
                continue; // not a registered full-feed peer
            };
            let (path, mut aggregator) = match &tap.route {
                Some(route) => match clean_path(&route.path) {
                    Some(path) => (Some(path), route.aggregator),
                    None => continue, // looped or empty: dropped by cleaning
                },
                None => (None, None),
            };
            let project = vps[v].1;
            // Per-record fault draws, in a fixed order (loss, dup, skew)
            // so the stream stays aligned whatever the rates are.
            let mut duplicate = false;
            let mut reorder_skew_ms = 0u64;
            if let (Some(f), Some(plan)) = (&mut faults[v], plan) {
                if let Some((o0, o1)) = f.outage {
                    if tap.time >= o0 && tap.time < o1 {
                        counters.records_outage_dropped += 1;
                        continue; // vantage point was dark
                    }
                }
                if let Some(cut) = f.export.truncate_at {
                    if tap.time >= cut {
                        counters.records_truncated += 1;
                        continue; // dump was truncated before this record
                    }
                }
                let spec = plan.spec();
                if f.records.chance(spec.loss_rate) {
                    counters.records_lost += 1;
                    continue;
                }
                duplicate = f.records.chance(spec.duplication_rate);
                if f.records.chance(spec.reorder_rate) {
                    reorder_skew_ms = f.records.below(spec.reorder_skew.as_millis().max(1));
                }
            }
            let mut exported_at = project.export_time(tap.time, &mut rng);
            if let Some(f) = &faults[v] {
                let mut ms = exported_at.as_millis() as i64;
                if reorder_skew_ms > 0 {
                    counters.records_reordered += 1;
                    ms += reorder_skew_ms as i64;
                }
                ms += f.clock_skew_ms;
                ms += f.export.delay.as_millis() as i64;
                exported_at = SimTime::from_millis(ms.max(0) as u64);
            }
            if let Some(stamp) = aggregator {
                if rng.chance(config.aggregator_corruption) {
                    aggregator = Some(stamp.corrupted());
                }
            }
            let record = UpdateRecord {
                observed_at: tap.time,
                exported_at,
                path,
                aggregator,
            };
            let prefix_id = match prefix_ids.binary_search_by_key(&tap.prefix, |&(p, _)| p) {
                Ok(i) => prefix_ids[i].1,
                Err(i) => {
                    let id = prefix_ids.len() as u32;
                    prefix_ids.insert(i, (tap.prefix, id));
                    id
                }
            };
            let tag = prefix_id * vps.len() as u32 + v as u32;
            if duplicate {
                counters.records_duplicated += 1;
                records.push(record.clone());
                tags.push(tag);
            }
            records.push(record);
            tags.push(tag);
        }
        // `prefix_ids` is sorted by prefix, so its positions rank the ids.
        let mut rank = vec![0u32; prefix_ids.len()];
        for (r, &(_, id)) in prefix_ids.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let n_vps = vps.len() as u32;
        for tag in &mut tags {
            *tag = rank[(*tag / n_vps) as usize] * n_vps + *tag % n_vps;
        }
        let prefixes: Vec<Prefix> = prefix_ids.into_iter().map(|(p, _)| p).collect();
        Dump::from_tagged(records, tags, &prefixes, &vps, vp_outages)
    }
}

/// The materialised per-vantage-point faults for one processing pass.
#[derive(Clone, Debug)]
struct VpFaults {
    outage: Option<(SimTime, SimTime)>,
    clock_skew_ms: i64,
    export: ExportFault,
    records: SimRng,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::AggregatorStamp;
    use bgpsim::{AsPath, Prefix};

    fn vps() -> Vec<AsId> {
        (1..=9).map(AsId).collect()
    }

    /// `taps` through `set` with no fault plan.
    fn process(
        set: &CollectorSet,
        taps: &[TapRecord],
        config: &CollectorConfig,
        horizon: SimTime,
    ) -> Dump {
        set.process_with_faults(taps, config, horizon, None, &mut FaultCounters::default())
    }

    fn tap(vp: u32, t_secs: u64, announced: bool) -> TapRecord {
        let route = announced.then(|| bgpsim::rib::Route {
            path: AsPath::from_slice(&[AsId(vp), AsId(100)]),
            aggregator: Some(AggregatorStamp::new(SimTime::from_secs(
                t_secs.saturating_sub(1),
            ))),
        });
        TapRecord {
            vantage: AsId(vp),
            time: SimTime::from_secs(t_secs),
            prefix: "10.0.0.0/24".parse::<Prefix>().unwrap(),
            route,
        }
    }

    #[test]
    fn assignment_is_balanced_and_deterministic() {
        // One tap per VP: each stream names the project its VP feeds.
        let taps: Vec<TapRecord> = vps().iter().map(|vp| tap(vp.0, 10, true)).collect();
        let projects = |set: &CollectorSet| -> Vec<(AsId, Project)> {
            let dump = process(
                set,
                &taps,
                &CollectorConfig::clean(),
                SimTime::from_mins(60),
            );
            dump.streams().map(|(_, vp, p, _)| (vp, p)).collect()
        };
        let a = projects(&CollectorSet::assign(&vps(), 3));
        assert_eq!(a.len(), 9);
        assert_eq!(a, projects(&CollectorSet::assign(&vps(), 3)));
        for p in Project::ALL {
            let members = a.iter().filter(|&&(_, q)| q == p);
            assert_eq!(members.count(), 3, "9 VPs split 3-3-3");
        }
    }

    #[test]
    fn unregistered_vps_are_dropped() {
        let set = CollectorSet::single(&[AsId(1)], Project::Isolario);
        let dump = process(
            &set,
            &[tap(1, 10, true), tap(2, 10, true)],
            &CollectorConfig::clean(),
            SimTime::from_mins(60),
        );
        assert_eq!(dump.len(), 1);
        let vps: Vec<AsId> = dump.streams().map(|(_, vp, _, _)| vp).collect();
        assert_eq!(vps, [AsId(1)]);
    }

    #[test]
    fn routeviews_exports_on_50s_cadence() {
        let mut rng = SimRng::new(1);
        let t = Project::RouteViews.export_time(SimTime::from_secs(13), &mut rng);
        assert_eq!(t, SimTime::from_secs(50));
        let t = Project::RouteViews.export_time(SimTime::from_secs(50), &mut rng);
        assert_eq!(t, SimTime::from_secs(50));
        let t = Project::RouteViews.export_time(SimTime::from_secs(51), &mut rng);
        assert_eq!(t, SimTime::from_secs(100));
    }

    #[test]
    fn isolario_exports_within_30s() {
        let mut rng = SimRng::new(2);
        for i in 0..200 {
            let obs = SimTime::from_secs(i);
            let t = Project::Isolario.export_time(obs, &mut rng);
            let d = t.saturating_since(obs);
            assert!(d >= SimDuration::from_secs(5) && d < SimDuration::from_secs(30));
        }
    }

    #[test]
    fn ris_delay_is_diverse() {
        let mut rng = SimRng::new(3);
        let delays: Vec<u64> = (0..300)
            .map(|_| {
                Project::RipeRis
                    .export_time(SimTime::ZERO, &mut rng)
                    .as_millis()
            })
            .collect();
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        assert!(max - min > 60_000, "RIS spread should exceed a minute");
    }

    #[test]
    fn corruption_flags_but_keeps_records() {
        let set = CollectorSet::single(&[AsId(1)], Project::Isolario);
        let cfg = CollectorConfig {
            aggregator_corruption: 1.0,
            ..CollectorConfig::clean()
        };
        let dump = process(&set, &[tap(1, 10, true)], &cfg, SimTime::from_mins(60));
        assert_eq!(dump.len(), 1);
        let rec = &dump.records()[0];
        assert!(rec.path.is_some());
        assert!(!rec.aggregator.unwrap().valid, "stamp must be corrupted");
        // The paper's pipeline filter drops it.
        assert!(!rec.is_valid_announcement());
    }

    /// Every stream of `dump` is in export order, the streams ascend by
    /// vantage point (one prefix), and together they hold every record.
    fn assert_streams_in_export_order(dump: &Dump) {
        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut seen = 0;
        let mut last_vp = None;
        for (p, vp, _, stream) in dump.streams_of(prefix) {
            assert_eq!(p, prefix);
            assert!(last_vp < Some(vp), "streams ascend by vantage point");
            last_vp = Some(vp);
            assert!(stream
                .windows(2)
                .all(|w| w[0].exported_at <= w[1].exported_at));
            seen += stream.len();
        }
        assert_eq!(seen, dump.len());
    }

    #[test]
    fn streams_sorted_by_export_time() {
        let set = CollectorSet::assign(&vps(), 9);
        let taps: Vec<TapRecord> = (0..50)
            .map(|i| tap(1 + (i % 9) as u32, 1000 - 20 * i, true))
            .collect();
        let dump = process(
            &set,
            &taps,
            &CollectorConfig::clean(),
            SimTime::from_mins(60),
        );
        assert_streams_in_export_order(&dump);
    }

    #[test]
    fn a_zero_rate_plan_matches_no_plan() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let set = CollectorSet::assign(&vps(), 4);
        let taps: Vec<TapRecord> = (0..40)
            .map(|i| tap(1 + (i % 9) as u32, 30 * i, true))
            .collect();
        let cfg = CollectorConfig {
            aggregator_corruption: 0.5,
            ..CollectorConfig::default()
        };
        let horizon = SimTime::from_mins(60);
        let plain = process(&set, &taps, &cfg, horizon);
        let plan = FaultPlan::new(FaultSpec::default());
        let mut counters = FaultCounters::default();
        let armed = set.process_with_faults(&taps, &cfg, horizon, Some(&plan), &mut counters);
        assert!(plain.streams().eq(armed.streams()));
        assert_eq!(counters.total(), 0);
        assert!(armed.vp_outages().is_empty());
    }

    #[test]
    fn vp_outage_drops_records_and_counts() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let set = CollectorSet::single(&[AsId(1)], Project::Isolario);
        let plan = FaultPlan::new(FaultSpec {
            vp_outage_rate: 1.0,
            vp_outage_duration: SimDuration::from_hours(1000),
            seed: 5,
            ..FaultSpec::default()
        });
        let taps: Vec<TapRecord> = (0..20).map(|i| tap(1, 60 * i, true)).collect();
        let mut counters = netsim::faults::FaultCounters::default();
        // Horizon of 10 min < last tap (19 min): wherever the (endless)
        // outage window starts inside the horizon, some taps fall in it.
        let dump = set.process_with_faults(
            &taps,
            &CollectorConfig::clean(),
            SimTime::from_mins(10),
            Some(&plan),
            &mut counters,
        );
        assert_eq!(counters.vp_outages, 1);
        assert!(counters.records_outage_dropped > 0);
        assert_eq!(dump.len() as u64 + counters.records_outage_dropped, 20);
        // The dump keeps the window it applied, and no kept record is in it.
        let &(start, end) = dump.vp_outages().get(&AsId(1)).expect("VP 1 went dark");
        assert!(dump
            .records()
            .iter()
            .all(|r| r.observed_at < start || r.observed_at >= end));
    }

    #[test]
    fn duplication_doubles_and_loss_halves() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let set = CollectorSet::single(&[AsId(1)], Project::Isolario);
        let taps: Vec<TapRecord> = (0..10).map(|i| tap(1, 60 * i, true)).collect();
        let horizon = SimTime::from_mins(30);
        let dup_plan = FaultPlan::new(FaultSpec {
            duplication_rate: 1.0,
            seed: 6,
            ..FaultSpec::default()
        });
        let mut counters = netsim::faults::FaultCounters::default();
        let dump = set.process_with_faults(
            &taps,
            &CollectorConfig::clean(),
            horizon,
            Some(&dup_plan),
            &mut counters,
        );
        assert_eq!(dump.len(), 20);
        assert_eq!(counters.records_duplicated, 10);

        let loss_plan = FaultPlan::new(FaultSpec {
            loss_rate: 1.0,
            seed: 6,
            ..FaultSpec::default()
        });
        let mut counters = netsim::faults::FaultCounters::default();
        let dump = set.process_with_faults(
            &taps,
            &CollectorConfig::clean(),
            horizon,
            Some(&loss_plan),
            &mut counters,
        );
        assert!(dump.is_empty());
        assert_eq!(counters.records_lost, 10);
    }

    #[test]
    fn faulted_processing_is_deterministic_and_streams_stay_sorted() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let set = CollectorSet::assign(&vps(), 4);
        let taps: Vec<TapRecord> = (0..60)
            .map(|i| tap(1 + (i % 9) as u32, 30 * i, true))
            .collect();
        let plan = FaultPlan::new(FaultSpec::drill(21));
        let horizon = SimTime::from_mins(60);
        let run = || {
            let mut counters = netsim::faults::FaultCounters::default();
            let dump = set.process_with_faults(
                &taps,
                &CollectorConfig::default(),
                horizon,
                Some(&plan),
                &mut counters,
            );
            (dump, counters)
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert!(a.streams().eq(b.streams()));
        assert_eq!(ca, cb);
        assert_streams_in_export_order(&a);
    }

    #[test]
    fn clock_skew_can_push_export_before_observation() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let set = CollectorSet::single(&[AsId(1)], Project::Isolario);
        let plan = FaultPlan::new(FaultSpec {
            clock_skew: SimDuration::from_hours(2),
            seed: 1,
            ..FaultSpec::default()
        });
        let taps: Vec<TapRecord> = (0..6).map(|i| tap(1, 3600 * (i + 1), true)).collect();
        let mut counters = netsim::faults::FaultCounters::default();
        let dump = set.process_with_faults(
            &taps,
            &CollectorConfig::clean(),
            SimTime::from_mins(480),
            Some(&plan),
            &mut counters,
        );
        assert_eq!(counters.clock_skewed_vps, 1);
        let skew = plan.clock_skew_ms(1);
        assert_ne!(skew, 0, "seed 1 must skew VP 1 for this test to bite");
        if skew < 0 {
            assert!(dump.records().iter().any(|r| r.exported_at < r.observed_at));
        } else {
            assert!(dump
                .records()
                .iter()
                .all(|r| r.exported_at >= r.observed_at));
        }
    }

    #[test]
    fn withdrawals_have_no_path_or_stamp() {
        let set = CollectorSet::single(&[AsId(1)], Project::RipeRis);
        let dump = process(
            &set,
            &[tap(1, 5, false)],
            &CollectorConfig::clean(),
            SimTime::from_mins(60),
        );
        let rec = &dump.records()[0];
        assert!(rec.path.is_none());
        assert!(rec.aggregator.is_none());
        assert!(!rec.is_announcement());
    }
}
