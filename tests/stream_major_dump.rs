//! The collector dump is stream-major: one stream per `(prefix,
//! vantage)` pair, ascending, each in export order with equal export
//! times in collection order. These tests hold real campaign dumps, with
//! and without the fault drill, to that contract, and check that
//! labeling over the streams equals labeling over a flat copy of the
//! records, keyed from their stream headers, in the old global export
//! order. (`tests/stream_keys.rs` checks that each stream holds exactly
//! its own records.)

use std::collections::BTreeMap;

use beacon::BeaconSchedule;
use bgpsim::{AsId, Prefix};
use collector::{Dump, Project, UpdateRecord};
use experiments::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};
use netsim::faults::FaultSpec;
use netsim::{SimDuration, SimTime};
use signature::label::pair_outcomes_with_outage;
use signature::{label_dump_with_outages, CleanPath, LabeledPath, LabelingConfig};

const SEEDS: [u64; 3] = [2020, 7, 31];

/// A tiny campaign at three beacon intervals, optionally under the
/// fault drill (duplicates, reorder skew, clock skew, outages).
fn campaign(seed: u64, drill: bool) -> CampaignOutput {
    let mut config = ExperimentConfig::small(1, seed);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    if drill {
        config.faults = Some(FaultSpec::drill(seed));
    }
    run_campaign(&config)
}

/// Every stream of the dump, in the order [`Dump::streams`] yields them;
/// each prefix's run equals what [`Dump::streams_of`] yields for it.
fn streams(dump: &Dump) -> Vec<(Prefix, AsId, Project, &[UpdateRecord])> {
    let streams: Vec<_> = dump.streams().collect();
    for run in streams.chunk_by(|a, b| a.0 == b.0) {
        let of: Vec<_> = dump.streams_of(run[0].0).collect();
        assert_eq!(of, run, "streams_of({}) is its run of streams()", run[0].0);
    }
    streams
}

/// How much the dump exercises the order contract: streams with two
/// records exported at the same time but observed apart, and adjacent
/// records exported in the opposite order to their observation.
#[derive(Default)]
struct Exercised {
    export_ties: usize,
    inversions: usize,
}

/// Contract points 1 and 2: the streams partition the dump's records,
/// laid out back to back in ascending `(prefix, vantage)` order, and
/// within a stream `(exported_at, observed_at)` never decreases.
fn assert_stream_major(dump: &Dump, label: &str) -> Exercised {
    let streams = streams(dump);
    let mut exercised = Exercised::default();
    let mut at = 0;
    let mut end = streams.first().map(|s| s.3.as_ptr());
    for w in streams.windows(2) {
        assert!(
            (w[0].0, w[0].1) < (w[1].0, w[1].1),
            "{label}: streams ascend by (prefix, vantage)"
        );
    }
    for (prefix, vp, _, stream) in &streams {
        assert!(!stream.is_empty(), "{label}: no empty streams");
        assert!(
            end.is_some_and(|end| std::ptr::eq(stream.as_ptr(), end)),
            "{label}: stream ({prefix}, {vp}) starts where the last one ended"
        );
        end = Some(stream.as_ptr_range().end);
        at += stream.len();
        for w in stream.windows(2) {
            assert!(
                (w[0].exported_at, w[0].observed_at) <= (w[1].exported_at, w[1].observed_at),
                "{label}: ({prefix}, {vp}) leaves export order at {}",
                w[1].exported_at
            );
            if w[0].exported_at == w[1].exported_at && w[0].observed_at < w[1].observed_at {
                exercised.export_ties += 1;
            }
            if w[0].observed_at > w[1].observed_at {
                exercised.inversions += 1;
            }
        }
    }
    assert_eq!(at, dump.len(), "{label}: the streams hold every record");
    exercised
}

/// Labeling as it was before the dump became stream-major: lay a flat
/// copy of the records out in global export order (a stable sort, as
/// collection used to leave them), keep the schedule's prefix, group per
/// vantage point in a `BTreeMap`, and aggregate the pair outcomes per
/// path.
fn reference_labels(
    dump: &Dump,
    schedule: &BeaconSchedule,
    config: &LabelingConfig,
    outages: &BTreeMap<AsId, (SimTime, SimTime)>,
) -> Vec<LabeledPath> {
    let mut flat: Vec<(AsId, Prefix, &UpdateRecord)> = dump
        .streams()
        .flat_map(|(prefix, vp, _, stream)| stream.iter().map(move |r| (vp, prefix, r)))
        .collect();
    flat.sort_by_key(|&(vp, prefix, r)| (r.exported_at, vp, prefix));
    let mut by_vantage: BTreeMap<AsId, Vec<UpdateRecord>> = BTreeMap::new();
    for (vp, _, r) in flat.into_iter().filter(|f| f.1 == schedule.prefix) {
        by_vantage.entry(vp).or_default().push(r.clone());
    }
    let mut out = Vec::new();
    for (vantage, records) in by_vantage {
        let outcomes =
            pair_outcomes_with_outage(&records, schedule, config, outages.get(&vantage).copied());
        let mut per_path: BTreeMap<CleanPath, LabeledPath> = BTreeMap::new();
        for o in outcomes {
            let path = dump.path(o.path);
            let l = per_path.entry(path.clone()).or_insert_with(|| LabeledPath {
                vantage,
                prefix: schedule.prefix,
                path: path.clone(),
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
        for (_, mut l) in per_path {
            if l.pairs_total >= config.min_pairs {
                l.rfd = l.pairs_matching as f64 / l.pairs_total as f64 >= config.signature_share;
                out.push(l);
            } else if l.pairs_unobservable > 0 {
                l.unobservable = true;
                out.push(l);
            }
        }
    }
    out
}

/// Holds the campaign dumps of every seed, with or without the fault
/// drill, to the contract, and labels them against the reference.
fn check_campaigns(drill: bool) {
    for seed in SEEDS {
        let label = format!("seed {seed}, drill {drill}");
        let out = campaign(seed, drill);
        let exercised = assert_stream_major(&out.dump, &label);
        // RouteViews exports on a 50 s cadence, so its streams tie on
        // export time; RIS and Isolario delays reorder arrivals.
        assert!(exercised.export_ties > 0, "{label}: no export-time ties");
        assert!(exercised.inversions > 0, "{label}: no reordering");
        if drill {
            assert!(out.fault_counters.records_duplicated > 0, "{label}");
            assert!(out.fault_counters.records_reordered > 0, "{label}");
            assert!(out.fault_counters.clock_skewed_vps > 0, "{label}");
        }

        let mut labeled = 0;
        for schedule in out.campaign.beacon_schedules() {
            let config = LabelingConfig::default();
            let got = label_dump_with_outages(&out.dump, schedule, &config, &out.vp_outages);
            let want = reference_labels(&out.dump, schedule, &config, &out.vp_outages);
            assert_eq!(got, want, "{label}: {}", schedule.prefix);
            labeled += got.len();
        }
        assert!(labeled > 0, "{label}: the campaign labels nothing");
    }
}

#[test]
fn fault_free_dumps_are_stream_major_and_label_like_the_flat_reference() {
    check_campaigns(false);
}

#[test]
fn drill_dumps_are_stream_major_and_label_like_the_flat_reference() {
    check_campaigns(true);
}
