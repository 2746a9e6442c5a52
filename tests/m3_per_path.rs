//! Heuristic M3 builds one histogram per distinct clean path and adds it
//! into each of the path's ASs. This keeps the per-record version it
//! replaced as the reference and checks both agree bit for bit on real
//! campaign dumps, with and without faults.

use std::collections::BTreeMap;

use bgpsim::AsId;
use collector::Dump;
use experiments::pipeline::{run_campaign, ExperimentConfig};
use netsim::faults::FaultSpec;
use netsim::stats::{linear_fit_bins, Histogram};
use netsim::SimDuration;

/// M3 as it was: push each record's arrival into the histogram of every
/// AS on its (collector-cleaned) path.
fn reference_burst_distribution(
    dump: &Dump,
    schedule: &beacon::BeaconSchedule,
    bins: usize,
) -> BTreeMap<AsId, f64> {
    let mut histograms: BTreeMap<AsId, Histogram> = BTreeMap::new();
    let records = dump
        .streams()
        .filter(|&(prefix, ..)| prefix == schedule.prefix)
        .flat_map(|(_, _, _, stream)| stream);
    for record in records.filter(|r| r.is_valid_announcement()) {
        let Some(sent) = record.beacon_time() else {
            continue;
        };
        let Some(burst) = (0..schedule.cycles)
            .find(|&i| sent >= schedule.burst_start(i) && sent < schedule.burst_end(i))
        else {
            continue;
        };
        let rel = record
            .exported_at
            .saturating_since(schedule.burst_start(burst))
            .as_secs_f64()
            / schedule.burst_duration.as_secs_f64();
        let Some(path) = &record.path else {
            continue;
        };
        for &a in path.asns() {
            histograms
                .entry(a)
                .or_insert_with(|| Histogram::new(0.0, 1.0, bins))
                .push(rel.min(1.0 - 1e-9));
        }
    }
    histograms
        .into_iter()
        .filter_map(|(a, h)| {
            let fit = linear_fit_bins(&h.heights())?;
            let score = if fit.slope >= 0.0 {
                0.0
            } else {
                (-fit.relative_change(0.0, (bins - 1) as f64)).clamp(0.0, 1.0)
            };
            Some((a, score))
        })
        .collect()
}

fn bits(scores: &BTreeMap<AsId, f64>) -> Vec<(AsId, u64)> {
    scores.iter().map(|(&a, v)| (a, v.to_bits())).collect()
}

fn assert_matches_reference(config: &ExperimentConfig) {
    let out = run_campaign(config);
    let mut scored = 0;
    for schedule in out.campaign.beacon_schedules() {
        for bins in [40, 7] {
            let got = heuristics::burst_distribution(&out.dump, schedule, bins);
            let want = reference_burst_distribution(&out.dump, schedule, bins);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{} with {bins} bins",
                schedule.prefix
            );
            scored += got.len();
        }
    }
    assert!(scored > 0, "the campaign must give M3 something to score");
}

#[test]
fn m3_per_path_matches_the_per_record_reference() {
    assert_matches_reference(&ExperimentConfig::small(1, 2020));
}

#[test]
fn m3_per_path_matches_the_per_record_reference_under_the_fault_drill() {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    config.faults = Some(FaultSpec::drill(2020));
    assert_matches_reference(&config);
}
