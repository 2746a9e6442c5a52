//! Signature detection and heuristics: path cleaning, Burst–Break
//! pairing/labeling (§4.2), and the three §5.2 heuristics.

use beacon::BeaconSchedule;
use bgpsim::{AsId, AsPath};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::pipeline::{run_campaign, ExperimentConfig};
use heuristics::HeuristicConfig;
use netsim::{SimDuration, SimTime};
use signature::{clean_path, label_dump_with_outages, LabelingConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

fn campaign() -> experiments::pipeline::CampaignOutput {
    let mut cfg = ExperimentConfig::small(1, 99);
    cfg.topology.n_transit = 30;
    cfg.topology.n_stub = 60;
    cfg.topology.n_vantage_points = 20;
    run_campaign(&cfg)
}

fn bench_clean_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_cleaning");
    let path: AsPath = [9u32, 9, 9, 8, 7, 7, 6, 5, 4, 4, 4, 3, 2, 1]
        .iter()
        .map(|&i| AsId(i))
        .collect();
    group.bench_function("clean_prepended_14hop", |b| {
        b.iter(|| black_box(clean_path(black_box(&path))))
    });
    group.finish();
}

fn bench_label_dump(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_labeling");
    group.sample_size(10);
    let out = campaign();
    let schedules: Vec<&BeaconSchedule> = out.campaign.beacon_schedules().collect();
    group.bench_function("label_full_dump", |b| {
        b.iter(|| {
            let mut n = 0;
            for s in &schedules {
                n += label_dump_with_outages(
                    &out.dump,
                    s,
                    &LabelingConfig::default(),
                    &BTreeMap::new(),
                )
                .len();
            }
            black_box(n)
        })
    });
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    let out = campaign();
    let schedules: Vec<&BeaconSchedule> = out.campaign.beacon_schedules().collect();
    group.bench_function("m1_path_ratio", |b| {
        b.iter(|| black_box(heuristics::path_ratio(&out.labels).len()))
    });
    group.bench_function("m2_alternative_paths", |b| {
        b.iter(|| black_box(heuristics::alternative_paths(&out.labels).len()))
    });
    group.bench_function("m3_burst_distribution", |b| {
        b.iter(|| black_box(heuristics::burst_distribution(&out.dump, schedules[0], 40).len()))
    });
    group.bench_function("all_combined", |b| {
        b.iter(|| {
            black_box(
                heuristics::evaluate(
                    &out.labels,
                    &out.dump,
                    &schedules,
                    &HeuristicConfig::default(),
                )
                .per_as
                .len(),
            )
        })
    });
    group.finish();
}

fn bench_schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("beacon_schedule");
    let s = BeaconSchedule::standard(
        "10.0.0.0/24".parse().unwrap(),
        AsId(65000),
        SimDuration::from_mins(1),
        SimDuration::from_hours(6),
        SimTime::ZERO,
        8,
    );
    group.bench_function("events_8_cycles_1min", |b| {
        b.iter(|| black_box(s.events().len()))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_clean_path, bench_label_dump, bench_heuristics, bench_schedule_generation
);
criterion_main!(benches);
