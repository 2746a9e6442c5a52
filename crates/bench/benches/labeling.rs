//! Collection, signature detection and heuristics: turning tap records
//! into a dump, path cleaning, Burst–Break pairing/labeling (§4.2), and
//! the three §5.2 heuristics.

use beacon::{BeaconSchedule, Campaign};
use bgpsim::{AsId, AsPath, NetworkConfig};
use collector::CollectorSet;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::deployment::Deployment;
use experiments::pipeline::{run_campaign, ExperimentConfig};
use heuristics::HeuristicConfig;
use netsim::faults::{FaultCounters, FaultPlan, FaultSpec};
use netsim::{SimDuration, SimTime};
use signature::{clean_path, label_dump_with_outages, LabelingConfig};
use std::hint::black_box;

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(1, 99);
    cfg.topology.n_transit = 30;
    cfg.topology.n_stub = 60;
    cfg.topology.n_vantage_points = 20;
    cfg
}

fn campaign() -> experiments::pipeline::CampaignOutput {
    run_campaign(&config())
}

/// The same topology running all six beacon intervals for two cycles
/// under the fault drill (duplicates, reordering, clock skew, outages).
fn drill_config() -> ExperimentConfig {
    let mut cfg = config();
    cfg.intervals = [1, 2, 3, 5, 10, 15].map(SimDuration::from_mins).to_vec();
    cfg.cycles = 2;
    cfg.faults = Some(FaultSpec::drill(99));
    cfg
}

/// What collection starts from in [`drill_config`]'s campaign: the tap
/// log of the faulted run, its fault plan, horizon and collector set.
fn drill_taps() -> (Vec<bgpsim::TapRecord>, FaultPlan, SimTime, CollectorSet) {
    let cfg = drill_config();
    let topology = topology::generate(&cfg.topology);
    let deployment = Deployment::assign(&topology, &cfg.deployment);
    let net_config = NetworkConfig {
        jitter: 0.5,
        ..NetworkConfig::realistic(cfg.seed)
    };
    let mut net = topology.instantiate(net_config, deployment.policy_hook());
    let campaign = Campaign::new(
        &topology.beacon_sites,
        &cfg.intervals,
        cfg.break_duration,
        SimTime::ZERO,
        cfg.cycles,
    );
    campaign.apply(&mut net);
    let horizon = campaign
        .beacon_schedules()
        .fold(SimTime::ZERO, |h, s| h.max(s.end()));
    let plan = FaultPlan::new(cfg.faults.expect("the drill config is faulted"));
    net.apply_faults(&plan, horizon - SimTime::ZERO);
    net.run_to_quiescence();
    let collectors = CollectorSet::assign(&topology.vantage_points, cfg.seed);
    (net.take_tap_log(), plan, horizon, collectors)
}

fn bench_collect(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect");
    group.sample_size(10);
    let (taps, plan, horizon, collectors) = drill_taps();
    let config = drill_config().collector;
    group.bench_function("process_6_intervals_drill", |b| {
        b.iter(|| {
            let mut counters = FaultCounters::default();
            let dump = collectors.process_with_faults(
                black_box(&taps),
                &config,
                horizon,
                Some(&plan),
                &mut counters,
            );
            black_box(dump.len())
        })
    });
    group.finish();
}

/// Label every schedule of `out` against its dump and VP outages.
fn label_all(out: &experiments::pipeline::CampaignOutput) -> usize {
    out.campaign
        .beacon_schedules()
        .map(|s| {
            label_dump_with_outages(&out.dump, s, &LabelingConfig::default(), &out.vp_outages).len()
        })
        .sum()
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
    group.bench_function("label_full_dump", |b| {
        b.iter(|| black_box(label_all(black_box(&out))))
    });
    let drill = run_campaign(&drill_config());
    group.bench_function("label_full_dump_6_intervals_drill", |b| {
        b.iter(|| black_box(label_all(black_box(&drill))))
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
    targets = bench_collect, bench_clean_path, bench_label_dump, bench_heuristics, bench_schedule_generation
);
criterion_main!(benches);
