//! End-to-end pipelines — the cost of regenerating each result:
//!
//! * `fig11_table2`: 1-minute campaign + BeCAUSe analysis (the workload
//!   behind Fig. 9/11 and Table 2);
//! * `table4_rfd`: campaign + BeCAUSe + heuristics + oracle evaluation;
//! * `fig12_point`: one interval point of the Fig. 12 sweep;
//! * `rov_scenario`: the §7 ROV benchmark construction + inference.

use because::{AnalysisConfig, SupervisorConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::infer::infer_with_supervision;
use experiments::metrics::evaluate_against_oracle;
use experiments::pipeline::{run_campaign, ExperimentConfig};
use heuristics::HeuristicConfig;
use netsim::SimDuration;
use std::hint::black_box;

fn small_experiment(interval: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(interval, 7);
    cfg.topology.n_transit = 25;
    cfg.topology.n_stub = 50;
    cfg.topology.n_vantage_points = 15;
    cfg.cycles = 3;
    cfg
}

fn analysis_cfg() -> AnalysisConfig {
    AnalysisConfig {
        chain: because::chain::ChainConfig {
            warmup: 150,
            samples: 300,
            thin: 1,
        },
        n_chains: 1,
        seed: 7,
        ..Default::default()
    }
}

fn bench_campaign_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("campaign_simulation", |b| {
        let cfg = small_experiment(1);
        b.iter(|| black_box(run_campaign(&cfg).labels.len()))
    });
    // Enabled-faults A/B: the same campaign under the drill fault mix
    // (outages, session resets, record loss/dup/reorder, clock skew)
    // prices the armed fault plan end to end — session-down drops,
    // per-record fault draws, outage-aware labeling.
    group.bench_function("campaign_simulation_faulted", |b| {
        let mut cfg = small_experiment(1);
        cfg.faults = Some(netsim::faults::FaultSpec::drill(7));
        b.iter(|| black_box(run_campaign(&cfg).labels.len()))
    });
    group.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let out = run_campaign(&small_experiment(1));
    group.bench_function("fig11_table2_inference", |b| {
        b.iter(|| {
            let inf = infer_with_supervision(
                &out,
                &analysis_cfg(),
                &HeuristicConfig::default(),
                &SupervisorConfig::default(),
            );
            black_box(inf.analysis.category_counts())
        })
    });
    group.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("table4_rfd_end_to_end", |b| {
        b.iter(|| {
            let out = run_campaign(&small_experiment(1));
            let inf = infer_with_supervision(
                &out,
                &analysis_cfg(),
                &HeuristicConfig::default(),
                &SupervisorConfig::default(),
            );
            let eval =
                evaluate_against_oracle(&out, &inf.because_flagged(), SimDuration::from_mins(1));
            black_box((eval.pr.precision(), eval.pr.recall()))
        })
    });
    group.finish();
}

fn bench_fig12_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("fig12_single_interval_point", |b| {
        b.iter(|| {
            let out = run_campaign(&small_experiment(5));
            black_box(out.rfd_path_share())
        })
    });
    group.finish();
}

fn bench_rov(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("rov_scenario_build_and_infer", |b| {
        let cfg = rov::RovScenarioConfig {
            topology: topology::TopologyConfig::tiny(7),
            ..Default::default()
        };
        b.iter(|| {
            let s = rov::build(&cfg);
            let (_, pr) = s.evaluate(&analysis_cfg());
            black_box(pr.recall())
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_campaign_only, bench_fig11, bench_table4, bench_fig12_point, bench_rov
);
criterion_main!(benches);
