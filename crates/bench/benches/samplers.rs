//! MCMC kernels: MH sweeps vs HMC trajectories (the §3.2 comparison),
//! plus the prior-sensitivity and step-count ablations from DESIGN.md.

use because::chain::{run_chain, ChainConfig, Sampler};
use because::hmc::Hmc;
use because::mh::MetropolisHastings;
use because::{LiveProgress, Prior};
use bench::synthetic_paths;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::SimRng;
use std::hint::black_box;

fn bench_mh_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_sweep");
    for &(nodes, paths) in &[(50u32, 200usize), (200, 1000)] {
        let data = synthetic_paths(nodes, paths, 0.2, 10);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{paths}p")),
            &(),
            |b, _| {
                let mut rng = SimRng::new(1);
                let mut s = MetropolisHastings::from_prior(&data, Prior::default(), &mut rng);
                b.iter(|| {
                    s.step(&mut rng);
                    black_box(s.state()[0])
                })
            },
        );
    }
    group.finish();
}

/// The driver A/Bs on one full MH chain: `run_chain` (`plain`), the
/// supervised driver with no observer (`supervised_default`), and the
/// supervised driver with a `LiveProgress` trace lane at the default
/// cadence (`traced_every_50`). The gap between the last two is the whole
/// cost of the snapshots (the chain's rank-R̂ and bulk ESS, recomputed at
/// 50·2^k draws and the last draw) plus the ring-buffer pushes.
fn bench_chain_run_traced(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_chain_run");
    group.sample_size(10);
    let data = synthetic_paths(50, 200, 0.2, 10);
    let config = ChainConfig {
        warmup: 100,
        samples: 200,
        thin: 1,
    };
    group.bench_function("plain", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(5);
            let chain = run_chain(
                MetropolisHastings::from_prior(&data, Prior::default(), &mut rng),
                &config,
                &mut rng,
            );
            black_box(chain.len())
        })
    });
    // The supervised-driver A/B: the same chain through the default
    // supervisor (no checkpoint, no resume, no watchdog). The delta is
    // the whole cost of the per-iteration disabled-feature checks the
    // crash-safe driver adds over the bare loop.
    group.bench_function("supervised_default", |b| {
        b.iter(|| {
            let rng = SimRng::new(5);
            let run = because::run_chains_supervised(
                |_k, rng| MetropolisHastings::from_prior(&data, Prior::default(), rng),
                |_k| because::NoProgress,
                1,
                &config,
                &rng,
                &because::SupervisorConfig::default(),
                "mh",
            );
            let (completed, failures) = run.into_parts();
            black_box((completed.len(), failures.len()))
        })
    });
    group.bench_function("traced_every_50", |b| {
        b.iter(|| {
            let rng = SimRng::new(5);
            let run = because::run_chains_supervised(
                |_k, rng| MetropolisHastings::from_prior(&data, Prior::default(), rng),
                |_k| LiveProgress::new(0, Some((obs::Lane(0), std::time::Instant::now()))),
                1,
                &config,
                &rng,
                &because::SupervisorConfig::default(),
                "mh",
            );
            let (mut completed, _) = run.into_parts();
            let (_, chain, observer) = completed.pop().expect("chain completed");
            let events = observer
                .expect("completed chain keeps its observer")
                .into_trace()
                .expect("a lane was asked for")
                .len();
            black_box((chain.len(), events))
        })
    });
    group.finish();
}

fn bench_hmc_trajectory(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmc_trajectory");
    for &(nodes, paths) in &[(50u32, 200usize), (200, 1000)] {
        let data = synthetic_paths(nodes, paths, 0.2, 11);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{paths}p")),
            &(),
            |b, _| {
                let mut rng = SimRng::new(2);
                let mut s = Hmc::from_prior(&data, Prior::default(), &mut rng);
                b.iter(|| {
                    s.step(&mut rng);
                    black_box(s.state()[0])
                })
            },
        );
    }
    group.finish();
}

fn bench_hmc_leapfrog_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmc_leapfrog_steps");
    let data = synthetic_paths(100, 500, 0.2, 12);
    for &steps in &[5usize, 20, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, &steps| {
            let mut rng = SimRng::new(3);
            let mut s =
                Hmc::from_prior(&data, Prior::default(), &mut rng).with_leapfrog_steps(steps);
            b.iter(|| {
                s.step(&mut rng);
                black_box(s.state()[0])
            })
        });
    }
    group.finish();
}

fn bench_prior_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_prior_sensitivity");
    let data = synthetic_paths(100, 500, 0.2, 13);
    let priors = [
        ("uniform", Prior::Uniform),
        (
            "beta_1_4",
            Prior::Beta {
                alpha: 1.0,
                beta: 4.0,
            },
        ),
        (
            "beta_2_2",
            Prior::Beta {
                alpha: 2.0,
                beta: 2.0,
            },
        ),
    ];
    for (name, prior) in priors {
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            let mut rng = SimRng::new(4);
            let mut s = MetropolisHastings::from_prior(&data, prior, &mut rng);
            b.iter(|| {
                s.step(&mut rng);
                black_box(s.state()[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mh_sweep, bench_chain_run_traced, bench_hmc_trajectory, bench_hmc_leapfrog_ablation, bench_prior_ablation
);
criterion_main!(benches);
