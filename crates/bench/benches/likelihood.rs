//! Likelihood kernels — the inner loop of both samplers.
//!
//! * `eval` / `eval_grad`: full-dataset log-likelihood, and the fused
//!   log-likelihood + gradient pass (the HMC leapfrog cost), over growing
//!   dataset sizes.
//! * `incremental_vs_full`: the ablation DESIGN.md calls out — a
//!   component-wise update via the incremental cache versus recomputing
//!   the full likelihood, which is the difference that makes MH viable
//!   on paper-scale datasets.

use because::likelihood::{IncrementalLikelihood, LogLikelihood};
use bench::{mid_p, synthetic_paths};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("likelihood_eval");
    for &(nodes, paths) in &[(50u32, 200usize), (200, 1000), (500, 4000), (800, 6000)] {
        let data = synthetic_paths(nodes, paths, 0.2, 1);
        let ll = LogLikelihood::new(&data);
        let p = mid_p(&data);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{paths}p")),
            &(),
            |b, _| b.iter(|| black_box(ll.eval(black_box(&p)))),
        );
    }
    group.finish();
}

fn bench_grad(c: &mut Criterion) {
    let mut group = c.benchmark_group("likelihood_grad");
    for &(nodes, paths) in &[(50u32, 200usize), (200, 1000), (500, 4000), (800, 6000)] {
        let data = synthetic_paths(nodes, paths, 0.2, 2);
        let mut ll = LogLikelihood::new(&data);
        let p = mid_p(&data);
        let mut g = vec![0.0; data.num_nodes()];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{paths}p")),
            &(),
            |b, _| {
                b.iter(|| {
                    black_box(ll.eval_grad(black_box(&p), &mut g));
                    black_box(&g);
                })
            },
        );
    }
    group.finish();
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("coordinate_update");
    let data = synthetic_paths(200, 1000, 0.2, 3);
    let ll = LogLikelihood::new(&data);
    let p = mid_p(&data);
    let mut inc = IncrementalLikelihood::new(&data, &p);

    group.bench_function("incremental_delta", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % data.num_nodes();
            black_box(inc.delta(i, 0.31))
        })
    });
    group.bench_function("full_recompute", |b| {
        let mut p2 = p.clone();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % data.num_nodes();
            p2[i] = 0.31;
            let v = ll.eval(&p2);
            p2[i] = 0.3;
            black_box(v)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_eval, bench_grad, bench_incremental_vs_full
);
criterion_main!(benches);
