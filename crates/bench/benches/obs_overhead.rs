//! Cost of the obs primitives themselves — the instrumentation must stay
//! well inside its ≤ 2 % end-to-end budget, which means every histogram
//! record has to be a handful of nanoseconds. A served run also
//! pays one `record_progress` per chain per observer cadence.

use criterion::{criterion_group, criterion_main, Criterion};
use obs::serve::{ChainProgress, ServeState};
use obs::Histogram;
use std::hint::black_box;

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.bench_function("histogram_record_1k", |b| {
        let mut hist = Histogram::new(&[1.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0]);
        b.iter(|| {
            for i in 0..1000u64 {
                // Deterministic values spread over all buckets.
                hist.record((i.wrapping_mul(2654435761) % 150) as f64);
            }
            black_box(hist.count())
        })
    });
    group.finish();
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    let state = ServeState::new();
    group.bench_function("serve_record_progress_1k", |b| {
        b.iter(|| {
            for i in 0..1000usize {
                state.record_progress(ChainProgress {
                    kernel: if i % 2 == 0 { "MH" } else { "HMC" },
                    chain_index: (i / 2) % 2,
                    phase: "sampling",
                    iteration: i,
                    total: 1000,
                    accept_rate: 0.5,
                    divergences: 0,
                    max_rank_r_hat: 1.01,
                    min_ess_bulk: 100.0,
                });
            }
            black_box(&state)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_histogram, bench_serve
);
criterion_main!(benches);
