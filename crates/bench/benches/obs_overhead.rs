//! Cost of the obs primitives themselves — the instrumentation must stay
//! well inside its ≤ 2 % end-to-end budget, which means every histogram
//! record, span and registry bump has to be a handful of nanoseconds.

use criterion::{criterion_group, criterion_main, Criterion};
use obs::{Histogram, Registry, SpanSet};
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

fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.bench_function("span_enter_exit_1k", |b| {
        let mut spans = SpanSet::new();
        let id = spans.register("bench_secs");
        b.iter(|| {
            for _ in 0..1000 {
                let guard = spans.enter(id);
                drop(guard);
            }
            black_box(spans.secs(id))
        })
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    let mut registry = Registry::new();
    let id = registry.counter("bench_counter");
    group.bench_function("registry_atomic_inc_1k", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                registry.inc(id);
            }
            black_box(&registry)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_histogram, bench_span, bench_registry
);
criterion_main!(benches);
