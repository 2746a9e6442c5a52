//! Discrete-event simulator throughput: event-queue operations, BGP
//! convergence, and a full Burst propagation (undamped, damped, faulted
//! and traced) — the substrate cost behind every figure.

use bgpsim::{AsId, NetworkConfig, Prefix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use topology::{generate, TopologyConfig};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic times.
                q.schedule_at(
                    SimTime::from_millis(i.wrapping_mul(2654435761) % 1_000_000),
                    i,
                );
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // A lane's pattern (hold model): about 1k events pending, and each
    // pop schedules one more, 0.5–8.2 s ahead like a delivery or, one
    // time in ten, 30 s–1 h ahead like an MRAI or RFD timer.
    group.bench_function("hold_lane_mix", |b| {
        let ahead = |r: u64| {
            let ms = if r.is_multiple_of(10) {
                30_000 + (r / 10) % 3_570_000
            } else {
                500 + (r / 10) % 7_700
            };
            SimDuration::from_millis(ms)
        };
        b.iter(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut draw = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule_at(SimTime::ZERO + ahead(draw()), i);
            }
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                let (t, e) = q.pop().expect("the hold keeps 1k events pending");
                acc = acc.wrapping_add(e);
                q.schedule_at(t + ahead(draw()), i);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("bgp_convergence");
    group.sample_size(10);
    for &(transit, stub) in &[(20usize, 50usize), (80, 200)] {
        let config = TopologyConfig {
            n_transit: transit,
            n_stub: stub,
            ..TopologyConfig::default_with_seed(5)
        };
        let topo = generate(&config);
        let pfx: Prefix = "10.0.0.0/24".parse().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}as", topo.len())),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut net = topo.instantiate(
                        NetworkConfig {
                            jitter: 0.3,
                            seed: 5,
                            ..Default::default()
                        },
                        |_, _, pol| pol,
                    );
                    net.schedule_announce(SimTime::ZERO, topo.beacon_sites[0], pfx, true);
                    net.run_to_quiescence();
                    black_box(net.delivered())
                })
            },
        );
    }
    group.finish();
}

fn bench_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("beacon_burst");
    group.sample_size(10);
    let config = TopologyConfig {
        n_transit: 40,
        n_stub: 100,
        ..TopologyConfig::default_with_seed(6)
    };
    let topo = generate(&config);
    let pfx: Prefix = "10.0.0.0/24".parse().unwrap();
    let site = topo.beacon_sites[0];
    group.bench_function("one_2h_burst_1min", |b| {
        b.iter(|| {
            let mut net = topo.instantiate(
                NetworkConfig {
                    jitter: 0.3,
                    seed: 6,
                    ..Default::default()
                },
                |_, _, pol| pol,
            );
            let schedule = beacon::BeaconSchedule::standard(
                pfx,
                site,
                netsim::SimDuration::from_mins(1),
                netsim::SimDuration::from_hours(2),
                SimTime::ZERO,
                1,
            );
            schedule.apply(&mut net);
            net.run_to_quiescence();
            black_box(net.events_processed())
        })
    });
    // The same burst with Cisco RFD on every session, set through the
    // policy hook: the suppress/release path a damped campaign runs.
    group.bench_function("one_2h_burst_1min_damped", |b| {
        let cisco = bgpsim::VendorProfile::Cisco.params();
        b.iter(|| {
            let mut net = topo.instantiate(
                NetworkConfig {
                    jitter: 0.3,
                    seed: 6,
                    ..Default::default()
                },
                |_, _, pol| pol.with_rfd(cisco),
            );
            let schedule = beacon::BeaconSchedule::standard(
                pfx,
                site,
                netsim::SimDuration::from_mins(1),
                netsim::SimDuration::from_hours(2),
                SimTime::ZERO,
                1,
            );
            schedule.apply(&mut net);
            net.run_to_quiescence();
            black_box((net.events_processed(), net.stats().rfd.len()))
        })
    });
    // The enabled-faults A/B: same burst with an armed session-reset
    // plan, pricing the per-delivery down-link check plus the reset
    // event handling itself.
    group.bench_function("one_2h_burst_1min_faulted", |b| {
        b.iter(|| {
            let mut net = topo.instantiate(
                NetworkConfig {
                    jitter: 0.3,
                    seed: 6,
                    ..Default::default()
                },
                |_, _, pol| pol,
            );
            let schedule = beacon::BeaconSchedule::standard(
                pfx,
                site,
                netsim::SimDuration::from_mins(1),
                netsim::SimDuration::from_hours(2),
                SimTime::ZERO,
                1,
            );
            schedule.apply(&mut net);
            let plan = netsim::faults::FaultPlan::new(netsim::faults::FaultSpec {
                session_reset_rate: 0.2,
                seed: 6,
                ..Default::default()
            });
            net.apply_faults(&plan, netsim::SimDuration::from_hours(3));
            net.run_to_quiescence();
            black_box(net.events_processed())
        })
    });
    // The enabled-tracing A/B: same burst with the RFD/MRAI trace sink
    // attached (no RFD sessions here, so this prices the per-dispatch
    // branch plus MRAI counter pushes, not the damping bookkeeping).
    group.bench_function("one_2h_burst_1min_traced", |b| {
        b.iter(|| {
            let mut net = topo.instantiate(
                NetworkConfig {
                    jitter: 0.3,
                    seed: 6,
                    ..Default::default()
                },
                |_, _, pol| pol,
            );
            net.set_trace(obs::TraceBuffer::new(1 << 16));
            let schedule = beacon::BeaconSchedule::standard(
                pfx,
                site,
                netsim::SimDuration::from_mins(1),
                netsim::SimDuration::from_hours(2),
                SimTime::ZERO,
                1,
            );
            schedule.apply(&mut net);
            net.run_to_quiescence();
            black_box((net.events_processed(), net.take_trace().map(|t| t.len())))
        })
    });
    group.finish();
}

fn bench_rfd_state(c: &mut Criterion) {
    use bgpsim::rfd::{FlapKind, RfdState};
    use bgpsim::VendorProfile;
    let mut group = c.benchmark_group("rfd_state_machine");
    let params = VendorProfile::Juniper.params();
    group.bench_function("record_1k_flaps", |b| {
        b.iter(|| {
            let mut s = RfdState::new();
            let mut t = SimTime::ZERO;
            for i in 0..1000 {
                let kind = if i % 2 == 0 {
                    FlapKind::Withdrawal
                } else {
                    FlapKind::Readvertisement
                };
                black_box(s.record(kind, t, &params));
                t += netsim::SimDuration::from_secs(30);
            }
            black_box(s.penalty_at(t, &params))
        })
    });
    group.finish();
}

fn bench_topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generation");
    group.sample_size(10);
    for &n in &[300usize, 1000] {
        let config = TopologyConfig {
            n_transit: n / 4,
            n_stub: n - n / 4 - 13,
            ..TopologyConfig::default_with_seed(7)
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &config, |b, config| {
            b.iter(|| black_box(generate(config).len()))
        });
    }
    group.finish();
}

// Silence the unused-import lint for AsId (used in type signatures only on
// some configurations).
#[allow(dead_code)]
fn _touch(_: AsId) {}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_event_queue, bench_convergence, bench_burst, bench_rfd_state, bench_topology_generation
);
criterion_main!(benches);
