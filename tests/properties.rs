//! Property-based tests over the core data structures and invariants,
//! spanning crates (hence integration-level).

use because::likelihood::{IncrementalLikelihood, LogLikelihood, P_EPS};
use because::summary::Marginal;
use because::{NodeId, PathData, PathObservation};
use bgpsim::rfd::{FlapKind, RfdState};
use bgpsim::{AsId, AsPath, Prefix, VendorProfile};
use netsim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------
// RFD state machine
// ---------------------------------------------------------------------

fn flap_kind(i: u8) -> FlapKind {
    match i % 4 {
        0 => FlapKind::Withdrawal,
        1 => FlapKind::Readvertisement,
        2 => FlapKind::AttributeChange,
        _ => FlapKind::Duplicate,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The penalty never exceeds the RFC 2439 ceiling, and a suppressed
    /// route's release time never lies more than max-suppress-time past
    /// its last update.
    #[test]
    fn rfd_penalty_bounded_and_release_bounded(
        kinds in proptest::collection::vec(0u8..4, 1..200),
        gaps in proptest::collection::vec(1u64..600, 1..200),
        profile in 0u8..3,
    ) {
        let params = match profile {
            0 => VendorProfile::Cisco.params(),
            1 => VendorProfile::Juniper.params(),
            _ => VendorProfile::Rfc7454.params(),
        };
        let mut state = RfdState::new();
        let mut now = SimTime::ZERO;
        for (k, g) in kinds.iter().zip(gaps.iter().cycle()) {
            state.record(flap_kind(*k), now, &params);
            prop_assert!(state.penalty_at(now, &params) <= params.penalty_ceiling() + 1e-6);
            if state.is_suppressed() {
                let release = state.release_at(&params).expect("suppressed has release");
                prop_assert!(
                    release.saturating_since(now) <= params.max_suppress_time + SimDuration::from_secs(1),
                    "release {release} too far past {now}"
                );
            } else {
                prop_assert!(state.release_at(&params).is_none());
            }
            now += SimDuration::from_secs(*g);
        }
    }

    /// Once quiet, a suppressed route is always released by the time the
    /// reuse deadline passes.
    #[test]
    fn rfd_release_deadline_is_honest(
        kinds in proptest::collection::vec(0u8..2, 5..100),
    ) {
        let params = VendorProfile::Juniper.params();
        let mut state = RfdState::new();
        let mut now = SimTime::ZERO;
        for k in &kinds {
            state.record(flap_kind(*k), now, &params);
            now += SimDuration::from_secs(45);
        }
        if state.is_suppressed() {
            let release = state.release_at(&params).unwrap();
            prop_assert!(state.tick(release, &params), "tick at deadline must release");
            prop_assert!(!state.is_suppressed());
        }
    }

    // -----------------------------------------------------------------
    // Event queue
    // -----------------------------------------------------------------

    /// Pops are sorted by time, FIFO within equal timestamps.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    /// Any interleaving of `schedule_at`, `pop`, `pop_until` and `clear`
    /// pops exactly what a binary heap of (time, seq) pops. The delays
    /// cover same-millisecond ties, both sides of the queue's 2^14 ms
    /// window, deliveries, MRAI/RFD timers and 2 h breaks; `pop_until`
    /// drains to a deadline like a lane run that stops early and is
    /// followed by more scheduling. Release builds also schedule into
    /// the past, which clamps to `now`.
    #[test]
    fn event_queue_matches_a_time_seq_heap(
        ops in proptest::collection::vec((0u8..10, 0u8..7, 0u64..10_000_000), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut next_seq = 0u64;
        let pop_reference = |reference: &mut BinaryHeap<Reverse<(u64, u64)>>| {
            reference.pop().map(|Reverse((t, seq))| (SimTime::from_millis(t), seq))
        };
        for (op, kind, x) in ops {
            let now = q.now().as_millis();
            match op {
                0..=5 => {
                    let at = match kind {
                        0 => now,
                        1 => now + x % 50,
                        2 => now + 16_370 + x % 30,
                        3 => now + 500 + x % 7_700,
                        4 => now + 30_000 + x % 3_570_000,
                        5 => now + 7_200_000 + x % 60_000,
                        _ if cfg!(debug_assertions) => now,
                        _ => now.saturating_sub(x % 100_000),
                    };
                    q.schedule_at(SimTime::from_millis(at), next_seq);
                    reference.push(Reverse((at.max(now), next_seq)));
                    next_seq += 1;
                }
                6 | 7 => prop_assert_eq!(q.pop(), pop_reference(&mut reference)),
                8 => {
                    let deadline = now + x % 20_000;
                    loop {
                        let due = reference.peek().is_some_and(|r| r.0 .0 <= deadline);
                        let got = q.pop_until(SimTime::from_millis(deadline));
                        if !due {
                            prop_assert_eq!(got, None);
                            break;
                        }
                        prop_assert_eq!(got, pop_reference(&mut reference));
                    }
                }
                _ if x.is_multiple_of(4) => {
                    q.clear();
                    reference.clear();
                }
                _ => prop_assert_eq!(q.pop(), pop_reference(&mut reference)),
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(
                q.peek_time(),
                reference.peek().map(|r| SimTime::from_millis(r.0 .0))
            );
        }
        while !reference.is_empty() {
            prop_assert_eq!(q.pop(), pop_reference(&mut reference));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.depth_high_water() >= q.len());
    }

    // -----------------------------------------------------------------
    // AS paths and prefixes
    // -----------------------------------------------------------------

    /// Deduplication is idempotent and never lengthens a path; loop
    /// detection is invariant under prepending.
    #[test]
    fn as_path_cleaning_properties(raw in proptest::collection::vec(1u32..50, 1..20), reps in 1usize..4) {
        let path: AsPath = raw.iter().map(|&i| AsId(i)).collect();
        let dedup = path.deduplicated();
        prop_assert_eq!(dedup.deduplicated(), dedup.clone());
        prop_assert!(dedup.len() <= path.len());
        let prepended = path.prepend(AsId(raw[0]), reps);
        prop_assert_eq!(prepended.has_loop(), path.has_loop());
        prop_assert_eq!(prepended.deduplicated(), dedup);
    }

    /// Prefix display/parse round-trips.
    #[test]
    fn prefix_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let p = Prefix::new(addr, len);
        let reparsed: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, reparsed);
        prop_assert!(p.contains(p));
    }

    // -----------------------------------------------------------------
    // Likelihood
    // -----------------------------------------------------------------

    /// The incremental evaluator tracks the full evaluator over random
    /// single-coordinate moves, and both stay finite everywhere.
    #[test]
    fn incremental_likelihood_consistent(
        paths in proptest::collection::vec(
            (proptest::collection::vec(1u32..12, 1..5), any::<bool>()),
            1..25
        ),
        moves in proptest::collection::vec((0usize..12, 0.0f64..1.0), 1..40),
    ) {
        let observations: Vec<PathObservation> = paths
            .iter()
            .map(|(ids, label)| PathObservation::new(
                ids.iter().map(|&i| NodeId(i)).collect(), *label))
            .collect();
        let data = PathData::from_observations(&observations, &[]);
        if data.num_nodes() == 0 {
            return Ok(());
        }
        let ll = LogLikelihood::new(&data);
        let mut p = vec![0.5; data.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&data, &p);
        for (idx, value) in moves {
            let i = idx % data.num_nodes();
            let delta = inc.delta(i, value);
            prop_assert!(delta.is_finite());
            inc.commit(i, value, delta);
            p[i] = value;
            let full = ll.eval(&p);
            prop_assert!(full.is_finite());
            prop_assert!((inc.total() - full).abs() < 1e-6,
                "incremental {} vs full {}", inc.total(), full);
        }
    }

    /// Long commit sequences hugging the `P_EPS` clamp boundaries — the
    /// regime where commit-time rounding drift used to break the
    /// `path_sum ≤ 0` invariant — keep the incremental cache in agreement
    /// with the full evaluator, NaN-free.
    #[test]
    fn incremental_consistent_at_clamp_boundaries(
        paths in proptest::collection::vec(
            (proptest::collection::vec(1u32..8, 1..4), any::<bool>()),
            1..15
        ),
        moves in proptest::collection::vec((0usize..8, 0u8..7), 20..200),
    ) {
        let observations: Vec<PathObservation> = paths
            .iter()
            .map(|(ids, label)| PathObservation::new(
                ids.iter().map(|&i| NodeId(i)).collect(), *label))
            .collect();
        let data = PathData::from_observations(&observations, &[]);
        if data.num_nodes() == 0 {
            return Ok(());
        }
        let ll = LogLikelihood::new(&data);
        let mut p = vec![0.5; data.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&data, &p);
        for (idx, sel) in moves {
            let i = idx % data.num_nodes();
            // Boundary-biased move set: the clamp values themselves, the
            // raw 0/1 extremes, and near-boundary neighbours.
            let value = match sel {
                0 => P_EPS,
                1 => 1.0 - P_EPS,
                2 => 0.0,
                3 => 1.0,
                4 => 2.0 * P_EPS,
                5 => 1.0 - 2.0 * P_EPS,
                _ => 0.5,
            };
            let delta = inc.delta(i, value);
            prop_assert!(!delta.is_nan(), "NaN delta at i={i} value={value}");
            inc.commit(i, value, delta);
            p[i] = value;
        }
        let full = ll.eval(&p);
        prop_assert!(full.is_finite());
        prop_assert!(!inc.total().is_nan());
        prop_assert!(
            (inc.total() - full).abs() < 1e-6 * full.abs().max(1.0),
            "after boundary walk: incremental {} vs full {}", inc.total(), full
        );
    }

    /// `eval` and `grad` stay finite when every coordinate sits at a raw
    /// extreme (0 or 1) or at a clamp boundary.
    #[test]
    fn likelihood_finite_for_all_extreme_inputs(
        paths in proptest::collection::vec(
            (proptest::collection::vec(1u32..8, 1..4), any::<bool>()),
            1..15
        ),
        selectors in proptest::collection::vec(0u8..4, 8),
    ) {
        let observations: Vec<PathObservation> = paths
            .iter()
            .map(|(ids, label)| PathObservation::new(
                ids.iter().map(|&i| NodeId(i)).collect(), *label))
            .collect();
        let data = PathData::from_observations(&observations, &[]);
        if data.num_nodes() == 0 {
            return Ok(());
        }
        let p: Vec<f64> = (0..data.num_nodes())
            .map(|i| match selectors[i % selectors.len()] {
                0 => 0.0,
                1 => 1.0,
                2 => P_EPS,
                _ => 1.0 - P_EPS,
            })
            .collect();
        let mut ll = LogLikelihood::new(&data);
        let v = ll.eval(&p);
        prop_assert!(v.is_finite(), "eval({p:?}) = {v}");
        let mut g = vec![0.0; data.num_nodes()];
        let fused = ll.eval_grad(&p, &mut g);
        prop_assert!(fused.to_bits() == v.to_bits(), "eval_grad total {fused} vs eval {v}");
        for (i, gi) in g.iter().enumerate() {
            prop_assert!(gi.is_finite(), "grad[{i}] = {gi} at p={p:?}");
        }
    }

    // -----------------------------------------------------------------
    // Posterior summaries
    // -----------------------------------------------------------------

    /// The HPDI always covers at least the requested mass and lies within
    /// the sample range.
    #[test]
    fn hpdi_covers_mass(samples in proptest::collection::vec(0.0f64..1.0, 10..400)) {
        let m = Marginal::from_samples(&samples, 0.9);
        let inside = samples.iter()
            .filter(|&&x| x >= m.hpdi_low && x <= m.hpdi_high)
            .count() as f64 / samples.len() as f64;
        prop_assert!(inside >= 0.9 - 1e-9, "coverage {inside}");
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m.hpdi_low >= lo && m.hpdi_high <= hi);
        prop_assert!(m.mean >= lo && m.mean <= hi);
    }
}

// ---------------------------------------------------------------------
// Deterministic cross-crate properties (non-proptest)
// ---------------------------------------------------------------------

/// Weighted observations must produce exactly the same posterior input as
/// repeated observations (the dedup invariant the samplers rely on).
#[test]
fn weighting_equals_repetition() {
    let rep: Vec<PathObservation> = (0..7)
        .map(|_| PathObservation::new(vec![NodeId(1), NodeId(2)], true))
        .collect();
    let data = PathData::from_observations(&rep, &[]);
    assert_eq!(data.num_paths(), 1);
    assert_eq!(data.num_observations(), 7);
    let ll = LogLikelihood::new(&data);
    let single = PathData::from_observations(
        &[PathObservation::new(vec![NodeId(1), NodeId(2)], true)],
        &[],
    );
    let ll1 = LogLikelihood::new(&single);
    let p = [0.3, 0.4];
    assert!((ll.eval(&p) - 7.0 * ll1.eval(&p)).abs() < 1e-9);
}
