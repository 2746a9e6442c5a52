//! Exact-value pins of the measurement pipeline.
//!
//! `pipeline_is_deterministic_end_to_end` compares two runs of the same
//! build, so it cannot catch a change that reorders simulator events the
//! same way every time. These tests compare one run against numbers
//! recorded from a known-good build instead: the simulator's event and
//! delivery counts, the number of labeled paths, and an FNV-1a digest of
//! the labels' `Debug` form. Any change to event order, to an RNG draw or
//! to a labeling decision moves at least one of them.
//!
//! Re-record the constants only for a deliberate, documented change of
//! simulator semantics (e.g. per-prefix RNG streams).

use experiments::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};
use netsim::faults::FaultSpec;
use netsim::SimDuration;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(events_processed, updates_delivered, label count, label digest)`.
fn pins(out: &CampaignOutput) -> (u64, u64, usize, u64) {
    let digest = fnv1a(format!("{:?}", out.labels).as_bytes());
    (
        out.events_processed,
        out.updates_delivered,
        out.labels.len(),
        digest,
    )
}

#[test]
fn fault_free_tiny_campaign_matches_recorded_pins() {
    let out = run_campaign(&ExperimentConfig::small(1, 2020));
    assert_eq!(
        pins(&out),
        (67_961, 64_370, 10, 0x2944_1bfb_0fab_730d),
        "fault-free tiny campaign drifted from its recorded pins"
    );
}

#[test]
fn drill_tiny_campaign_matches_recorded_pins() {
    let mut config = ExperimentConfig::small(1, 2020);
    config.intervals = [1, 2, 5].map(SimDuration::from_mins).to_vec();
    config.cycles = 2;
    config.faults = Some(FaultSpec::drill(2020));
    let out = run_campaign(&config);
    assert!(
        out.fault_counters.session_resets > 0,
        "the drill must exercise session resets"
    );
    assert_eq!(
        pins(&out),
        (78_407, 74_345, 34, 0x1c4a_0550_597b_f5e9),
        "drill tiny campaign drifted from its recorded pins"
    );
}
