//! No vantage-point loss is silent. A VP outage is the one way a vantage
//! point goes dark: the fault plan draws one window per VP, the
//! collector drops exactly the records observed inside it and records
//! the window in the dump, the fault counters count every window, and
//! the labeller reads the dump's map. This test holds a run with VP
//! outages as the only fault to the same run fault-free.

use std::collections::BTreeMap;

use bgpsim::{AsId, Prefix};
use experiments::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};
use netsim::faults::FaultSpec;
use netsim::SimTime;

/// A record as the simulator produced it: what an outage may drop but
/// never alter (export times draw from the collector's noise stream,
/// which a dropped record shifts).
type Observed = (Prefix, SimTime, Option<Vec<AsId>>);

/// Each vantage point's records, keyed from their stream headers, sorted.
fn by_vantage(out: &CampaignOutput) -> BTreeMap<AsId, Vec<Observed>> {
    let mut seen: BTreeMap<AsId, Vec<Observed>> = BTreeMap::new();
    for (prefix, vp, _, stream) in out.dump.streams() {
        seen.entry(vp).or_default().extend(stream.iter().map(|r| {
            (
                prefix,
                r.observed_at,
                r.path.as_ref().map(|p| p.asns().to_vec()),
            )
        }));
    }
    for records in seen.values_mut() {
        records.sort();
    }
    seen
}

#[test]
fn every_outage_is_counted_and_drops_exactly_its_window() {
    let clean_cfg = ExperimentConfig::small(1, 2020);
    let mut outage_cfg = clean_cfg.clone();
    outage_cfg.faults = Some(FaultSpec {
        vp_outage_rate: 0.5,
        seed: 7,
        ..FaultSpec::default()
    });
    let clean = run_campaign(&clean_cfg);
    let faulted = run_campaign(&outage_cfg);

    // One map of windows: the one the collector applied.
    assert_eq!(faulted.vp_outages, *faulted.dump.vp_outages());
    assert!(clean.dump.vp_outages().is_empty());
    assert!(clean.vp_outages.is_empty());

    let counters = &faulted.fault_counters;
    assert_eq!(counters.vp_outages as usize, faulted.vp_outages.len());
    assert_eq!(
        counters.total(),
        counters.vp_outages + counters.records_outage_dropped,
        "outages are the only fault: {counters:?}"
    );

    let mut expected = by_vantage(&clean);
    let mut kept = by_vantage(&faulted);
    let (mut dark, mut untouched, mut dropped) = (0, 0, 0u64);
    for vp in &clean.topology.vantage_points {
        let full = expected.remove(vp).unwrap_or_default();
        let survived = kept.remove(vp).unwrap_or_default();
        match faulted.vp_outages.get(vp) {
            None => {
                untouched += 1;
                assert_eq!(survived, full, "{vp} had no outage but lost records");
            }
            Some(&(start, end)) => {
                dark += 1;
                let (inside, outside): (Vec<Observed>, Vec<Observed>) = full
                    .into_iter()
                    .partition(|&(_, at, _)| at >= start && at < end);
                dropped += inside.len() as u64;
                assert_eq!(
                    survived, outside,
                    "{vp} must keep exactly its records outside [{start}, {end})"
                );
            }
        }
    }
    assert!(
        dark > 0 && untouched > 0,
        "{dark} dark, {untouched} untouched"
    );
    assert!(kept.is_empty(), "records from unregistered VPs");
    assert!(dropped > 0, "no outage window covered a record");
    assert_eq!(counters.records_outage_dropped, dropped);
}
