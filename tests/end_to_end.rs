//! Cross-crate integration tests: the full measurement + inference
//! pipeline under realistic and adversarial conditions.

use std::collections::BTreeSet;

use because::{AnalysisConfig, SupervisorConfig};
use because_repro::*;
use bgpsim::AsId;
use collector::{CollectorConfig, Dump, UpdateRecord};
use experiments::infer::infer_with_supervision;
use experiments::metrics::{detectable_universe, evaluate_against_oracle, observable_truth};
use experiments::pipeline::{run_campaign, ExperimentConfig};
use heuristics::HeuristicConfig;
use netsim::faults::FaultSpec;
use netsim::SimDuration;

/// Share of the dump's announcements that fail the validity filter.
fn invalid_share(dump: &Dump) -> f64 {
    let announcements: Vec<&UpdateRecord> = dump
        .streams()
        .flat_map(|(.., stream)| stream)
        .filter(|r| r.is_announcement())
        .collect();
    let invalid = announcements
        .iter()
        .filter(|r| r.beacon_time().is_none())
        .count();
    invalid as f64 / announcements.len().max(1) as f64
}

fn small(seed: u64) -> ExperimentConfig {
    ExperimentConfig::small(1, seed)
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let a = run_campaign(&small(100));
    let b = run_campaign(&small(100));
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.dump.len(), b.dump.len());
    let ia = infer_with_supervision(
        &a,
        &AnalysisConfig::fast(100),
        &HeuristicConfig::default(),
        &SupervisorConfig::default(),
    );
    let ib = infer_with_supervision(
        &b,
        &AnalysisConfig::fast(100),
        &HeuristicConfig::default(),
        &SupervisorConfig::default(),
    );
    assert_eq!(ia.because_flagged(), ib.because_flagged());
    assert_eq!(ia.heuristics_flagged(), ib.heuristics_flagged());
}

#[test]
fn because_keeps_perfect_precision_across_seeds() {
    // The paper's headline property: BeCAUSe does not false-positive.
    // Over several seeds, every flagged AS must be a genuine damper.
    let mut total_flagged = 0;
    for seed in [101u64, 102, 103] {
        let out = run_campaign(&small(seed));
        let inf = infer_with_supervision(
            &out,
            &AnalysisConfig::fast(seed),
            &HeuristicConfig::default(),
            &SupervisorConfig::default(),
        );
        let truth = out.deployment.ground_truth();
        for flagged in inf.because_flagged() {
            total_flagged += 1;
            assert!(
                truth.contains(&flagged),
                "seed {seed}: AS{} flagged but does not damp",
                flagged.0
            );
        }
    }
    assert!(total_flagged > 0, "no damper was ever flagged across seeds");
}

#[test]
fn labels_survive_aggregator_corruption_and_resets() {
    // The paper's noise: ~1 % corrupted aggregator fields and occasional
    // VP session resets (outage windows). The 90 % rule plus the validity
    // filter must keep labeling usable.
    let mut clean_cfg = small(104);
    clean_cfg.collector = CollectorConfig::clean();
    let mut noisy_cfg = small(104);
    noisy_cfg.collector = CollectorConfig {
        aggregator_corruption: 0.01,
        seed: 104,
    };
    noisy_cfg.faults = Some(FaultSpec {
        vp_outage_rate: 0.2,
        vp_outage_duration: SimDuration::from_mins(30),
        seed: 104,
        ..FaultSpec::default()
    });
    noisy_cfg.cycles = 6; // more pairs → the 90 % rule has room to forgive

    let clean = run_campaign(&clean_cfg);
    let noisy = run_campaign(&noisy_cfg);
    assert!(!noisy.labels.is_empty());
    assert!((invalid_share(&noisy.dump) - 0.01).abs() < 0.01);

    // RFD paths found in the clean run should still mostly be found.
    let clean_rfd: BTreeSet<String> = clean
        .labels
        .iter()
        .filter(|l| l.rfd)
        .map(|l| l.path.to_string())
        .collect();
    let noisy_rfd: BTreeSet<String> = noisy
        .labels
        .iter()
        .filter(|l| l.rfd)
        .map(|l| l.path.to_string())
        .collect();
    if !clean_rfd.is_empty() {
        let kept = clean_rfd.intersection(&noisy_rfd).count();
        assert!(
            kept * 3 >= clean_rfd.len() * 2,
            "noise destroyed labeling: kept {kept}/{}",
            clean_rfd.len()
        );
    }
}

#[test]
fn mrai_everywhere_never_fakes_rfd() {
    // §4.1: MRAI delays updates by at most its interval; the signature
    // must never misread it as damping. Deploy MRAI on every session and
    // *no* RFD at all.
    let mut cfg = small(105);
    cfg.deployment.rfd_share = 0.0;
    cfg.deployment.mrai_share = 1.0;
    let out = run_campaign(&cfg);
    assert!(!out.labels.is_empty());
    for l in &out.labels {
        assert!(
            !l.rfd,
            "MRAI-only network produced an RFD label on {}",
            l.path
        );
    }
}

#[test]
fn no_deployment_means_no_rfd_labels_and_no_flags() {
    let mut cfg = small(106);
    cfg.deployment.rfd_share = 0.0;
    let out = run_campaign(&cfg);
    assert!(out.labels.iter().all(|l| !l.rfd));
    let inf = infer_with_supervision(
        &out,
        &AnalysisConfig::fast(106),
        &HeuristicConfig::default(),
        &SupervisorConfig::default(),
    );
    assert!(
        inf.because_flagged().is_empty(),
        "{:?}",
        inf.because_flagged()
    );
}

#[test]
fn beacons_visible_at_nearly_all_vantage_points() {
    // §4.3 validation: beacon prefixes visible at ≥ 99 % of full-feed
    // peers. In the simulator with valley-free reachability this must be
    // 100 % of registered VPs.
    let cfg = small(107);
    let out = run_campaign(&cfg);
    let vps: BTreeSet<AsId> = out.topology.vantage_points.iter().copied().collect();
    let seen: BTreeSet<AsId> = out.dump.streams().map(|(_, vp, _, _)| vp).collect();
    assert_eq!(seen.len(), vps.len(), "some VP never saw a beacon");
}

#[test]
fn oracle_evaluation_shapes_hold() {
    let out = run_campaign(&small(108));
    let inf = infer_with_supervision(
        &out,
        &AnalysisConfig::fast(108),
        &HeuristicConfig::default(),
        &SupervisorConfig::default(),
    );
    let interval = SimDuration::from_mins(1);
    let b = evaluate_against_oracle(&out, &inf.because_flagged(), interval);
    let h = evaluate_against_oracle(&out, &inf.heuristics_flagged(), interval);
    // The paper's Table 4 shape: BeCAUSe precision ≥ heuristics precision.
    assert!(
        b.pr.precision() >= h.pr.precision() - 1e-9,
        "BeCAUSe {} vs heuristics {}",
        b.pr.precision(),
        h.pr.precision()
    );
    // Universe sanity.
    let universe = detectable_universe(&out);
    let truth = observable_truth(&out, interval, &universe);
    assert!(truth.len() <= out.deployment.ground_truth().len());
}

#[test]
fn anchor_prefixes_are_never_labeled() {
    // Anchors flap every 2 h — far too slow for any RFD config — and are
    // not part of the beacon schedules, so no labels may reference them.
    let out = run_campaign(&small(109));
    let anchors: BTreeSet<_> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
    for l in &out.labels {
        assert!(!anchors.contains(&l.prefix));
    }
}

#[test]
fn rov_and_rfd_share_the_same_inference_code() {
    // Genericity check (§7): the same Analysis configuration classifies
    // both problems without modification.
    let rov_cfg = rov::RovScenarioConfig {
        topology: topology::TopologyConfig::tiny(110),
        ..Default::default()
    };
    let scenario = rov::build(&rov_cfg);
    let (analysis, pr) = scenario.evaluate(&AnalysisConfig::fast(110));
    assert!(pr.precision() >= 0.8, "ROV precision {}", pr.precision());
    assert_eq!(
        analysis.reports.len(),
        scenario.path_data().num_nodes(),
        "one report per measured AS"
    );
}
