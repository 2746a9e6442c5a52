//! Exact-value pins of the two MCMC kernels.
//!
//! The sampler tests elsewhere check statistical properties (means,
//! acceptance, convergence) or compare two runs of the same build, so a
//! kernel change that moves a draw by one ulp passes them all. These
//! tests compare `Analysis` runs against digests recorded from a
//! known-good build: an FNV-1a digest over the bits of every MH and HMC
//! draw, chain by chain, and one over the final category vector. A
//! plain run, an observed (progress + trace) run and a stopped-then-
//! resumed run must all reproduce the same digests. Any
//! change to an RNG draw, to the order of a floating-point sum in the
//! likelihood, its gradient or the prior, or to the adaptation schedule
//! moves at least one of them.
//!
//! Re-record the constants only for a deliberate, documented change of
//! sampler semantics. The same dataset also checks that the two kernels
//! agree statistically: a re-recorded HMC pin must still give the
//! posterior means MH gives.

use std::path::PathBuf;

use because::chain::{Chain, ChainConfig};
use because::diagnostics::mean_and_mcse;
use because::model::{NodeId, PathData, PathObservation};
use because::{Analysis, AnalysisConfig, Prior, SupervisorConfig};

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every draw of every chain, in chain order.
fn draws_digest(chains: &[Chain]) -> u64 {
    chains.iter().fold(FNV_OFFSET, |h, c| {
        c.flat()
            .iter()
            .fold(h, |h, x| fnv1a_from(h, &x.to_bits().to_le_bytes()))
    })
}

/// Twelve ASs on paths of one to five hops: showing and non-showing
/// paths, most observed several times so the collapsed weights exceed 1.
fn dataset() -> PathData {
    let paths: &[(&[u32], bool, u32)] = &[
        (&[1], true, 6),
        (&[1, 2], true, 4),
        (&[2, 3], false, 5),
        (&[3, 4, 5], false, 3),
        (&[4, 6], true, 2),
        (&[5, 6, 7, 8], true, 3),
        (&[7, 8], false, 7),
        (&[8, 9, 10, 11, 12], true, 1),
        (&[9, 10], false, 4),
        (&[11, 12], false, 2),
        (&[1, 9, 12], true, 3),
        (&[6], false, 1),
        (&[2, 5, 10, 12, 3], false, 2),
    ];
    let mut obs = Vec::new();
    for &(ids, shows, copies) in paths {
        for _ in 0..copies {
            obs.push(PathObservation::new(
                ids.iter().map(|&i| NodeId(i)).collect(),
                shows,
            ));
        }
    }
    PathData::from_observations(&obs, &[])
}

/// The pinned configuration: two chains per kernel, 100 warmup and 150
/// retained draws, seed 2020.
fn config() -> AnalysisConfig {
    AnalysisConfig {
        prior: Prior::default(),
        chain: ChainConfig {
            warmup: 100,
            samples: 150,
            thin: 1,
        },
        n_chains: 2,
        seed: 2020,
        ..AnalysisConfig::default()
    }
}

/// Compare a run of [`config`] against the recorded digests.
fn assert_pinned(a: &Analysis) {
    assert_eq!(a.mh_chains.len(), 2);
    assert_eq!(a.hmc_chains.len(), 2);
    let categories: Vec<u8> = a.reports.iter().map(|r| r.category.value()).collect();
    assert_eq!(
        (
            draws_digest(&a.mh_chains),
            draws_digest(&a.hmc_chains),
            fnv1a_from(FNV_OFFSET, &categories),
        ),
        (
            0xd1b7_e6c9_c0f7_7b4d,
            0xecb9_a7d1_ce82_1cbe,
            0xc393_457c_0db6_57a6
        ),
        "sampler draws drifted from their recorded pins"
    );
}

#[test]
fn mh_and_hmc_draws_match_recorded_pins() {
    let data = dataset();
    assert!(data.paths().any(|p| p.weight > 1));
    assert_pinned(&Analysis::run(&data, &config()));
}

/// Progress snapshots and trace recording observe the chains without
/// moving a draw.
#[test]
fn observed_run_matches_recorded_pins() {
    let config = AnalysisConfig {
        trace: true,
        progress_every: 40,
        ..config()
    };
    let a = Analysis::run(&dataset(), &config);
    assert!(a.trace.as_ref().is_some_and(|t| !t.is_empty()));
    assert_pinned(&a);
}

/// A run stopped after 60 retained draws and resumed from its
/// checkpoints finishes with the uninterrupted draws.
#[test]
fn stopped_then_resumed_run_matches_recorded_pins() {
    /// A fresh scratch directory, removed on drop.
    struct TempDir(PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir =
        TempDir(std::env::temp_dir().join(format!("because-sampler-pins-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).unwrap();
    let base = dir.0.join("ckpt");

    let data = dataset();
    let stop = SupervisorConfig {
        checkpoint: Some(base.clone()),
        checkpoint_every: 25,
        stop_after_draws: Some(60),
        ..SupervisorConfig::default()
    };
    let first = Analysis::run_supervised(&data, &config(), &stop);
    assert_eq!(first.failures.len(), 4, "every chain stops at draw 60");
    assert!(first.mh_chains.is_empty() && first.hmc_chains.is_empty());
    // Draws 25 and 50, then the stop checkpoint at 60, per chain.
    assert_eq!(first.checkpoints_written, 4 * 3);

    let resume = SupervisorConfig {
        resume: Some(base),
        ..SupervisorConfig::default()
    };
    let second = Analysis::run_supervised(&data, &config(), &resume);
    assert!(second.failures.is_empty(), "{:?}", second.failures);
    assert_eq!(second.resumed_chains, 4);
    assert_pinned(&second);
}

/// MH and HMC target the same posterior: on the pinned dataset, with
/// longer chains, every AS's HMC posterior mean agrees with its MH mean
/// within 4 combined Monte Carlo standard errors.
#[test]
fn hmc_means_agree_with_mh_within_monte_carlo_error() {
    let data = dataset();
    let config = AnalysisConfig {
        chain: ChainConfig {
            warmup: 500,
            samples: 3_000,
            thin: 1,
        },
        ..config()
    };
    let a = Analysis::run(&data, &config);
    let columns = |chains: &[Chain], i: usize| -> Vec<Vec<f64>> {
        chains.iter().map(|c| c.column(i)).collect()
    };
    for i in 0..data.num_nodes() {
        let (mh, mh_se) = mean_and_mcse(&columns(&a.mh_chains, i));
        let (hmc, hmc_se) = mean_and_mcse(&columns(&a.hmc_chains, i));
        let se = mh_se.hypot(hmc_se);
        assert!(
            (mh - hmc).abs() <= 4.0 * se,
            "{:?}: MH mean {mh} vs HMC mean {hmc} (combined MCSE {se})",
            data.id(i)
        );
    }
}
