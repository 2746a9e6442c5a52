//! Simulation-based calibration (Talts et al. 2018, arXiv:1804.06788) of
//! both kernels.
//!
//! If `p` is drawn from the prior and the labels from the model given
//! `p`, then `p` is one more draw from the exact posterior given those
//! labels. Its rank among independent posterior draws is therefore
//! uniform. Each replicate here draws `p` from Beta(1, 4), draws every
//! observation's label from Eq. 5 on a fixed multi-hop incidence
//! structure, runs MH and HMC with fixed seeds, and records the rank of
//! each true `p_i` among the thinned draws. A chi-square test per kernel
//! then checks that the ranks are uniform, pooled over all ASs and for
//! each AS alone. A kernel with a wrong target (a lost Jacobian, a wrong
//! gradient, a wrong prior term) or one that does not mix fails it.
//!
//! The power check infers the same truth under `Prior::Uniform`, a prior
//! the truth was not drawn from: its ranks pile up at the low end, and
//! the same test must reject them.

use because::chain::{run_chain, Chain, ChainConfig};
use because::hmc::Hmc;
use because::mh::MetropolisHastings;
use because::model::{NodeId, PathData, PathObservation};
use because::Prior;
use netsim::SimRng;

/// The fixed incidence structure: nine paths of one to three hops over
/// six ASs, each observed `OBSERVATIONS` times.
const PATHS: [&[u32]; 9] = [
    &[1],
    &[2],
    &[1, 2],
    &[2, 3],
    &[3, 4],
    &[1, 4, 5],
    &[5, 6],
    &[4, 6],
    &[3, 5, 6],
];
const ASES: u32 = 6;
const OBSERVATIONS: u32 = 3;

/// The prior the truth is drawn from.
const TRUTH_PRIOR: Prior = Prior::Beta {
    alpha: 1.0,
    beta: 4.0,
};

/// Replicates per kernel.
const REPLICATES: u64 = 200;

/// Nine retained draws, thinned 10× after warmup: a true `p_i` has one of
/// ten ranks.
const CHAIN: ChainConfig = ChainConfig {
    warmup: 200,
    samples: 9,
    thin: 10,
};
const BINS: usize = CHAIN.samples + 1;

/// Upper 0.1% point of the chi-square distribution with `BINS − 1 = 9`
/// degrees of freedom.
const CHI2_9_P001: f64 = 27.877;
/// Upper `0.001 / 6` point (Bonferroni over the six ASs) with 9 degrees
/// of freedom.
const CHI2_9_P001_OVER_6: f64 = 32.446;

#[derive(Clone, Copy, Debug)]
enum Kernel {
    Mh,
    Hmc,
}

/// Draw one replicate: the true `p` of AS `1..=6` (index `id − 1`) and
/// the dataset of labels Eq. 5 gives it.
fn replicate(rng: &mut SimRng) -> (Vec<f64>, PathData) {
    let truth: Vec<f64> = (0..ASES).map(|_| TRUTH_PRIOR.sample(rng)).collect();
    let mut obs = Vec::new();
    for nodes in PATHS {
        // Eq. 5: a path shows the property unless every AS on it passes.
        let pass: f64 = nodes
            .iter()
            .map(|&id| 1.0 - truth[id as usize - 1])
            .product();
        for _ in 0..OBSERVATIONS {
            let shows = rng.uniform() >= pass;
            obs.push(PathObservation::new(
                nodes.iter().map(|&id| NodeId(id)).collect(),
                shows,
            ));
        }
    }
    (truth, PathData::from_observations(&obs, &[]))
}

fn run(kernel: Kernel, data: &PathData, prior: Prior, rng: &mut SimRng) -> Chain {
    match kernel {
        Kernel::Mh => {
            let mh = MetropolisHastings::from_prior(data, prior, rng);
            run_chain(mh, &CHAIN, rng)
        }
        Kernel::Hmc => run_chain(Hmc::from_prior(data, prior, rng), &CHAIN, rng),
    }
}

/// Rank histograms of the true `p_i` among the draws, one per AS, over
/// all replicates, with `prior` as the inference prior.
fn rank_histograms(kernel: Kernel, prior: Prior) -> Vec<[u32; BINS]> {
    let root = SimRng::new(2020);
    let mut hist = vec![[0u32; BINS]; ASES as usize];
    for r in 0..REPLICATES {
        // The same truths and labels for every kernel and prior.
        let (truth, data) = replicate(&mut root.split_index("replicate", r));
        let chain = run(kernel, &data, prior, &mut root.split_index("chain", r));
        assert_eq!(chain.len(), CHAIN.samples);
        for (k, &p) in truth.iter().enumerate() {
            let i = data
                .index(NodeId(k as u32 + 1))
                .expect("every AS is on a path");
            let rank = chain.column(i).iter().filter(|&&x| x < p).count();
            hist[k][rank] += 1;
        }
    }
    hist
}

/// Pearson's chi-square statistic of `counts` against the uniform.
fn chi_square(counts: &[u32]) -> f64 {
    let n: u32 = counts.iter().sum();
    let expect = f64::from(n) / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (f64::from(c) - expect).powi(2) / expect)
        .sum()
}

/// The pooled histogram's statistic, and the largest per-AS one.
fn statistics(hist: &[[u32; BINS]]) -> (f64, f64) {
    let mut pooled = [0u32; BINS];
    for h in hist {
        for (p, &c) in pooled.iter_mut().zip(h) {
            *p += c;
        }
    }
    let worst = hist.iter().map(|h| chi_square(h)).fold(0.0, f64::max);
    (chi_square(&pooled), worst)
}

#[test]
fn mh_and_hmc_ranks_are_uniform() {
    for kernel in [Kernel::Mh, Kernel::Hmc] {
        let hist = rank_histograms(kernel, TRUTH_PRIOR);
        let (pooled, worst) = statistics(&hist);
        assert!(
            pooled < CHI2_9_P001 && worst < CHI2_9_P001_OVER_6,
            "{kernel:?} is miscalibrated: pooled χ² {pooled:.1} (limit {CHI2_9_P001}), \
             worst AS χ² {worst:.1} (limit {CHI2_9_P001_OVER_6}); ranks per AS {hist:?}"
        );
    }
}

#[test]
fn a_prior_the_truth_was_not_drawn_from_is_rejected() {
    for kernel in [Kernel::Mh, Kernel::Hmc] {
        let hist = rank_histograms(kernel, Prior::Uniform);
        let (pooled, _) = statistics(&hist);
        assert!(
            pooled > CHI2_9_P001,
            "{kernel:?} under a uniform prior passed: pooled χ² {pooled:.1}; ranks {hist:?}"
        );
    }
}
