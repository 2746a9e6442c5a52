//! Both kernels against a posterior known in closed form.
//!
//! A path through a single AS shows the property with probability `p`
//! itself, so a `Beta(α, β)` prior is conjugate: an AS seen on `s`
//! showing and `f` quiet single-hop observations has the marginal
//! posterior `Beta(α + s, β + f)`. On a dataset of such paths the MH and
//! HMC posterior mean and variance of every AS must lie within 4 Monte
//! Carlo standard errors of the analytic values. This checks at once the
//! likelihood's collapse of the quiet paths into per-AS weights, its
//! factored showing-path gradient, both kernels' prior terms and HMC's
//! logit Jacobian.

use because::chain::{run_chain, Chain, ChainConfig};
use because::diagnostics::mean_and_mcse;
use because::hmc::Hmc;
use because::mh::MetropolisHastings;
use because::model::{NodeId, PathData, PathObservation};
use because::Prior;
use netsim::SimRng;

/// `(showing, quiet)` single-hop observation counts of each AS.
const COUNTS: [(u32, u32); 6] = [(6, 1), (0, 9), (3, 3), (12, 0), (1, 4), (25, 40)];

fn dataset() -> PathData {
    let mut obs = Vec::new();
    for (id, &(showing, quiet)) in (1..).zip(&COUNTS) {
        for k in 0..showing + quiet {
            obs.push(PathObservation::new(vec![NodeId(id)], k < showing));
        }
    }
    PathData::from_observations(&obs, &[])
}

const CHAIN: ChainConfig = ChainConfig {
    warmup: 500,
    samples: 2_000,
    thin: 1,
};

/// Assert each AS's posterior mean and variance over `chains` against
/// `Beta(α + s, β + f)`.
fn assert_conjugate(kernel: &str, prior: Prior, data: &PathData, chains: &[Chain]) {
    let Prior::Beta { alpha, beta } = prior else {
        unreachable!("the test priors are Beta priors")
    };
    for (id, &(showing, quiet)) in (1..).zip(&COUNTS) {
        let i = data.index(NodeId(id)).unwrap();
        let a = alpha + f64::from(showing);
        let b = beta + f64::from(quiet);
        let want_mean = a / (a + b);
        let want_var = a * b / ((a + b).powi(2) * (a + b + 1.0));

        let draws: Vec<Vec<f64>> = chains.iter().map(|c| c.column(i)).collect();
        let (mean, se) = mean_and_mcse(&draws);
        let what = format!("{kernel}, {prior:?}, AS{id} ({showing} showing, {quiet} quiet)");
        assert!(
            (mean - want_mean).abs() <= 4.0 * se,
            "{what}: mean {mean} vs Beta mean {want_mean} (MCSE {se})"
        );
        let sq_dev: Vec<Vec<f64>> = draws
            .iter()
            .map(|c| c.iter().map(|x| (x - mean).powi(2)).collect())
            .collect();
        let (var, se) = mean_and_mcse(&sq_dev);
        assert!(
            (var - want_var).abs() <= 4.0 * se,
            "{what}: variance {var} vs Beta variance {want_var} (MCSE {se})"
        );
    }
}

#[test]
fn mh_and_hmc_recover_the_conjugate_beta_posterior() {
    let data = dataset();
    assert_eq!(
        data.num_paths(),
        2 * COUNTS.len() - 2,
        "one path per label seen"
    );
    // The default prior, and one whose `(α − 1)·ln p` term is live.
    let priors = [
        Prior::default(),
        Prior::Beta {
            alpha: 2.0,
            beta: 3.0,
        },
    ];
    for (k, prior) in (0u64..).zip(priors) {
        let chains = |seed: u64, hmc: bool| -> Vec<Chain> {
            (0..2)
                .map(|c| {
                    let mut rng = SimRng::new(seed + c);
                    if hmc {
                        run_chain(Hmc::from_prior(&data, prior, &mut rng), &CHAIN, &mut rng)
                    } else {
                        let mh = MetropolisHastings::from_prior(&data, prior, &mut rng);
                        run_chain(mh, &CHAIN, &mut rng)
                    }
                })
                .collect()
        };
        assert_conjugate("MH", prior, &data, &chains(100 + 10 * k, false));
        assert_conjugate("HMC", prior, &data, &chains(200 + 10 * k, true));
    }
}
