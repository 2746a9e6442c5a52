//! Component-wise random-walk Metropolis–Hastings (§3.2).
//!
//! One iteration sweeps every coordinate in a random order, proposing
//! `p_i' = p_i + N(0, σ_i)` *reflected* into `[0, 1]` (reflection keeps
//! the proposal symmetric, so the Hastings correction cancels and the
//! acceptance ratio in Eq. 7 reduces to the posterior ratio). The
//! likelihood part of that ratio is evaluated incrementally — only the
//! paths through the moved AS are touched — which is what makes MH
//! practical on datasets with hundreds of ASs and thousands of paths.
//!
//! During warmup each σ_i adapts towards the ~44 % acceptance rate that
//! is optimal for one-dimensional random-walk kernels; adaptation freezes
//! at the end of warmup so the stationary distribution is exact.

use netsim::SimRng;

use crate::chain::{Sampler, SamplerKind};
use crate::checkpoint::{CheckpointError, Checkpointable, Reader, Writer};
use crate::likelihood::{clamp_p, IncrementalLikelihood};
use crate::model::PathData;
use crate::prior::{NormalisedPrior, Prior};

/// Target acceptance rate for per-coordinate scale adaptation.
const TARGET_ACCEPT: f64 = 0.44;

/// Component-wise MH kernel.
pub struct MetropolisHastings<'a> {
    p: Vec<f64>,
    likelihood: IncrementalLikelihood<'a>,
    prior: NormalisedPrior,
    scale: Vec<f64>,
    order: Vec<usize>,
    accepted: u64,
    proposed: u64,
    // Windowed per-coordinate acceptance tracking for adaptation.
    window_accepted: Vec<u32>,
    window_proposed: Vec<u32>,
    adapting: bool,
}

impl<'a> MetropolisHastings<'a> {
    /// Create a kernel at the given initial state.
    pub fn new(data: &'a PathData, prior: Prior, init: Vec<f64>) -> Self {
        assert_eq!(init.len(), data.num_nodes(), "init dimension mismatch");
        let init: Vec<f64> = init.into_iter().map(clamp_p).collect();
        let likelihood = IncrementalLikelihood::new(data, &init);
        let n = init.len();
        MetropolisHastings {
            p: init,
            likelihood,
            prior: prior.normalised(),
            scale: vec![0.25; n],
            order: (0..n).collect(),
            accepted: 0,
            proposed: 0,
            window_accepted: vec![0; n],
            window_proposed: vec![0; n],
            adapting: true,
        }
    }

    /// Create a kernel with its initial state drawn from the prior.
    pub fn from_prior(data: &'a PathData, prior: Prior, rng: &mut SimRng) -> Self {
        let init = (0..data.num_nodes()).map(|_| prior.sample(rng)).collect();
        Self::new(data, prior, init)
    }

    /// Reflect a proposal into `[0, 1]`.
    fn reflect(mut x: f64) -> f64 {
        // A few iterations suffice for any realistic step size.
        for _ in 0..64 {
            if x < 0.0 {
                x = -x;
            } else if x > 1.0 {
                x = 2.0 - x;
            } else {
                return x;
            }
        }
        x.clamp(0.0, 1.0)
    }
}

impl Sampler for MetropolisHastings<'_> {
    fn dim(&self) -> usize {
        self.p.len()
    }

    fn state(&self) -> &[f64] {
        &self.p
    }

    fn step(&mut self, rng: &mut SimRng) {
        rng.shuffle(&mut self.order);
        for idx in 0..self.order.len() {
            let i = self.order[idx];
            let current = self.p[i];
            let candidate = Self::reflect(current + self.scale[i] * rng.gaussian());
            let delta_lik = self.likelihood.delta(i, candidate);
            let delta_prior = self.prior.log_density(candidate) - self.prior.log_density(current);
            let log_alpha = delta_lik + delta_prior;
            self.proposed += 1;
            self.window_proposed[i] += 1;
            if log_alpha >= 0.0 || rng.uniform() < log_alpha.exp() {
                self.likelihood.commit(i, candidate, delta_lik);
                self.p[i] = clamp_p(candidate);
                self.accepted += 1;
                self.window_accepted[i] += 1;
            }
        }
    }

    fn adapt(&mut self, iter: usize, total: usize) {
        if !self.adapting {
            return;
        }
        // Adjust every 20 sweeps on the windowed per-coordinate rates.
        if (iter + 1).is_multiple_of(20) {
            for i in 0..self.p.len() {
                if self.window_proposed[i] == 0 {
                    continue;
                }
                let rate = f64::from(self.window_accepted[i]) / f64::from(self.window_proposed[i]);
                if rate > TARGET_ACCEPT + 0.1 {
                    self.scale[i] = (self.scale[i] * 1.25).min(1.0);
                } else if rate < TARGET_ACCEPT - 0.1 {
                    self.scale[i] = (self.scale[i] * 0.8).max(1e-3);
                }
                self.window_accepted[i] = 0;
                self.window_proposed[i] = 0;
            }
        }
        if iter + 1 == total {
            self.adapting = false;
        }
    }

    fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }

    fn proposals(&self) -> u64 {
        self.proposed
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::MetropolisHastings
    }

    fn likelihood_evals(&self) -> u64 {
        // Exactly one incremental delta evaluation per proposal.
        self.proposed
    }
}

impl Checkpointable for MetropolisHastings<'_> {
    fn save_sampler(&self, w: &mut Writer) {
        w.f64_slice(&self.p);
        self.likelihood.save_state(w);
        w.f64_slice(&self.scale);
        w.usize_slice(&self.order);
        w.u64(self.accepted);
        w.u64(self.proposed);
        w.u32_slice(&self.window_accepted);
        w.u32_slice(&self.window_proposed);
        w.bool(self.adapting);
    }

    fn restore_sampler(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = self.p.len();
        let p = r.f64_vec()?;
        if p.len() != n {
            return Err(CheckpointError::Mismatch(format!(
                "MH state dim {} vs dataset {n}",
                p.len()
            )));
        }
        self.p = p;
        self.likelihood.restore_state(r)?;
        self.scale = r.f64_vec()?;
        self.order = r.usize_vec()?;
        self.accepted = r.u64()?;
        self.proposed = r.u64()?;
        self.window_accepted = r.u32_vec()?;
        self.window_proposed = r.u32_vec()?;
        self.adapting = r.bool()?;
        if self.scale.len() != n
            || self.order.len() != n
            || self.window_accepted.len() != n
            || self.window_proposed.len() != n
            || self.order.iter().any(|&i| i >= n)
        {
            return Err(CheckpointError::Mismatch(
                "MH adaptation buffers inconsistent with dimension".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{run_chain, ChainConfig};
    use crate::model::{NodeId, PathObservation};

    fn data(paths: &[(&[u32], bool)], copies: u32) -> PathData {
        let mut obs = Vec::new();
        for _ in 0..copies {
            for (ids, label) in paths {
                obs.push(PathObservation::new(
                    ids.iter().map(|&i| NodeId(i)).collect(),
                    *label,
                ));
            }
        }
        PathData::from_observations(&obs, &[])
    }

    #[test]
    fn reflection_stays_in_unit_interval() {
        for x in [-0.3, -1.7, 0.5, 1.2, 2.9, -5.0, 7.0] {
            let r = MetropolisHastings::reflect(x);
            assert!((0.0..=1.0).contains(&r), "reflect({x}) = {r}");
        }
        // Interior points unchanged.
        assert_eq!(MetropolisHastings::reflect(0.42), 0.42);
        // Single reflections are exact.
        assert!((MetropolisHastings::reflect(-0.1) - 0.1).abs() < 1e-12);
        assert!((MetropolisHastings::reflect(1.1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn recovers_obvious_damper() {
        // Node 1 on 30 showing paths, node 2 on 30 clean paths.
        let d = data(&[(&[1], true), (&[2], false)], 30);
        let mut rng = SimRng::new(3);
        let s = MetropolisHastings::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 300,
                samples: 500,
                thin: 1,
            },
            &mut rng,
        );
        let i1 = d.index(NodeId(1)).unwrap();
        let i2 = d.index(NodeId(2)).unwrap();
        assert!(chain.mean(i1) > 0.9, "damper mean {}", chain.mean(i1));
        assert!(chain.mean(i2) < 0.1, "clean mean {}", chain.mean(i2));
    }

    #[test]
    fn shared_path_ambiguity_splits_mass() {
        // Only joint observation {1,2} shows the property: the posterior
        // can't tell which one causes it; both marginals sit in the
        // middle, well away from 0 and 1.
        let d = data(&[(&[1, 2], true)], 20);
        let mut rng = SimRng::new(4);
        let s = MetropolisHastings::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 300,
                samples: 800,
                thin: 1,
            },
            &mut rng,
        );
        for id in [1, 2] {
            let m = chain.mean(d.index(NodeId(id)).unwrap());
            assert!(m > 0.3 && m < 0.95, "node {id} mean {m}");
        }
    }

    #[test]
    fn downstream_shadowed_as_recovers_prior() {
        // Node 1 alone on many showing paths; node 9 *only* appears
        // together with node 1 (Fig. 9(d) situation: no information).
        let d = data(&[(&[1], true), (&[1, 9], true)], 25);
        let prior = Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        };
        let mut rng = SimRng::new(5);
        let s = MetropolisHastings::from_prior(&d, prior, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 400,
                samples: 1000,
                thin: 1,
            },
            &mut rng,
        );
        let i9 = d.index(NodeId(9)).unwrap();
        let m = chain.mean(i9);
        // Should hover near the prior mean 0.2, far from certainty.
        assert!((m - prior.mean()).abs() < 0.12, "shadowed mean {m}");
    }

    #[test]
    fn acceptance_rate_lands_near_target_after_adaptation() {
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[3, 1], false)], 10);
        let mut rng = SimRng::new(6);
        let s = MetropolisHastings::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 600,
                samples: 400,
                thin: 1,
            },
            &mut rng,
        );
        assert!(
            chain.accept_rate > 0.2 && chain.accept_rate < 0.8,
            "accept={}",
            chain.accept_rate
        );
    }

    #[test]
    fn chain_is_deterministic_given_seed() {
        let d = data(&[(&[1, 2], true), (&[2], false)], 5);
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let s = MetropolisHastings::from_prior(&d, Prior::default(), &mut rng);
            run_chain(
                s,
                &ChainConfig {
                    warmup: 50,
                    samples: 50,
                    thin: 1,
                },
                &mut rng,
            )
            .flat()
            .to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn checkpoint_round_trip_resumes_draw_for_draw() {
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[3], true)], 6);
        let mut rng = SimRng::new(11);
        let mut s = MetropolisHastings::from_prior(&d, Prior::default(), &mut rng);
        for it in 0..120 {
            s.step(&mut rng);
            s.adapt(it, 100); // crosses the adaptation freeze mid-run
        }
        let mut w = Writer::new();
        s.save_sampler(&mut w);
        let rng_state = rng.state();

        // Continue the original.
        let mut expect = Vec::new();
        for _ in 0..50 {
            s.step(&mut rng);
            expect.push(s.state().to_vec());
        }

        // Fresh kernel (different construction draws), then restore.
        let mut rng2 = SimRng::new(999);
        let mut s2 = MetropolisHastings::from_prior(&d, Prior::default(), &mut rng2);
        let bytes = w.as_bytes().to_vec();
        s2.restore_sampler(&mut Reader::new(&bytes)).unwrap();
        let mut rng2 = SimRng::from_state(rng_state);
        for row in &expect {
            s2.step(&mut rng2);
            assert_eq!(s2.state(), &row[..], "restored chain diverged");
        }

        // Truncated state must fail cleanly, never restore garbage.
        for cut in 0..bytes.len() {
            let mut s3 = MetropolisHastings::new(&d, Prior::default(), vec![0.5; d.num_nodes()]);
            assert!(
                s3.restore_sampler(&mut Reader::new(&bytes[..cut])).is_err(),
                "prefix {cut} restored without error"
            );
        }
    }

    #[test]
    fn samples_stay_in_unit_cube() {
        let d = data(&[(&[1], true), (&[2], false)], 3);
        let mut rng = SimRng::new(8);
        let s = MetropolisHastings::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 100,
                samples: 200,
                thin: 1,
            },
            &mut rng,
        );
        for row in chain.rows() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
