//! Hamiltonian Monte Carlo (§3.2), hand-rolled.
//!
//! HMC explores the posterior by simulating Hamiltonian dynamics: the
//! negative log posterior is a potential-energy surface, an auxiliary
//! Gaussian momentum is drawn each iteration, and a leapfrog integrator
//! propagates the state along an energy-conserving trajectory before a
//! Metropolis accept/reject corrects the discretisation error. Whole-
//! vector updates let the sampler cross the correlated ridges that the
//! tomography posterior develops when several ASs share paths — exactly
//! where component-wise MH mixes slowly.
//!
//! The unit-cube constraint is removed by the logit reparameterisation
//! `θ_i = logit(p_i)`, with the Jacobian `∏ p_i (1 − p_i)` folded into
//! the target:
//!
//! ```text
//! log π(θ) = log P(D | p(θ)) + log P(p(θ)) + Σ_i log p_i + log(1 − p_i)
//! ∂/∂θ_i   = (∂LL/∂p_i + ∂logprior/∂p_i) · p_i(1−p_i) + (1 − 2 p_i)
//! ```
//!
//! The step size is tuned during warmup by dual averaging (Nesterov-style,
//! as in NUTS) towards an 80 % acceptance target and frozen afterwards
//! (immediately, for a chain with no warmup).
//!
//! The Metropolis correction reads the log posterior only at the end of
//! a trajectory, so the leapfrog computes it once per trajectory. Steps
//! 1..L−1 take a gradient-only pass ([`LogLikelihood::grad`]): per node
//! one `exp` (the `sigmoid`) and nothing else transcendental, because
//! each showing path's odds come from the product of its `q_i`. The last
//! step takes the value-and-gradient pass ([`LogLikelihood::eval_grad`],
//! which adds per node `ln q`, the prior's `ln p` and `ln jac`, and per
//! showing path one `ln`). Both modes write the same gradient bits, and
//! both visit only the showing paths (the non-showing ones are collapsed
//! into per-AS weights). An intermediate step flags a divergence when
//! some `θ_i` is NaN, which is exactly when the log posterior there
//! would be non-finite. The prior reuses the likelihood's `ln(1 − p)`,
//! and its Beta normaliser is evaluated once per kernel. The trajectory
//! runs in buffers owned by the kernel, so a step allocates nothing.

use netsim::SimRng;

use crate::chain::{Sampler, SamplerKind};
use crate::checkpoint::{CheckpointError, Checkpointable, Reader, Writer};
use crate::likelihood::LogLikelihood;
use crate::math::sigmoid;
use crate::model::PathData;
use crate::prior::{NormalisedPrior, Prior};

/// Dual-averaging target acceptance probability.
const TARGET_ACCEPT: f64 = 0.8;

/// The logit-space log posterior and its θ-gradient, with the scratch
/// buffers one evaluation needs.
struct LogPosterior<'a> {
    likelihood: LogLikelihood<'a>,
    prior: NormalisedPrior,
    /// `p = sigmoid(θ)` of the point being evaluated.
    p: Vec<f64>,
    /// `∂ log P(D|p) / ∂ p` at that point.
    grad_p: Vec<f64>,
    /// Log-posterior evaluations so far: the initial one, plus one per
    /// trajectory that reaches its last leapfrog step.
    value_evals: u64,
    /// Gradient evaluations so far: one per leapfrog step, plus the
    /// initial one.
    grad_evals: u64,
}

impl LogPosterior<'_> {
    /// Log posterior at `theta`, with its θ-gradient written into `grad`.
    ///
    /// `log_post` starts at the likelihood and adds `log prior + ln jac`
    /// node by node, in index order, with the prior's `ln(1 − p)` taken
    /// from the likelihood. The sampler pins and golden outputs pin its
    /// rounding (DESIGN.md §5c).
    fn eval_grad(&mut self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.value_evals += 1;
        self.pass::<true>(theta, grad)
    }

    /// The θ-gradient of [`Self::eval_grad`], bit for bit, without the log
    /// posterior: one `exp` per node (the `sigmoid`), and no
    /// transcendental per showing path.
    ///
    /// Returns whether the log posterior at `theta` is finite, exactly as
    /// `eval_grad(theta).is_finite()` would: `p` and `1 − p` are clamped
    /// away from 0 inside every logarithm and the Jacobian is floored,
    /// so the value is finite unless some `θ_i` is NaN, which makes it
    /// NaN.
    fn grad(&mut self, theta: &[f64], grad: &mut [f64]) -> bool {
        self.pass::<false>(theta, grad);
        !theta.iter().any(|t| t.is_nan())
    }

    /// The shared pass: the gradient always, the log posterior only if
    /// `VALUE` (otherwise 0).
    #[inline(always)]
    fn pass<const VALUE: bool>(&mut self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.grad_evals += 1;
        for (pi, &ti) in self.p.iter_mut().zip(theta) {
            *pi = sigmoid(ti);
        }
        let mut log_post = if VALUE {
            self.likelihood.eval_grad(&self.p, &mut self.grad_p)
        } else {
            self.likelihood.grad(&self.p, &mut self.grad_p);
            0.0
        };
        if VALUE {
            for (&p, &log_q) in self.p.iter().zip(self.likelihood.log_q()) {
                log_post += self.prior.log_density_with(p, log_q) + jacobian(p).ln();
            }
        }
        for ((g, &p), &grad_p) in grad.iter_mut().zip(&self.p).zip(&self.grad_p) {
            *g = (grad_p + self.prior.grad(p)) * jacobian(p) + (1.0 - 2.0 * p);
        }
        log_post
    }
}

/// `dp/dθ = p(1 − p)`, floored so its `ln` stays finite.
#[inline]
fn jacobian(p: f64) -> f64 {
    (p * (1.0 - p)).max(1e-18)
}

/// The leapfrog position update `θ += ε·r`.
fn drift(theta: &mut [f64], momentum: &[f64], eps: f64) {
    for (t, &r) in theta.iter_mut().zip(momentum) {
        *t += eps * r;
    }
}

/// The leapfrog momentum update `r += (coeff·ε)·g`.
fn kick(momentum: &mut [f64], grad: &[f64], coeff_eps: f64) {
    for (r, &g) in momentum.iter_mut().zip(grad) {
        *r += coeff_eps * g;
    }
}

/// HMC kernel in logit space.
pub struct Hmc<'a> {
    theta: Vec<f64>,
    p: Vec<f64>,
    log_post: f64,
    grad_theta: Vec<f64>,
    target: LogPosterior<'a>,
    /// Leapfrog steps per trajectory.
    leapfrog_steps: usize,
    /// Current step size.
    step_size: f64,
    // Dual-averaging state.
    mu: f64,
    log_eps_bar: f64,
    h_bar: f64,
    adapt_iter: usize,
    adapting: bool,
    accepted: u64,
    proposed: u64,
    divergences: u64,
    /// Total energy `H = −log π + kinetic` at the start of the most
    /// recent trajectory — the series the E-BFMI diagnostic needs.
    last_energy: f64,
    // Trajectory buffers, reused across steps: the momentum, and the
    // proposed θ and its gradient (swapped into the state on accept).
    momentum: Vec<f64>,
    theta_prop: Vec<f64>,
    grad_prop: Vec<f64>,
}

impl<'a> Hmc<'a> {
    /// Create a kernel at an initial probability vector.
    pub fn new(data: &'a PathData, prior: Prior, init_p: Vec<f64>) -> Self {
        assert_eq!(init_p.len(), data.num_nodes(), "init dimension mismatch");
        let n = init_p.len();
        let theta: Vec<f64> = init_p.iter().map(|&p| crate::math::logit(p)).collect();
        let mut target = LogPosterior {
            likelihood: LogLikelihood::new(data),
            prior: prior.normalised(),
            p: vec![0.0; n],
            grad_p: vec![0.0; n],
            value_evals: 0,
            grad_evals: 0,
        };
        let mut grad_theta = vec![0.0; n];
        let log_post = target.eval_grad(&theta, &mut grad_theta);
        let step_size = 0.1 / (n.max(1) as f64).powf(0.25);
        let mut hmc = Hmc {
            theta,
            p: vec![0.0; n],
            log_post,
            grad_theta,
            target,
            leapfrog_steps: 20,
            step_size,
            mu: (10.0 * step_size).ln(),
            log_eps_bar: step_size.ln(),
            h_bar: 0.0,
            adapt_iter: 0,
            adapting: true,
            accepted: 0,
            proposed: 0,
            divergences: 0,
            last_energy: f64::NAN,
            momentum: vec![0.0; n],
            theta_prop: vec![0.0; n],
            grad_prop: vec![0.0; n],
        };
        hmc.refresh_p();
        hmc
    }

    /// Create a kernel with its initial state drawn from the prior.
    pub fn from_prior(data: &'a PathData, prior: Prior, rng: &mut SimRng) -> Self {
        let init = (0..data.num_nodes()).map(|_| prior.sample(rng)).collect();
        Self::new(data, prior, init)
    }

    /// Override the trajectory length (leapfrog steps).
    pub fn with_leapfrog_steps(mut self, steps: usize) -> Self {
        assert!(steps >= 1);
        self.leapfrog_steps = steps;
        self
    }

    /// Current step size (diagnostics / ablation).
    pub fn step_size(&self) -> f64 {
        self.step_size
    }

    fn refresh_p(&mut self) {
        for (pi, &ti) in self.p.iter_mut().zip(&self.theta) {
            *pi = sigmoid(ti);
        }
    }
}

impl Sampler for Hmc<'_> {
    fn dim(&self) -> usize {
        self.theta.len()
    }

    fn state(&self) -> &[f64] {
        &self.p
    }

    fn step(&mut self, rng: &mut SimRng) {
        let eps = self.step_size;

        // Fresh Gaussian momentum.
        for r in &mut self.momentum {
            *r = rng.gaussian();
        }
        let kinetic0: f64 = 0.5 * self.momentum.iter().map(|v| v * v).sum::<f64>();
        let h0 = -self.log_post + kinetic0;
        self.last_energy = h0;

        // Leapfrog trajectory, from the current state, opening with a
        // half-step of momentum.
        self.theta_prop.copy_from_slice(&self.theta);
        kick(&mut self.momentum, &self.grad_theta, 0.5 * eps);
        // Steps 1..L−1 need only the gradient.
        for _ in 1..self.leapfrog_steps {
            drift(&mut self.theta_prop, &self.momentum, eps);
            if !self.target.grad(&self.theta_prop, &mut self.grad_prop) {
                self.reject_divergent();
                return;
            }
            kick(&mut self.momentum, &self.grad_prop, eps);
        }
        // The last step also needs the log posterior, for the Metropolis
        // correction on the total energy.
        drift(&mut self.theta_prop, &self.momentum, eps);
        let lp = self.target.eval_grad(&self.theta_prop, &mut self.grad_prop);
        if !lp.is_finite() {
            self.reject_divergent();
            return;
        }
        kick(&mut self.momentum, &self.grad_prop, 0.5 * eps);
        let kinetic1: f64 = 0.5 * self.momentum.iter().map(|v| v * v).sum::<f64>();
        let h1 = -lp + kinetic1;
        let log_alpha = (h0 - h1).min(0.0);
        self.proposed += 1;
        let alpha = log_alpha.exp();
        if rng.uniform() < alpha {
            std::mem::swap(&mut self.theta, &mut self.theta_prop);
            std::mem::swap(&mut self.grad_theta, &mut self.grad_prop);
            self.log_post = lp;
            self.refresh_p();
            self.accepted += 1;
        }
        if self.adapting {
            self.dual_average(alpha);
        }
    }

    fn adapt(&mut self, iter: usize, total: usize) {
        if iter + 1 == total {
            self.end_warmup();
        }
    }

    fn end_warmup(&mut self) {
        if self.adapting {
            self.adapting = false;
            // With no warmup there was no dual averaging: keep the
            // initial step size rather than `exp(ln ε₀)`.
            if self.adapt_iter > 0 {
                self.step_size = self.log_eps_bar.exp();
            }
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
        SamplerKind::Hmc
    }

    fn divergences(&self) -> u64 {
        self.divergences
    }

    fn likelihood_evals(&self) -> u64 {
        self.target.value_evals
    }

    fn grad_evals(&self) -> u64 {
        self.target.grad_evals
    }

    fn energy(&self) -> f64 {
        self.last_energy
    }
}

impl Checkpointable for Hmc<'_> {
    fn save_sampler(&self, w: &mut Writer) {
        w.f64_slice(&self.theta);
        w.f64_slice(&self.p);
        w.f64(self.log_post);
        w.f64_slice(&self.grad_theta);
        w.usize(self.leapfrog_steps);
        w.f64(self.step_size);
        w.f64(self.mu);
        w.f64(self.log_eps_bar);
        w.f64(self.h_bar);
        w.usize(self.adapt_iter);
        w.bool(self.adapting);
        w.u64(self.accepted);
        w.u64(self.proposed);
        w.u64(self.divergences);
        w.u64(self.target.value_evals);
        w.u64(self.target.grad_evals);
        w.f64(self.last_energy);
    }

    fn restore_sampler(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = self.theta.len();
        let theta = r.f64_vec()?;
        let p = r.f64_vec()?;
        if theta.len() != n || p.len() != n {
            return Err(CheckpointError::Mismatch(format!(
                "HMC state dim {} vs dataset {n}",
                theta.len()
            )));
        }
        self.theta = theta;
        self.p = p;
        self.log_post = r.f64()?;
        self.grad_theta = r.f64_vec()?;
        self.leapfrog_steps = r.usize()?;
        self.step_size = r.f64()?;
        self.mu = r.f64()?;
        self.log_eps_bar = r.f64()?;
        self.h_bar = r.f64()?;
        self.adapt_iter = r.usize()?;
        self.adapting = r.bool()?;
        self.accepted = r.u64()?;
        self.proposed = r.u64()?;
        self.divergences = r.u64()?;
        self.target.value_evals = r.u64()?;
        self.target.grad_evals = r.u64()?;
        self.last_energy = r.f64()?;
        if self.grad_theta.len() != n || self.leapfrog_steps == 0 {
            return Err(CheckpointError::Mismatch(
                "HMC trajectory state inconsistent with dimension".into(),
            ));
        }
        Ok(())
    }
}

impl Hmc<'_> {
    /// Reject a divergent trajectory (its log posterior is not finite)
    /// and feed zero acceptance into the adaptation, so the step size
    /// shrinks.
    fn reject_divergent(&mut self) {
        self.proposed += 1;
        self.divergences += 1;
        if self.adapting {
            self.dual_average(0.0);
        }
    }

    /// One dual-averaging update after observing acceptance prob `alpha`.
    fn dual_average(&mut self, alpha: f64) {
        const GAMMA: f64 = 0.05;
        const T0: f64 = 10.0;
        const KAPPA: f64 = 0.75;
        self.adapt_iter += 1;
        let m = self.adapt_iter as f64;
        let eta = 1.0 / (m + T0);
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (TARGET_ACCEPT - alpha);
        let log_eps = self.mu - (m.sqrt() / GAMMA) * self.h_bar;
        let x = m.powf(-KAPPA);
        self.log_eps_bar = x * log_eps + (1.0 - x) * self.log_eps_bar;
        self.step_size = log_eps.exp().clamp(1e-6, 2.0);
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
    fn recovers_obvious_damper() {
        let d = data(&[(&[1], true), (&[2], false)], 30);
        let mut rng = SimRng::new(13);
        let s = Hmc::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 300,
                samples: 400,
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
    fn acceptance_adapts_into_healthy_band() {
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[1, 3], true)], 15);
        let mut rng = SimRng::new(14);
        let s = Hmc::from_prior(&d, Prior::default(), &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 400,
                samples: 300,
                thin: 1,
            },
            &mut rng,
        );
        assert!(
            chain.accept_rate > 0.5 && chain.accept_rate <= 1.0,
            "accept={}",
            chain.accept_rate
        );
    }

    #[test]
    fn mh_and_hmc_agree_on_posterior_means() {
        // The two kernels target the same posterior; their estimates of
        // every marginal mean must agree within Monte-Carlo error.
        let d = data(
            &[
                (&[1, 2], true),
                (&[2, 3], false),
                (&[3], false),
                (&[1], true),
                (&[2], false),
            ],
            12,
        );
        let prior = Prior::default();
        let cfg = ChainConfig {
            warmup: 600,
            samples: 1500,
            thin: 1,
        };

        let mut rng1 = SimRng::new(15);
        let mh = crate::mh::MetropolisHastings::from_prior(&d, prior, &mut rng1);
        let mh_chain = run_chain(mh, &cfg, &mut rng1);

        let mut rng2 = SimRng::new(16);
        let hmc = Hmc::from_prior(&d, prior, &mut rng2);
        let hmc_chain = run_chain(hmc, &cfg, &mut rng2);

        for i in 0..d.num_nodes() {
            let a = mh_chain.mean(i);
            let b = hmc_chain.mean(i);
            assert!((a - b).abs() < 0.08, "node {i}: MH {a} vs HMC {b}");
        }
    }

    #[test]
    fn samples_stay_in_unit_cube() {
        let d = data(&[(&[1], true), (&[2], false)], 5);
        let mut rng = SimRng::new(17);
        let s = Hmc::from_prior(&d, Prior::Uniform, &mut rng);
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
                assert!((0.0..=1.0).contains(&v), "sample {v} out of range");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = data(&[(&[1, 2], true), (&[2], false)], 8);
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let s = Hmc::from_prior(&d, Prior::default(), &mut rng);
            run_chain(
                s,
                &ChainConfig {
                    warmup: 60,
                    samples: 60,
                    thin: 1,
                },
                &mut rng,
            )
            .flat()
            .to_vec()
        };
        assert_eq!(run(30), run(30));
        assert_ne!(run(30), run(31));
    }

    #[test]
    fn checkpoint_round_trip_resumes_draw_for_draw() {
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[3], true)], 6);
        let mut rng = SimRng::new(23);
        let mut s = Hmc::from_prior(&d, Prior::default(), &mut rng);
        for it in 0..80 {
            s.step(&mut rng);
            s.adapt(it, 60); // adaptation freezes mid-run
        }
        let mut w = Writer::new();
        s.save_sampler(&mut w);
        let rng_state = rng.state();

        let mut expect = Vec::new();
        for _ in 0..40 {
            s.step(&mut rng);
            expect.push(s.state().to_vec());
        }

        let mut rng2 = SimRng::new(4242);
        let mut s2 = Hmc::from_prior(&d, Prior::default(), &mut rng2);
        let bytes = w.as_bytes().to_vec();
        s2.restore_sampler(&mut Reader::new(&bytes)).unwrap();
        let mut rng2 = SimRng::from_state(rng_state);
        for row in &expect {
            s2.step(&mut rng2);
            assert_eq!(s2.state(), &row[..], "restored HMC chain diverged");
        }

        for cut in 0..bytes.len() {
            let mut s3 = Hmc::new(&d, Prior::default(), vec![0.5; d.num_nodes()]);
            assert!(
                s3.restore_sampler(&mut Reader::new(&bytes[..cut])).is_err(),
                "prefix {cut} restored without error"
            );
        }
    }

    #[test]
    fn records_finite_energies_with_healthy_e_bfmi() {
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[3], true)], 10);
        let mut rng = SimRng::new(33);
        let s = Hmc::from_prior(&d, Prior::default(), &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 300,
                samples: 500,
                thin: 1,
            },
            &mut rng,
        );
        assert_eq!(chain.energies().len(), chain.len());
        assert!(
            chain.energies().iter().all(|e| e.is_finite()),
            "every HMC draw carries a finite trajectory energy"
        );
        let bfmi = crate::diagnostics::e_bfmi(chain.energies());
        assert!(
            bfmi.is_finite() && bfmi > 0.3,
            "fresh Gaussian momentum each trajectory must give healthy E-BFMI, got {bfmi}"
        );
    }

    #[test]
    fn step_size_freezes_after_warmup() {
        let d = data(&[(&[1], true)], 10);
        let mut rng = SimRng::new(18);
        let mut s = Hmc::from_prior(&d, Prior::Uniform, &mut rng);
        for it in 0..100 {
            s.step(&mut rng);
            s.adapt(it, 100);
        }
        let eps = s.step_size();
        for _ in 0..50 {
            s.step(&mut rng);
        }
        assert_eq!(s.step_size(), eps, "post-warmup step size must not move");
    }

    /// Forwards to an [`Hmc`] and records its step size after every
    /// step, so a test can watch adaptation through a chain driver.
    struct StepSizeProbe<'a> {
        inner: Hmc<'a>,
        seen: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
    }

    impl Sampler for StepSizeProbe<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn state(&self) -> &[f64] {
            self.inner.state()
        }
        fn step(&mut self, rng: &mut SimRng) {
            self.inner.step(rng);
            self.seen.lock().unwrap().push(self.inner.step_size());
        }
        fn adapt(&mut self, iter: usize, total: usize) {
            self.inner.adapt(iter, total);
        }
        fn end_warmup(&mut self) {
            self.inner.end_warmup();
        }
        fn acceptance_rate(&self) -> f64 {
            self.inner.acceptance_rate()
        }
        fn proposals(&self) -> u64 {
            self.inner.proposals()
        }
        fn kind(&self) -> SamplerKind {
            self.inner.kind()
        }
    }

    impl Checkpointable for StepSizeProbe<'_> {
        fn save_sampler(&self, w: &mut Writer) {
            self.inner.save_sampler(w);
        }
        fn restore_sampler(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
            self.inner.restore_sampler(r)
        }
    }

    #[test]
    fn no_warmup_keeps_the_initial_step_size() {
        // Regression: adaptation used to freeze only inside `adapt`, which
        // the drivers call during warmup alone, so a `warmup: 0` chain ran
        // dual averaging on every retained draw.
        let d = data(&[(&[1, 2], true), (&[2, 3], false), (&[3], true)], 6);
        let cfg = ChainConfig {
            warmup: 0,
            samples: 60,
            thin: 1,
        };
        let initial = Hmc::new(&d, Prior::default(), vec![0.5; d.num_nodes()]).step_size();
        let check = |seen: &std::sync::Mutex<Vec<f64>>, driver: &str| {
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), cfg.samples, "{driver}: one entry per draw");
            for (k, &eps) in seen.iter().enumerate() {
                assert_eq!(eps, initial, "{driver}: step size moved at draw {k}");
            }
        };

        let seen = std::sync::Arc::default();
        let mut rng = SimRng::new(21);
        let probe = StepSizeProbe {
            inner: Hmc::from_prior(&d, Prior::default(), &mut rng),
            seen: std::sync::Arc::clone(&seen),
        };
        run_chain(probe, &cfg, &mut rng);
        check(&seen, "run_chain");

        let seen = std::sync::Arc::default();
        let run = crate::supervisor::run_chains_supervised(
            |_, r: &mut SimRng| StepSizeProbe {
                inner: Hmc::from_prior(&d, Prior::default(), r),
                seen: std::sync::Arc::clone(&seen),
            },
            |_| crate::progress::NoProgress,
            1,
            &cfg,
            &SimRng::new(22),
            &crate::supervisor::SupervisorConfig::default(),
            "hmc",
        );
        assert_eq!(run.into_parts().0.len(), 1);
        check(&seen, "run_chains_supervised");
    }

    /// A fresh log posterior over `d`, with no evaluations counted.
    fn target(d: &PathData, prior: Prior) -> LogPosterior<'_> {
        let n = d.num_nodes();
        LogPosterior {
            likelihood: LogLikelihood::new(d),
            prior: prior.normalised(),
            p: vec![0.0; n],
            grad_p: vec![0.0; n],
            value_evals: 0,
            grad_evals: 0,
        }
    }

    /// Six ASs on one- to three-hop paths, each observed three times.
    fn split_data() -> PathData {
        data(
            &[
                (&[1, 2], true),
                (&[2, 3], false),
                (&[1, 3, 4], true),
                (&[4], false),
                (&[5, 6], true),
                (&[3, 6, 2], false),
                (&[6], true),
            ],
            3,
        )
    }

    const PRIORS: [Prior; 3] = [
        Prior::Uniform,
        Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        },
        Prior::Beta {
            alpha: 2.0,
            beta: 3.0,
        },
    ];

    #[test]
    fn gradient_only_pass_writes_the_value_pass_gradient_bit_for_bit() {
        let d = split_data();
        let n = d.num_nodes();
        let mut rng = SimRng::new(41);
        for prior in PRIORS {
            let mut lp = target(&d, prior);
            for k in 0..500 {
                // Mostly moderate θ, sometimes far out in either tail.
                let scale = [1.0, 4.0, 30.0][k % 3];
                let theta: Vec<f64> = (0..n).map(|_| scale * rng.gaussian()).collect();
                let mut with_value = vec![f64::NAN; n];
                let mut grad_only = vec![f64::NAN; n];
                let value = lp.eval_grad(&theta, &mut with_value);
                assert!(lp.grad(&theta, &mut grad_only));
                assert!(value.is_finite());
                let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&grad_only), bits(&with_value), "θ = {theta:?}");
            }
            assert_eq!((lp.value_evals, lp.grad_evals), (500, 1000));
        }
    }

    #[test]
    fn intermediate_divergence_check_matches_a_non_finite_log_posterior() {
        let d = split_data();
        let n = d.num_nodes();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            800.0,
            -800.0,
            0.0,
        ];
        let mut rng = SimRng::new(42);
        let (mut finite, mut not_finite) = (0, 0);
        for prior in PRIORS {
            let mut lp = target(&d, prior);
            for k in 0..2000 {
                let mut theta: Vec<f64> = (0..n).map(|_| 3.0 * rng.gaussian()).collect();
                // One to three coordinates replaced by special values.
                for _ in 0..=k % 3 {
                    let i = rng.below(n as u64) as usize;
                    theta[i] = specials[rng.below(specials.len() as u64) as usize];
                }
                let mut g = vec![0.0; n];
                let value = lp.eval_grad(&theta, &mut g);
                let check = lp.grad(&theta, &mut g);
                assert_eq!(check, value.is_finite(), "θ = {theta:?}: log π = {value}");
                assert_eq!(check, !theta.iter().any(|t| t.is_nan()));
                if check {
                    finite += 1;
                    assert!(g.iter().all(|x| x.is_finite()), "θ = {theta:?}: ∇ = {g:?}");
                } else {
                    not_finite += 1;
                }
            }
        }
        assert!(
            finite > 1000 && not_finite > 1000,
            "{finite} vs {not_finite}"
        );
    }

    #[test]
    fn likelihood_evals_count_one_value_per_trajectory() {
        let d = split_data();
        let mut rng = SimRng::new(43);
        let mut s = Hmc::from_prior(&d, Prior::default(), &mut rng);
        assert_eq!((s.likelihood_evals(), s.grad_evals()), (1, 1));
        for it in 0..60 {
            s.step(&mut rng);
            s.adapt(it, 60);
        }
        assert_eq!(s.divergences(), 0);
        assert_eq!(s.likelihood_evals(), 1 + s.proposals());
        assert_eq!(s.grad_evals(), 1 + 20 * s.proposals());

        // A step size this large overflows θ and then the momentum to
        // ±∞, and ∞ − ∞ is NaN: trajectories diverge, most of them
        // before their last step, where no value is computed.
        s.step_size = f64::MAX;
        let (values, grads) = (s.likelihood_evals(), s.grad_evals());
        for _ in 0..40 {
            s.step(&mut rng);
        }
        let divergences = s.divergences();
        assert!(divergences > 0);
        let (values, grads) = (s.likelihood_evals() - values, s.grad_evals() - grads);
        assert!(values < 40, "{values} values for {divergences} divergences");
        assert!(grads < 40 * 20 && grads > values);
    }

    #[test]
    fn correlated_nodes_mix_jointly() {
        // Two nodes always co-occurring on showing paths: the posterior is
        // a ridge p1+p2 ≈ high. HMC should explore both ends of the ridge:
        // the marginal std-dev of each must be substantial.
        let d = data(&[(&[1, 2], true)], 40);
        let mut rng = SimRng::new(19);
        let s = Hmc::from_prior(&d, Prior::Uniform, &mut rng);
        let chain = run_chain(
            s,
            &ChainConfig {
                warmup: 500,
                samples: 1500,
                thin: 1,
            },
            &mut rng,
        );
        let col = chain.column(0);
        let mean = col.iter().sum::<f64>() / col.len() as f64;
        let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / col.len() as f64;
        assert!(var.sqrt() > 0.15, "ridge not explored, sd={}", var.sqrt());
    }
}
