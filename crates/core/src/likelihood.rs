//! The path likelihood (Eq. 5 of the paper), its gradient, and an
//! incremental evaluator for component-wise samplers.
//!
//! Totals are log-likelihoods. For a path `J` with `S_J = Σ_{i∈J}
//! log q_i`:
//!
//! * a **non-showing** path contributes `w_J · S_J`;
//! * a **showing** path contributes `w_J · log(1 − e^{S_J})` (the full
//!   evaluator computes `1 − e^{S_J} = 1 − ∏ q_i` directly, the
//!   incremental one via [`crate::math::log1mexp`]),
//!
//! where `w_J` is the observation weight (identical measurements
//! collapsed). Changing a single `q_i` only changes `S_J` for paths
//! through node `i`, which makes component-wise Metropolis–Hastings a
//! `O(paths-through-i)` operation instead of `O(all paths)` —
//! [`IncrementalLikelihood`] exploits exactly that.
//!
//! ## The collapsed HMC pass
//!
//! HMC needs the gradient at every leapfrog step and the total only at
//! the last one. The non-showing paths are linear in `log q`: together
//! they contribute `Σ_i W_i · log q_i`, where `W_i` is the total weight
//! of the non-showing paths through node `i`. [`LogLikelihood::new`]
//! computes `W_i` once per dataset, along with the list of showing paths,
//! so a pass never visits a non-showing path. Per step it stores
//! `c_i = clamp_p(p_i)` and `q_i = 1 − c_i` once per node into a reused
//! buffer, then walks the showing paths in path order. Along a path it
//! forms the product `Q = ∏ q_i` and, by the recurrence
//! `m ← c_i + q_i · m` from `m = 0`, the complement `m = 1 − Q`: every
//! term is positive, so nothing cancels, and no transcendental is
//! needed. The path's odds factor `c_J = w · Q/(1 − Q)` is `w · Q / m`,
//! added to the gradient slot of each node on the path. A last pass over
//! the nodes turns the slot into `∂/∂p_i = (Σ_{J∋i} c_J − W_i) / q_i`.
//! [`LogLikelihood::grad`] stops there: it takes no transcendental at
//! all. [`LogLikelihood::eval_grad`] also takes `ln q_i` per node, adds
//! `Σ_i W_i · ln q_i` in node order and, per showing path, `w · ln m`; it
//! writes the same gradient bits. [`LogLikelihood::eval`] sums in the
//! same order with the same expressions, so the two totals agree bit for
//! bit (DESIGN.md §5c).
//!
//! ## The incremental cache
//!
//! [`IncrementalLikelihood`] keeps, per path, `S_J` and its current term
//! (`log1mexp(S_J)` for a showing path, `S_J` for a quiet one). Pricing a
//! move ([`IncrementalLikelihood::delta`]) takes one `ln` for the new
//! `log q_i` and one `log1mexp` per showing path through `i`; it keeps
//! the new terms and `log q_i`, which [`IncrementalLikelihood::commit`]
//! then stores without recomputing them. Its terms use `log1mexp` of the
//! cached sums, not the product form, so its totals agree with
//! [`LogLikelihood::eval`] to rounding, not bit for bit.
//!
//! ## Numerical safety at the `log1mexp` boundary
//!
//! `log1mexp` requires a non-positive argument. Fresh sums of `log q`
//! terms are non-positive by construction, but the incremental cache
//! updates `path_sum[j] += d_log_q` in [`IncrementalLikelihood::commit`],
//! and accumulated rounding can push a near-zero sum to a small positive
//! value. That drift used to surface as a `debug_assert` (debug builds) or
//! a NaN (release builds) after long runs. The invariant is now enforced
//! in both places: `commit` clamps the stored sum to `≤ 0`, and **every**
//! `log1mexp` call site clamps its argument with `.min(0.0)`.

use crate::math::log1mexp;
use crate::model::PathData;

/// Lower clamp for `p` and `1 − p`: keeps `log q` finite while being far
/// below any resolvable posterior mass.
pub const P_EPS: f64 = 1e-9;

/// Clamp a probability into the numerically safe open interval.
#[inline]
pub fn clamp_p(p: f64) -> f64 {
    p.clamp(P_EPS, 1.0 - P_EPS)
}

/// `(c, q)` with `c = clamp_p(p)` and `q = 1 − c`.
#[inline]
fn c_and_q(p: f64) -> (f64, f64) {
    let c = clamp_p(p);
    (c, 1.0 - c)
}

/// A showing path's `Q = ∏ q_i` and `m = 1 − Q`, the latter from the
/// recurrence `m ← c_i + q_i · m`: all terms positive, no cancellation.
/// `m ≥ P_EPS`, so `ln m` and `Q / m` are finite.
#[inline]
fn show_split(nodes: &[u32], cq: &[(f64, f64)]) -> (f64, f64) {
    let (mut prod, mut m) = (1.0, 0.0);
    for &i in nodes {
        let (c, q) = cq[i as usize];
        prod *= q;
        m = c + q * m;
    }
    (prod, m)
}

/// Full-dataset log-likelihood evaluator.
#[derive(Clone, Debug)]
pub struct LogLikelihood<'a> {
    data: &'a PathData,
    /// `W_i`: the total weight of the non-showing paths through node `i`.
    quiet_weight: Vec<f64>,
    /// Indices of the showing paths, in path order.
    showing: Vec<u32>,
    /// `(clamp_p(p_i), 1 − clamp_p(p_i))` per node, rebuilt by every
    /// [`Self::eval_grad`] and [`Self::grad`].
    cq: Vec<(f64, f64)>,
    /// `ln(1 − clamp_p(p_i))` per node, rebuilt by every
    /// [`Self::eval_grad`] (not by [`Self::grad`]).
    log_q: Vec<f64>,
}

impl<'a> LogLikelihood<'a> {
    /// Bind to a dataset, collapsing its non-showing paths into per-node
    /// weights.
    pub fn new(data: &'a PathData) -> Self {
        let mut quiet_weight = vec![0.0; data.num_nodes()];
        let mut showing = Vec::new();
        for j in 0..data.num_paths() {
            if data.shows_property(j) {
                showing.push(j as u32);
            } else {
                let w = f64::from(data.weight(j));
                for &i in data.path_nodes(j) {
                    quiet_weight[i as usize] += w;
                }
            }
        }
        LogLikelihood {
            data,
            quiet_weight,
            showing,
            cq: Vec::new(),
            log_q: Vec::new(),
        }
    }

    /// The underlying dataset.
    pub fn data(&self) -> &'a PathData {
        self.data
    }

    /// `ln(1 − clamp_p(p_i))` per node at the point of the last
    /// [`Self::eval_grad`] call.
    pub(crate) fn log_q(&self) -> &[f64] {
        &self.log_q
    }

    /// `log P(D | p)`: the plain reference for [`Self::eval_grad`]'s
    /// total, for callers that need no gradient.
    pub fn eval(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.data.num_nodes(), "dimension mismatch");
        let cq: Vec<(f64, f64)> = p.iter().map(|&pi| c_and_q(pi)).collect();
        let log_q: Vec<f64> = cq.iter().map(|&(_, q)| q.ln()).collect();
        let mut total = self.quiet_total(&log_q);
        for (nodes, w) in self.showing_paths() {
            let (_, m) = show_split(nodes, &cq);
            total += w * m.ln();
        }
        total
    }

    /// `log P(D | p)`, with the gradient `∂ log P(D|p) / ∂ p_i` written
    /// into `grad` (overwritten), in one pass over the showing paths.
    ///
    /// With `Q = ∏ q_i` and `m = 1 − Q`, a showing path adds
    /// `w · Q / m / q_i` to the gradient of each of its nodes, and
    /// `w · ln m` to the total. The non-showing paths add `−W_i / q_i`.
    /// The returned total is bit-identical to [`Self::eval`]. Allocates
    /// nothing after the first call.
    pub fn eval_grad(&mut self, p: &[f64], grad: &mut [f64]) -> f64 {
        self.pass::<true>(p, grad)
    }

    /// The gradient of [`Self::eval_grad`], bit for bit, without the
    /// total and without a transcendental.
    pub fn grad(&mut self, p: &[f64], grad: &mut [f64]) {
        self.pass::<false>(p, grad);
    }

    /// The shared pass: the gradient always, the total only if `VALUE`
    /// (otherwise 0). The gradient never reads the total, so both modes
    /// write the same bits.
    #[inline(always)]
    fn pass<const VALUE: bool>(&mut self, p: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(p.len(), self.data.num_nodes(), "dimension mismatch");
        assert_eq!(grad.len(), p.len());
        self.cq.clear();
        self.cq.extend(p.iter().map(|&pi| c_and_q(pi)));
        let mut total = 0.0;
        if VALUE {
            self.log_q.clear();
            self.log_q.extend(self.cq.iter().map(|&(_, q)| q.ln()));
            total = self.quiet_total(&self.log_q);
        }
        let cq = &self.cq;
        // `grad` first accumulates Σ_{J∋i} c_J over the showing paths.
        grad.fill(0.0);
        for (nodes, w) in self.showing_paths() {
            let (prod, m) = show_split(nodes, cq);
            if VALUE {
                total += w * m.ln();
            }
            let c = w * prod / m;
            for &i in nodes {
                grad[i as usize] += c;
            }
        }
        for ((g, &quiet), &(_, q)) in grad.iter_mut().zip(&self.quiet_weight).zip(cq) {
            *g = (*g - quiet) / q;
        }
        total
    }

    /// `Σ_i W_i · log q_i`, in node order: every non-showing path's
    /// contribution at once.
    fn quiet_total(&self, log_q: &[f64]) -> f64 {
        self.quiet_weight
            .iter()
            .zip(log_q)
            .map(|(&w, &lq)| w * lq)
            .sum()
    }

    /// The showing paths' node lists and weights, in path order.
    fn showing_paths(&self) -> impl Iterator<Item = (&'a [u32], f64)> + '_ {
        let (arena, meta) = self.data.path_csr();
        self.showing.iter().map(move |&j| {
            let j = j as usize;
            let nodes = &arena[meta[j].offset as usize..meta[j + 1].offset as usize];
            (nodes, f64::from(meta[j].wshow >> 1))
        })
    }
}

/// Incremental evaluator: caches per-path `S_J`, each path's term and the
/// total, and updates them in `O(paths through i)` when one coordinate
/// moves.
///
/// Invariant: every cached `path_sum[j]` is `≤ 0` — maintained by clamping
/// in [`Self::commit`] (see the module docs on drift).
#[derive(Clone, Debug)]
pub struct IncrementalLikelihood<'a> {
    data: &'a PathData,
    log_q: Vec<f64>,
    path_sum: Vec<f64>,
    /// Each path's current term: `log1mexp(path_sum[j])` for a showing
    /// path, `path_sum[j]` for a quiet one. Derived from `path_sum`, so
    /// it is rebuilt rather than checkpointed.
    path_term: Vec<f64>,
    total: f64,
    commits: u64,
    /// Rebuild from scratch every this many commits to cap float drift.
    rebuild_every: u64,
    /// The move last priced by [`Self::delta`]: the coordinate and the
    /// bits of its proposed value, until a commit or rebuild.
    proposed: Option<(usize, u64)>,
    /// `ln(1 − clamp_p(·))` of that proposed value.
    proposed_log_q: f64,
    /// The terms of the paths through that coordinate after the move, in
    /// `paths_of` order.
    proposed_terms: Vec<f64>,
}

impl<'a> IncrementalLikelihood<'a> {
    /// Initialise the caches at state `p`.
    pub fn new(data: &'a PathData, p: &[f64]) -> Self {
        let mut il = IncrementalLikelihood {
            data,
            log_q: Vec::new(),
            path_sum: Vec::new(),
            path_term: Vec::new(),
            total: 0.0,
            commits: 0,
            rebuild_every: 100_000,
            proposed: None,
            proposed_log_q: 0.0,
            proposed_terms: Vec::new(),
        };
        il.rebuild(p);
        il
    }

    /// Recompute every cache from scratch.
    pub fn rebuild(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.data.num_nodes());
        self.log_q = p.iter().map(|&pi| (1.0 - clamp_p(pi)).ln()).collect();
        let n_paths = self.data.num_paths();
        self.path_sum.clear();
        self.path_sum.reserve(n_paths);
        let (arena, meta) = self.data.path_csr();
        let mut lo = 0usize;
        for j in 0..n_paths {
            let hi = meta[j + 1].offset as usize;
            let s: f64 = arena[lo..hi].iter().map(|&i| self.log_q[i as usize]).sum();
            lo = hi;
            // Fresh sums of non-positive terms cannot exceed zero, but the
            // invariant is cheap to enforce uniformly.
            self.path_sum.push(s.min(0.0));
        }
        self.rebuild_terms();
    }

    /// Recompute `path_term`, the total and no pending move from
    /// `path_sum`.
    fn rebuild_terms(&mut self) {
        let (_, meta) = self.data.path_csr();
        self.path_term.clear();
        let mut total = 0.0;
        for (m, &s) in meta.iter().zip(&self.path_sum) {
            let c = if m.wshow & 1 == 1 {
                log1mexp(s.min(0.0))
            } else {
                s
            };
            self.path_term.push(c);
            total += f64::from(m.wshow >> 1) * c;
        }
        self.total = total;
        self.proposed = None;
    }

    /// Current total log-likelihood.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Log-likelihood change if `p_i` moved to `new_p`. Changes no
    /// likelihood state, but keeps the move's new terms for
    /// [`Self::commit`] and its `log q` for the caller's prior.
    pub fn delta(&mut self, i: usize, new_p: f64) -> f64 {
        let new_log_q = (1.0 - clamp_p(new_p)).ln();
        let d_log_q = new_log_q - self.log_q[i];
        let data = self.data;
        let (_, meta) = data.path_csr();
        self.proposed_terms.clear();
        let mut delta = 0.0;
        for &j in data.paths_of(i) {
            let j = j as usize;
            let wshow = meta[j].wshow;
            let s_new = self.path_sum[j] + d_log_q;
            let c_new = if wshow & 1 == 1 {
                log1mexp(s_new.min(0.0))
            } else {
                s_new
            };
            self.proposed_terms.push(c_new);
            delta += f64::from(wshow >> 1) * (c_new - self.path_term[j]);
        }
        self.proposed = Some((i, new_p.to_bits()));
        self.proposed_log_q = new_log_q;
        delta
    }

    /// `ln(1 − clamp_p(new_p))` of the move last priced by
    /// [`Self::delta`]; MH's prior reuses it.
    pub(crate) fn proposed_log_q(&self) -> f64 {
        self.proposed_log_q
    }

    /// Serialize the caches bit-exactly for a checkpoint.
    ///
    /// The caches are stored as-is rather than rebuilt on restore: a
    /// rebuild recomputes the sums from scratch and differs from the
    /// drifted incremental values by ulps, which would break draw-for-draw
    /// resume equivalence. The path terms are a function of the sums and
    /// are recomputed on restore.
    pub(crate) fn save_state(&self, w: &mut crate::checkpoint::Writer) {
        w.f64_slice(&self.log_q);
        w.f64_slice(&self.path_sum);
        w.f64(self.total);
        w.u64(self.commits);
        w.u64(self.rebuild_every);
    }

    /// Restore caches saved by [`Self::save_state`].
    pub(crate) fn restore_state(
        &mut self,
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let log_q = r.f64_vec()?;
        let path_sum = r.f64_vec()?;
        if log_q.len() != self.data.num_nodes() || path_sum.len() != self.data.num_paths() {
            return Err(crate::checkpoint::CheckpointError::Mismatch(format!(
                "likelihood cache sized {}x{}, dataset is {}x{}",
                log_q.len(),
                path_sum.len(),
                self.data.num_nodes(),
                self.data.num_paths()
            )));
        }
        self.log_q = log_q;
        self.path_sum = path_sum;
        self.rebuild_terms();
        // The drifted running total, not the fresh sum of the terms.
        self.total = r.f64()?;
        self.commits = r.u64()?;
        self.rebuild_every = r.u64()?;
        Ok(())
    }

    /// Commit the move of `p_i` to `new_p`, updating caches. Reuses what
    /// [`Self::delta`] computed when it last priced this same move.
    pub fn commit(&mut self, i: usize, new_p: f64, delta: f64) {
        if self.proposed != Some((i, new_p.to_bits())) {
            self.delta(i, new_p);
        }
        self.proposed = None;
        let d_log_q = self.proposed_log_q - self.log_q[i];
        self.log_q[i] = self.proposed_log_q;
        let data = self.data; // copy of the shared reference, frees `self`
        let (_, meta) = data.path_csr();
        for (&j, &term) in data.paths_of(i).iter().zip(&self.proposed_terms) {
            let j = j as usize;
            // Clamp the stored sum: repeated += can round a near-zero sum
            // to a small positive value, which would later reach log1mexp.
            let s = (self.path_sum[j] + d_log_q).min(0.0);
            self.path_sum[j] = s;
            // A showing path's term is `log1mexp(s)`, which `delta` took
            // of the same clamped sum; a quiet path's is the stored sum.
            self.path_term[j] = if meta[j].wshow & 1 == 1 { term } else { s };
        }
        self.total += delta;
        self.commits += 1;
        if self.commits.is_multiple_of(self.rebuild_every) {
            // Periodic exact rebuild caps accumulated float drift.
            let p: Vec<f64> = self.log_q.iter().map(|&lq| 1.0 - lq.exp()).collect();
            self.rebuild(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeId, PathObservation};

    fn data(paths: &[(&[u32], bool)]) -> PathData {
        let obs: Vec<PathObservation> = paths
            .iter()
            .map(|(ids, label)| {
                PathObservation::new(ids.iter().map(|&i| NodeId(i)).collect(), *label)
            })
            .collect();
        PathData::from_observations(&obs, &[])
    }

    #[test]
    fn single_path_probabilities() {
        // One non-showing path over two nodes: L = q1·q2.
        let d = data(&[(&[1, 2], false)]);
        let ll = LogLikelihood::new(&d);
        let p = [0.2, 0.5];
        let expect = (0.8 * 0.5_f64).ln();
        assert!((ll.eval(&p) - expect).abs() < 1e-12);

        // Showing path: L = 1 − q1·q2.
        let d = data(&[(&[1, 2], true)]);
        let ll = LogLikelihood::new(&d);
        let expect = (1.0 - 0.8 * 0.5_f64).ln();
        assert!((ll.eval(&p) - expect).abs() < 1e-12);
    }

    #[test]
    fn weights_multiply_contributions() {
        let d1 = data(&[(&[1], true), (&[1], true), (&[1], true)]);
        let d2 = data(&[(&[1], true)]);
        let p = [0.3];
        let l1 = LogLikelihood::new(&d1).eval(&p);
        let l2 = LogLikelihood::new(&d2).eval(&p);
        assert!((l1 - 3.0 * l2).abs() < 1e-12);
    }

    #[test]
    fn likelihood_increases_toward_truth() {
        // Node 1 damps everything, node 2 nothing. Paths: {1} shows,
        // {2} doesn't (many observations).
        let d = data(&[(&[1], true), (&[1], true), (&[2], false), (&[2], false)]);
        let ll = LogLikelihood::new(&d);
        let good = ll.eval(&[0.95, 0.05]);
        let bad = ll.eval(&[0.05, 0.95]);
        assert!(good > bad);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = data(&[
            (&[1, 2], true),
            (&[2, 3], false),
            (&[1, 3], true),
            (&[3], false),
        ]);
        let mut ll = LogLikelihood::new(&d);
        let p = [0.3, 0.6, 0.2];
        let mut g = vec![0.0; 3];
        ll.eval_grad(&p, &mut g);
        let h = 1e-7;
        for i in 0..3 {
            let mut pp = p;
            pp[i] += h;
            let mut pm = p;
            pm[i] -= h;
            let fd = (ll.eval(&pp) - ll.eval(&pm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "i={i} grad={} fd={fd}", g[i]);
        }
    }

    #[test]
    fn gradient_sign_logic() {
        // A showing path pushes p up (positive gradient); a non-showing
        // path pushes p down.
        let d_show = data(&[(&[1], true)]);
        let mut g = vec![0.0];
        LogLikelihood::new(&d_show).eval_grad(&[0.5], &mut g);
        assert!(g[0] > 0.0);

        let d_clean = data(&[(&[1], false)]);
        LogLikelihood::new(&d_clean).eval_grad(&[0.5], &mut g);
        assert!(g[0] < 0.0);
    }

    /// An accurate per-entry reference for [`LogLikelihood::eval_grad`]'s
    /// gradient: every path visited, `log q_i = ln_1p(−c_i)` and, per
    /// showing entry, `e^{S − log q_i} / (−expm1(S))`. Also returns, per
    /// node, the sum of the absolute per-path terms: the scale that bounds
    /// the rounding of any summation order.
    fn two_pass_grad(data: &PathData, p: &[f64], grad: &mut [f64]) -> Vec<f64> {
        let log_q: Vec<f64> = p.iter().map(|&pi| (-clamp_p(pi)).ln_1p()).collect();
        grad.fill(0.0);
        let mut scale = vec![0.0; p.len()];
        for j in 0..data.num_paths() {
            let nodes = data.path_nodes(j);
            let w = f64::from(data.weight(j));
            let s: f64 = nodes.iter().map(|&i| log_q[i as usize]).sum();
            for &i in nodes {
                let i = i as usize;
                let term = if data.shows_property(j) {
                    w * (s - log_q[i]).exp() / -s.exp_m1()
                } else {
                    -w * (-log_q[i]).exp()
                };
                grad[i] += term;
                scale[i] += term.abs();
            }
        }
        scale
    }

    /// `n_paths` random paths of 1–5 hops over `n_nodes` ASs, every third
    /// one showing; repeated draws collapse into weights above 1.
    fn random_data(n_nodes: u32, n_paths: usize, seed: u64) -> PathData {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let obs: Vec<PathObservation> = (0..n_paths)
            .map(|k| {
                let hops = 1 + next() as usize % 5;
                let mut nodes = Vec::with_capacity(hops);
                while nodes.len() < hops {
                    let id = NodeId(next() % n_nodes);
                    if !nodes.contains(&id) {
                        nodes.push(id);
                    }
                }
                PathObservation::new(nodes, k % 3 == 0)
            })
            .collect();
        PathData::from_observations(&obs, &[])
    }

    #[test]
    fn eval_grad_matches_the_two_pass_reference() {
        // Up to 5627 distinct paths: the largest `likelihood_grad` bench
        // size, above every dataset the pipeline produces.
        let sizes = [(6, 60, 1), (40, 400, 2), (120, 3000, 3), (800, 6000, 4)];
        for (n_nodes, n_paths, seed) in sizes {
            let d = random_data(n_nodes, n_paths, seed);
            assert!(d.paths().any(|p| p.weight > 1), "weights above 1 covered");
            let lens: Vec<usize> = (0..d.num_paths()).map(|j| d.path_nodes(j).len()).collect();
            assert!((1..=5).all(|len| lens.contains(&len)), "1–5 hops covered");
            let n = d.num_nodes();
            let mid: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).fract()).collect();
            let mixed: Vec<f64> = (0..n)
                .map(|i| [0.0, P_EPS, 1.0 - P_EPS, 1.0, mid[i]][i % 5])
                .collect();
            let states = [mid, mixed, vec![P_EPS; n], vec![1.0 - P_EPS; n]];
            let mut ll = LogLikelihood::new(&d);
            for p in &states {
                let mut grad = vec![f64::NAN; n];
                let total = ll.eval_grad(p, &mut grad);
                assert_eq!(total.to_bits(), ll.eval(p).to_bits(), "total vs eval");
                let mut grad_only = vec![f64::NAN; n];
                ll.grad(p, &mut grad_only);
                let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&grad_only), bits(&grad), "grad vs eval_grad");
                let mut reference = vec![0.0; n];
                let scale = two_pass_grad(&d, p, &mut reference);
                for (i, (a, b)) in grad.iter().zip(&reference).enumerate() {
                    assert!(a.is_finite(), "grad[{i}] = {a}");
                    assert!(
                        (a - b).abs() <= 1e-12 * scale[i],
                        "grad[{i}]: collapsed {a} vs two-pass {b}, scale {} ({n_paths} paths)",
                        scale[i]
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_full_on_random_walk() {
        let d = data(&[
            (&[1, 2, 3], true),
            (&[2, 3], false),
            (&[1, 4], true),
            (&[4, 5], false),
            (&[1, 2, 3, 4, 5], true),
        ]);
        let ll = LogLikelihood::new(&d);
        let mut p = vec![0.5; d.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&d, &p);
        assert!((inc.total() - ll.eval(&p)).abs() < 1e-10);

        // Deterministic pseudo-random walk.
        let mut x = 123456789u64;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % d.num_nodes();
            let new_p = ((x >> 11) as f64 / (1u64 << 53) as f64).clamp(0.01, 0.99);
            let delta = inc.delta(i, new_p);
            // Cross-check against full evaluation.
            let mut p2 = p.clone();
            p2[i] = new_p;
            let full_delta = ll.eval(&p2) - ll.eval(&p);
            assert!(
                (delta - full_delta).abs() < 1e-8,
                "step {step}: inc {delta} vs full {full_delta}"
            );
            if step % 3 != 0 {
                inc.commit(i, new_p, delta);
                p = p2;
            }
            assert!((inc.total() - ll.eval(&p)).abs() < 1e-7);
        }
    }

    /// The cached path terms stay the function of the cached sums that a
    /// rebuild (and so a checkpoint restore) recomputes, and a commit the
    /// last `delta` did not price updates the caches as one it did.
    #[test]
    fn path_terms_follow_the_sums_and_commit_needs_no_delta() {
        let d = random_data(12, 80, 5);
        let p0: Vec<f64> = (0..d.num_nodes())
            .map(|i| (i as f64 * 0.37).fract())
            .collect();
        let mut priced = IncrementalLikelihood::new(&d, &p0);
        let mut unpriced = priced.clone();
        let mut x = 42u64;
        for step in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % d.num_nodes();
            let new_p = [
                0.0,
                P_EPS,
                1.0 - P_EPS,
                1.0,
                (x >> 11) as f64 / (1u64 << 53) as f64,
            ][step % 5];
            let delta = priced.delta(i, new_p);
            // A stale pricing of another move must not leak into the commit.
            unpriced.delta((i + 1) % d.num_nodes(), 0.5);
            priced.commit(i, new_p, delta);
            unpriced.commit(i, new_p, delta);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&priced.path_sum), bits(&unpriced.path_sum));
        assert_eq!(bits(&priced.path_term), bits(&unpriced.path_term));
        assert_eq!(bits(&priced.log_q), bits(&unpriced.log_q));
        let mut fresh = priced.clone();
        fresh.rebuild_terms();
        assert_eq!(bits(&fresh.path_term), bits(&priced.path_term));
    }

    #[test]
    fn extreme_p_values_stay_finite() {
        let d = data(&[(&[1, 2], true), (&[1, 2], false)]);
        let mut ll = LogLikelihood::new(&d);
        for p in [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] {
            let v = ll.eval(&p);
            assert!(v.is_finite(), "p={p:?} gave {v}");
            let mut g = vec![0.0; 2];
            ll.eval_grad(&p, &mut g);
            assert!(g.iter().all(|x| x.is_finite()), "p={p:?} grad {g:?}");
        }
    }

    #[test]
    fn delta_of_identity_move_is_zero() {
        let d = data(&[(&[1, 2], true)]);
        let p = [0.4, 0.6];
        let mut inc = IncrementalLikelihood::new(&d, &p);
        assert!(inc.delta(0, 0.4).abs() < 1e-12);
    }

    /// Regression for the drift bug: long commit sequences used to let
    /// `path_sum[j]` creep above zero via accumulated `+=` rounding, at
    /// which point the next `delta` (or a rebuild-time `log1mexp`) hit a
    /// positive argument — a `debug_assert` in debug builds, NaN in
    /// release. The commit-time clamp must hold the invariant through an
    /// adversarial schedule of boundary-hugging moves with the periodic
    /// rebuild disabled.
    #[test]
    fn commit_drift_never_breaks_log1mexp_invariant() {
        let d = data(&[
            (&[1, 2], true),
            (&[1, 3], true),
            (&[2, 3], false),
            (&[1, 2, 3], true),
        ]);
        let ll = LogLikelihood::new(&d);
        let p0 = vec![0.5; d.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&d, &p0);
        inc.rebuild_every = u64::MAX; // no periodic safety net

        // Alternate every coordinate between the clamp boundaries — each
        // swing moves log_q by ~20.7, the worst case for cancellation in
        // the cached sums — with occasional mid-range values mixed in.
        let mut x = 987654321u64;
        let mut p = p0.clone();
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % d.num_nodes();
            let new_p = match step % 4 {
                0 => P_EPS,       // q → 1 − eps, log_q ≈ −1e-9
                1 => 1.0 - P_EPS, // q → eps, log_q ≈ −20.7
                2 => 1.0 - 1e-7,
                _ => 0.5,
            };
            let delta = inc.delta(i, new_p);
            assert!(delta.is_finite(), "step {step}: non-finite delta");
            inc.commit(i, new_p, delta);
            p[i] = clamp_p(new_p);
            // The invariant every log1mexp call depends on:
            assert!(
                inc.path_sum.iter().all(|&s| s <= 0.0),
                "step {step}: cached path sum went positive"
            );
        }
        assert!(inc.total().is_finite());
        // After the walk the cache must still agree with a fresh full
        // evaluation to within accumulated-rounding tolerance.
        let full = ll.eval(&p);
        assert!(
            (inc.total() - full).abs() < 1e-5 * full.abs().max(1.0),
            "cache {} vs full {}",
            inc.total(),
            full
        );
    }

    /// The concrete drift failure: commit-time `+=` rounding eventually
    /// pushes a near-zero cached sum positive (reaching that organically
    /// takes ~1e11 boundary-hugging commits — the injected `path_sum`
    /// below is that end state, not an arbitrary corruption). Pre-fix, the
    /// positive sum then survived **every** subsequent commit (`+=` keeps
    /// whatever sign drift produced) and poisoned later `log1mexp` calls;
    /// post-fix the very next commit clamps it back into the invariant.
    #[test]
    fn commit_restores_invariant_from_drifted_state() {
        let d = data(&[(&[1, 2], true)]);
        let mut inc = IncrementalLikelihood::new(&d, &[1e-9, 1e-9]);
        inc.rebuild_every = u64::MAX;
        inc.path_sum[0] = 5e-14; // accumulated-rounding end state
        inc.path_term[0] = log1mexp(0.0); // its term, as a commit stores it

        // `delta` on the drifted cache must not produce NaN thanks to its
        // call-site clamps (`−inf`/`+inf` is the honest answer for a sum
        // clamped to zero — P(show) = 0 — and unlike NaN it cannot
        // silently poison an accept/reject comparison; pre-fix this path
        // hit the `log1mexp` debug_assert instead).
        let delta = inc.delta(0, 0.5);
        assert!(!delta.is_nan(), "delta from drifted cache: {delta}");

        // A tiny same-coordinate nudge (d_log_q ≈ −5e-8, far smaller than
        // needed to rescue a positive sum pre-fix, where path_sum would
        // stay at ~5e-14 − 5e-8 + later +5e-8 round trips): after ANY
        // commit the invariant must hold again.
        let dl = inc.delta(0, 1e-9 + 5e-8);
        inc.commit(0, 1e-9 + 5e-8, dl);
        let dl = inc.delta(0, 1e-9);
        inc.commit(0, 1e-9, dl);
        assert!(
            inc.path_sum.iter().all(|&s| s <= 0.0),
            "commit failed to restore the ≤0 invariant: {:?}",
            inc.path_sum
        );
        // The running total was corrupted by the ±inf deltas the drifted
        // state produced (inf − inf = NaN); the periodic rebuild is the
        // designed recovery for the total, and must come back finite.
        inc.rebuild(&[1e-9, 1e-9]);
        assert!(inc.total().is_finite(), "rebuild total: {}", inc.total());
        assert!(inc.path_sum.iter().all(|&s| s <= 0.0));
    }
}
