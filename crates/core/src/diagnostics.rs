//! MCMC convergence diagnostics: effective sample size, split-R̂, and the
//! rank-normalized family (bulk/tail ESS, rank-R̂, E-BFMI).
//!
//! These are not part of the paper's pipeline but are indispensable for a
//! production sampler: ESS quantifies how much independent information a
//! correlated chain carries, and split-R̂ (Gelman–Rubin on half-chains)
//! flags non-convergence. The bench suite uses ESS/second as the
//! MH-vs-HMC comparison metric.
//!
//! The rank-normalized variants (Vehtari, Gelman, Simpson, Carpenter,
//! Bürkner 2021) replace each draw with the normal score of its pooled
//! rank before computing the classic statistics. That makes them robust
//! to heavy tails and — via the *folded* transform `|x − median|` — able
//! to catch chains that agree in location but disagree in scale, which
//! classic split-R̂ misses entirely. [`coordinate`] computes all three
//! rank statistics of one coordinate from one column extraction and
//! one sort; `Analysis` keeps one row per coordinate, and the live
//! progress snapshots use it over each chain alone.

use crate::chain::Chain;
use crate::math::inv_normal_cdf;

/// Longest run of lag pairs scanned by [`effective_sample_size`].
///
/// Geyer's initial positive sequence usually terminates after a handful
/// of pairs, but on a pathologically sticky chain every pair sum stays
/// positive and an uncapped scan costs O(n²). The cap bounds the scan at
/// O(n · `ESS_MAX_LAG_PAIRS`). Hitting it truncates a positive tail,
/// which can only over-estimate ESS slightly — and a chain still
/// positively autocorrelated at lag 2·1024 carries almost no usable
/// draws regardless.
pub const ESS_MAX_LAG_PAIRS: usize = 1024;

/// Effective sample size of one marginal draw sequence, via the initial
/// positive sequence estimator (Geyer): sum autocorrelations in pairs
/// until a pair sum goes non-positive, or [`ESS_MAX_LAG_PAIRS`] pairs
/// have been taken.
pub fn effective_sample_size(draws: &[f64]) -> f64 {
    let n = draws.len();
    if n < 4 {
        return n as f64;
    }
    let mean = draws.iter().sum::<f64>() / n as f64;
    let var: f64 = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        // A constant chain carries one effective observation.
        return 1.0;
    }
    let mut rho_sum = 0.0;
    let mut lag = 1;
    let mut pairs = 0;
    while lag + 1 < n && pairs < ESS_MAX_LAG_PAIRS {
        // One streaming pass computes both paired autocovariances:
        // iterate the shorter overlap (lag + 1) jointly, then add the one
        // extra product the lag-`lag` overlap has. Accumulation order
        // matches the two separate passes this replaced, so estimates
        // are unchanged.
        let mut c0 = 0.0;
        let mut c1 = 0.0;
        for i in 0..n - lag - 1 {
            let a = draws[i] - mean;
            c0 += a * (draws[i + lag] - mean);
            c1 += a * (draws[i + lag + 1] - mean);
        }
        c0 += (draws[n - lag - 1] - mean) * (draws[n - 1] - mean);
        let pair = (c0 / n as f64 + c1 / n as f64) / var;
        if pair <= 0.0 {
            break;
        }
        rho_sum += pair;
        lag += 2;
        pairs += 1;
    }
    (n as f64 / (1.0 + 2.0 * rho_sum)).clamp(1.0, n as f64)
}

/// Split-R̂ for one coordinate across multiple chains: each chain is cut
/// in half and the Gelman–Rubin statistic computed over the 2m half
/// chains. Values near 1 indicate convergence; > 1.05 is suspect.
///
/// The classic statistic is kept only for e2ebench's traced replay
/// (through [`max_r_hat`]); the pipeline and its live progress report
/// the rank-normalized [`coordinate`] statistics.
pub fn split_r_hat(chains: &[Chain], coord: usize) -> f64 {
    let cols: Vec<Vec<f64>> = chains
        .iter()
        .filter(|c| c.len() >= 4)
        .map(|c| c.column(coord))
        .collect();
    split_halves(&cols).map_or(f64::NAN, |halves| gelman_rubin_halves(&halves))
}

/// The Gelman–Rubin statistic over half-chains that all hold the same
/// number of draws. Shared by [`split_r_hat`] and the rank-normalized
/// variants; the accumulation order is load-bearing (split-R̂ values are
/// asserted bit-for-bit in tests).
fn gelman_rubin_halves<H: AsRef<[f64]>>(halves: &[H]) -> f64 {
    let n = halves.first().map_or(0, |h| h.as_ref().len());
    if n < 2 {
        return f64::NAN;
    }
    let mut means = Vec::with_capacity(halves.len());
    let mut vars = Vec::with_capacity(halves.len());
    for h in halves {
        let h = h.as_ref();
        let len = h.len() as f64;
        let mu = h.iter().sum::<f64>() / len;
        means.push(mu);
        vars.push(h.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (len - 1.0));
    }
    let (m, n) = (means.len() as f64, n as f64);
    let grand = means.iter().sum::<f64>() / m;
    let b = n / (m - 1.0) * means.iter().map(|&x| (x - grand).powi(2)).sum::<f64>();
    let w = vars.iter().sum::<f64>() / m;
    if w <= 0.0 {
        return 1.0; // identical constant chains: trivially converged
    }
    let var_plus = (n - 1.0) / n * w + b / n;
    (var_plus / w).sqrt()
}

/// Both halves of every column with at least 4 draws. `None` when no
/// column has at least 4 draws.
///
/// The pooled B/W formulas of [`gelman_rubin_halves`] assume every half
/// contributes the same number of draws, so halves from different-length
/// chains are truncated to the common minimum half length before any
/// statistics are computed. (Computing per-half stats at full length but
/// plugging the minimum into the formulas, as an earlier version did,
/// skews both B and W whenever chain lengths differ.)
fn split_halves(cols: &[Vec<f64>]) -> Option<Vec<&[f64]>> {
    let long = || cols.iter().filter(|c| c.len() >= 4);
    let min_half = long().map(|c| c.len() / 2).min()?;
    Some(
        long()
            .flat_map(|c| {
                let mid = c.len() / 2;
                [&c[..min_half], &c[mid..mid + min_half]]
            })
            .collect(),
    )
}

/// Every value across `seqs` with its flat position (its index in their
/// concatenation), sorted by `total_cmp`. Equal keys under `total_cmp`
/// are bit-identical, so an unstable sort yields the same pool.
fn ranked<S: AsRef<[f64]>>(seqs: &[S]) -> Vec<(f64, u32)> {
    let mut pool: Vec<(f64, u32)> = seqs
        .iter()
        .flat_map(|s| s.as_ref().iter().copied())
        .zip(0..)
        .collect();
    pool.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    pool
}

/// The normal score of every value of a [`ranked`] pool, by flat
/// position. A value's score is its pooled average-tie rank `r` mapped
/// through `Φ⁻¹((r − 3/8)/(N + 1/4))` (Blom's offset, as in Vehtari et
/// al. 2021). `NaN` values keep their `NaN`; infinities are tamed to
/// finite scores by construction.
fn normal_scores(pool: &[(f64, u32)]) -> Vec<f64> {
    let n_total = pool.len();
    let denom = n_total as f64 + 0.25;
    let mut flat = vec![0.0; n_total];
    let mut s = 0;
    while s < n_total {
        let v = pool[s].0;
        let mut e = s + 1;
        while e < n_total && pool[e].0 == v {
            e += 1;
        }
        // Mean of the 1-based ranks s+1..=e shared by the tie group.
        let z = if v.is_nan() {
            f64::NAN
        } else {
            inv_normal_cdf(((s + 1 + e) as f64 / 2.0 - 0.375) / denom)
        };
        for &(_, at) in &pool[s..e] {
            flat[at as usize] = z;
        }
        s = e;
    }
    flat
}

/// `flat` cut into the lengths of `seqs`.
fn shape<'a, S: AsRef<[f64]>>(mut flat: &'a [f64], seqs: &[S]) -> Vec<&'a [f64]> {
    seqs.iter()
        .map(|seq| {
            let (head, tail) = flat.split_at(seq.as_ref().len());
            flat = tail;
            head
        })
        .collect()
}

/// The [`ranked`] pool of `|x − med|` over a ranked `pool`, built by
/// merging the values below `med` (read backwards) with the rest: both
/// runs are already in order, so no sort is needed. With a `NaN` value
/// or an infinite `med`, where that order breaks, it sorts instead.
fn folded(pool: &[(f64, u32)], med: f64) -> Vec<(f64, u32)> {
    let fold = |&(x, at): &(f64, u32)| ((x - med).abs(), at);
    let has_nan = |p: Option<&(f64, u32)>| p.is_some_and(|p| p.0.is_nan());
    if !med.is_finite() || has_nan(pool.first()) || has_nan(pool.last()) {
        let mut out: Vec<(f64, u32)> = pool.iter().map(fold).collect();
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        return out;
    }
    let split = pool.partition_point(|p| p.0 < med);
    let mut below = pool[..split].iter().rev().map(fold).peekable();
    let mut above = pool[split..].iter().map(fold).peekable();
    let mut out = Vec::with_capacity(pool.len());
    while let Some(next) = match (below.peek(), above.peek()) {
        (Some(b), Some(a)) if a.0 < b.0 => above.next(),
        (Some(_), _) => below.next(),
        (None, _) => above.next(),
    } {
        out.push(next);
    }
    out
}

/// Median of a [`ranked`] pool.
fn median(sorted: &[(f64, u32)]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2].0
    } else {
        0.5 * (sorted[n / 2 - 1].0 + sorted[n / 2].0)
    }
}

/// Empirical quantile of a [`ranked`] pool (linear interpolation between
/// order statistics).
fn quantile(sorted: &[(f64, u32)], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo].0 + (sorted[hi].0 - sorted[lo].0) * frac
}

/// The rank-normalized diagnostics of one coordinate (Vehtari et al.
/// 2021).
#[derive(Clone, Copy, Debug)]
pub struct CoordDiagnostics {
    /// Rank-normalized split-R̂: the maximum of the *bulk* statistic
    /// (Gelman–Rubin over the rank-normalized half-chains) and the
    /// *folded* statistic (same, over rank-normalized `|x − median|`).
    /// Bulk catches location differences robustly; folded catches chains
    /// that agree in location but disagree in scale — invisible to
    /// classic [`split_r_hat`]. `NaN` when no chain has at least 4 draws.
    pub rank_r_hat: f64,
    /// Bulk ESS: the ESS of the rank-normalized draws, summed across
    /// chains (per-chain Geyer estimates — the standard multi-chain
    /// approximation). Robust to heavy tails because ranks are bounded.
    /// `NaN` when no chain carries the coordinate.
    pub ess_bulk: f64,
    /// Tail ESS: the smaller of the ESS of the 5 % and 95 %
    /// pooled-quantile indicator sequences `I(x ≤ q05)` / `I(x ≥ q95)`,
    /// each summed across chains. Low tail ESS flags chains whose
    /// extremes mix much more slowly than their bulk (interval estimates
    /// untrustworthy even when the bulk looks healthy). `NaN` when no
    /// chain carries the coordinate.
    pub ess_tail: f64,
}

/// Rank-R̂, bulk ESS and tail ESS of coordinate `coord` in one pass:
/// each chain's column is extracted once, and one sort serves all three
/// statistics. Ranking the full columns gives bulk ESS and the tail cut
/// points. Ranking the split halves gives bulk R̂ and the pooled median
/// the folded halves are taken about; when every column has one even
/// length, the halves are the columns cut in two, so the columns'
/// ranking serves them. The folded halves' ranking is merged from the
/// halves', and gives folded R̂.
pub fn coordinate(chains: &[Chain], coord: usize) -> CoordDiagnostics {
    let cols: Vec<Vec<f64>> = chains
        .iter()
        .filter(|c| !c.is_empty() && coord < c.dim())
        .map(|c| c.column(coord))
        .collect();
    if cols.is_empty() {
        return CoordDiagnostics {
            rank_r_hat: f64::NAN,
            ess_bulk: f64::NAN,
            ess_tail: f64::NAN,
        };
    }
    let pool = ranked(&cols);
    let scores = normal_scores(&pool);
    let rank_r_hat = split_halves(&cols).map_or(f64::NAN, |halves| {
        let covers = halves.iter().map(|h| h.len()).sum::<usize>() == pool.len();
        let own_pool = (!covers).then(|| ranked(&halves));
        let half_pool = own_pool.as_ref().unwrap_or(&pool);
        let own_scores = (!covers).then(|| normal_scores(half_pool));
        let half_scores = own_scores.as_ref().unwrap_or(&scores);
        let fold_scores = normal_scores(&folded(half_pool, median(half_pool)));
        let bulk = gelman_rubin_halves(&shape(half_scores, &halves));
        let fold = gelman_rubin_halves(&shape(&fold_scores, &halves));
        nan_max(bulk, fold)
    });
    let ess_bulk = shape(&scores, &cols)
        .iter()
        .map(|c| effective_sample_size(c))
        .sum();
    let (q05, q95) = (quantile(&pool, 0.05), quantile(&pool, 0.95));
    let indicator_ess = |hit: &dyn Fn(f64) -> bool| -> f64 {
        cols.iter()
            .map(|c| {
                let ind: Vec<f64> = c.iter().map(|&x| if hit(x) { 1.0 } else { 0.0 }).collect();
                effective_sample_size(&ind)
            })
            .sum()
    };
    CoordDiagnostics {
        rank_r_hat,
        ess_bulk,
        ess_tail: indicator_ess(&|x| x <= q05).min(indicator_ess(&|x| x >= q95)),
    }
}

/// NaN-aware maximum: a known value wins over `NaN`, `NaN` only when
/// both are. Folding from `NaN` gives the worst known value, or `NaN`
/// when there is none — never the `-∞` a bare max-fold reads as
/// "perfectly converged".
pub(crate) fn nan_max(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.max(b),
        (false, true) => a,
        (true, _) => b,
    }
}

/// NaN-aware minimum, the counterpart of [`nan_max`].
pub(crate) fn nan_min(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.min(b),
        (false, true) => a,
        (true, _) => b,
    }
}

/// One field of [`coordinate`] over every coordinate (the first chain's
/// dimension), folded from `NaN` by `pick`.
fn fold_coordinates(
    chains: &[Chain],
    field: fn(&CoordDiagnostics) -> f64,
    pick: fn(f64, f64) -> f64,
) -> f64 {
    let dim = chains.first().map_or(0, Chain::dim);
    (0..dim)
        .map(|i| field(&coordinate(chains, i)))
        .fold(f64::NAN, pick)
}

/// Worst rank-normalized split-R̂ over all coordinates (`NaN` when no
/// coordinate has one, as for [`max_r_hat`]).
pub fn max_rank_r_hat(chains: &[Chain]) -> f64 {
    fold_coordinates(chains, |c| c.rank_r_hat, nan_max)
}

/// Smallest bulk ESS across all coordinates (`NaN` for no draws or a
/// zero-dimension chain: the `+∞` a bare min-fold would produce reads
/// downstream as "perfectly mixed").
pub fn min_ess_bulk(chains: &[Chain]) -> f64 {
    fold_coordinates(chains, |c| c.ess_bulk, nan_min)
}

/// Smallest tail ESS across all coordinates (`NaN` for no draws or a
/// zero-dimension chain).
pub fn min_ess_tail(chains: &[Chain]) -> f64 {
    fold_coordinates(chains, |c| c.ess_tail, nan_min)
}

/// The pooled mean of one quantity, given its draws from several chains
/// (one column per chain), and its Monte Carlo standard error: the
/// pooled standard deviation over the square root of the summed
/// per-chain ESS. `NaN`s for no draws.
pub fn mean_and_mcse(columns: &[Vec<f64>]) -> (f64, f64) {
    let n = columns.iter().map(Vec::len).sum::<usize>() as f64;
    let mean = columns.iter().flatten().sum::<f64>() / n;
    let var = columns
        .iter()
        .flatten()
        .map(|x| (x - mean).powi(2))
        .sum::<f64>()
        / n;
    let ess: f64 = columns.iter().map(|c| effective_sample_size(c)).sum();
    (mean, (var / ess).sqrt())
}

/// E-BFMI — the energy Bayesian fraction of missing information of one
/// chain's HMC energy series: `Σ (E_i − E_{i−1})² / Σ (E_i − Ē)²`
/// (Betancourt 2016). Momentum resampling that matches the marginal
/// energy distribution gives values near 1–2; values below ~0.3 mean
/// the sampler cannot traverse the energy set and tail estimates are
/// biased. `NaN` for fewer than 2 energies, any non-finite energy, or a
/// constant series.
pub fn e_bfmi(energies: &[f64]) -> f64 {
    if energies.len() < 2 || energies.iter().any(|e| !e.is_finite()) {
        return f64::NAN;
    }
    let n = energies.len() as f64;
    let mean = energies.iter().sum::<f64>() / n;
    let denom: f64 = energies.iter().map(|e| (e - mean).powi(2)).sum();
    if denom <= 0.0 {
        return f64::NAN;
    }
    let num: f64 = energies.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum();
    num / denom
}

/// Worst split-R̂ over all coordinates, kept only for e2ebench's traced
/// `max_r_hat` (see [`split_r_hat`]).
///
/// Returns `NaN` when there are no chains, the chains have no
/// coordinates, or every per-coordinate R̂ is itself `NaN` (all chains
/// too short): the `-∞` a bare max-fold would produce reads downstream
/// as "perfectly converged".
pub fn max_r_hat(chains: &[Chain]) -> f64 {
    let dim = chains.first().map(Chain::dim).unwrap_or(0);
    let mut worst = f64::NAN;
    for i in 0..dim {
        let r = split_r_hat(chains, i);
        // f64::max ignores NaN operands, which is exactly wrong here:
        // propagate a known value over NaN, but never fabricate one.
        if !r.is_nan() && (worst.is_nan() || r > worst) {
            worst = r;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::SamplerKind;
    use netsim::SimRng;

    fn chain_of(samples: Vec<Vec<f64>>) -> Chain {
        Chain::from_rows(SamplerKind::MetropolisHastings, samples, 0.5)
    }

    #[test]
    fn iid_draws_have_ess_near_n() {
        let mut rng = SimRng::new(1);
        let draws: Vec<f64> = (0..5_000).map(|_| rng.gaussian()).collect();
        let ess = effective_sample_size(&draws);
        assert!(ess > 3_500.0, "ess={ess}");
    }

    #[test]
    fn correlated_draws_have_reduced_ess() {
        // AR(1) with strong correlation.
        let mut rng = SimRng::new(2);
        let mut x = 0.0;
        let draws: Vec<f64> = (0..5_000)
            .map(|_| {
                x = 0.95 * x + rng.gaussian();
                x
            })
            .collect();
        let ess = effective_sample_size(&draws);
        // Theory: ESS ≈ n(1−ρ)/(1+ρ) ≈ n/39.
        assert!(ess < 500.0, "ess={ess}");
        assert!(ess > 10.0, "ess={ess}");
    }

    #[test]
    fn mcse_of_iid_draws_is_sd_over_root_n() {
        // Four chains of 2 500 standard normals: MCSE ≈ 1/√10 000.
        let mut rng = SimRng::new(5);
        let columns: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..2_500).map(|_| rng.gaussian()).collect())
            .collect();
        let (mean, se) = mean_and_mcse(&columns);
        assert!(mean.abs() < 0.04, "mean={mean}");
        assert!((se - 0.01).abs() < 0.001, "mcse={se}");
    }

    #[test]
    fn constant_chain_has_ess_one() {
        assert_eq!(effective_sample_size(&[0.5; 100]), 1.0);
    }

    #[test]
    fn tiny_chains_pass_through() {
        assert_eq!(effective_sample_size(&[1.0, 2.0]), 2.0);
    }

    #[test]
    fn rhat_near_one_for_same_distribution() {
        let mut rng = SimRng::new(3);
        let chains: Vec<Chain> = (0..4)
            .map(|_| chain_of((0..1000).map(|_| vec![rng.gaussian()]).collect()))
            .collect();
        let r = split_r_hat(&chains, 0);
        assert!((r - 1.0).abs() < 0.02, "rhat={r}");
    }

    #[test]
    fn rhat_large_for_disagreeing_chains() {
        let mut rng = SimRng::new(4);
        let a = chain_of((0..500).map(|_| vec![rng.gaussian()]).collect());
        let b = chain_of((0..500).map(|_| vec![5.0 + rng.gaussian()]).collect());
        let r = split_r_hat(&[a, b], 0);
        assert!(r > 1.5, "rhat={r}");
    }

    /// The uncapped two-pass estimator this module used before the
    /// streaming rewrite — kept as the reference for equivalence tests.
    fn reference_ess(draws: &[f64]) -> f64 {
        let n = draws.len();
        if n < 4 {
            return n as f64;
        }
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        if var <= 0.0 {
            return 1.0;
        }
        let autocov = |lag: usize| -> f64 {
            draws[..n - lag]
                .iter()
                .zip(&draws[lag..])
                .map(|(a, b)| (a - mean) * (b - mean))
                .sum::<f64>()
                / n as f64
        };
        let mut rho_sum = 0.0;
        let mut lag = 1;
        while lag + 1 < n {
            let pair = (autocov(lag) + autocov(lag + 1)) / var;
            if pair <= 0.0 {
                break;
            }
            rho_sum += pair;
            lag += 2;
        }
        (n as f64 / (1.0 + 2.0 * rho_sum)).clamp(1.0, n as f64)
    }

    #[test]
    fn streaming_ess_matches_two_pass_reference() {
        let mut rng = SimRng::new(11);
        for rho in [0.0, 0.5, 0.95] {
            let mut x = 0.0;
            let draws: Vec<f64> = (0..800)
                .map(|_| {
                    x = rho * x + rng.gaussian();
                    x
                })
                .collect();
            let got = effective_sample_size(&draws);
            let want = reference_ess(&draws);
            assert_eq!(got, want, "rho={rho}");
        }
    }

    #[test]
    fn ess_on_100k_sticky_chain_is_fast() {
        // AR(1) with ρ=0.9995: thousands of positive lag pairs, which
        // made the old O(n²) scan take minutes at this length. The
        // capped streaming pass finishes in well under a second.
        let mut rng = SimRng::new(12);
        let mut x = 0.0;
        let draws: Vec<f64> = (0..100_000)
            .map(|_| {
                x = 0.9995 * x + rng.gaussian();
                x
            })
            .collect();
        let t0 = std::time::Instant::now();
        let ess = effective_sample_size(&draws);
        assert!(
            t0.elapsed().as_secs() < 30,
            "capped ESS scan took {:?}",
            t0.elapsed()
        );
        assert!(ess.is_finite() && ess >= 1.0, "ess={ess}");
        assert!(
            ess < 2_000.0,
            "sticky chain should have tiny ess, got {ess}"
        );
    }

    #[test]
    fn split_rhat_truncates_mixed_length_chains() {
        // Chains of length 100 and 40: every half must be truncated to
        // the common minimum (20 draws) before computing statistics. The
        // pre-fix code computed per-half stats at full length but used
        // n = 20 in the B/W formulas, skewing both.
        let mut rng = SimRng::new(13);
        let a: Vec<f64> = (0..100).map(|_| rng.gaussian()).collect();
        let b: Vec<f64> = (0..40).map(|_| 0.3 + rng.gaussian()).collect();

        // Reference: Gelman–Rubin over the four truncated half chains.
        let halves = [&a[..20], &a[50..70], &b[..20], &b[20..40]];
        let stats: Vec<(f64, f64)> = halves
            .iter()
            .map(|h| {
                let mu = h.iter().sum::<f64>() / 20.0;
                let v = h.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / 19.0;
                (mu, v)
            })
            .collect();
        let m = 4.0;
        let n = 20.0;
        let grand = stats.iter().map(|s| s.0).sum::<f64>() / m;
        let bstat = n / (m - 1.0) * stats.iter().map(|s| (s.0 - grand).powi(2)).sum::<f64>();
        let w = stats.iter().map(|s| s.1).sum::<f64>() / m;
        let want = (((n - 1.0) / n * w + bstat / n) / w).sqrt();

        let chains = [
            chain_of(a.iter().map(|&x| vec![x]).collect()),
            chain_of(b.iter().map(|&x| vec![x]).collect()),
        ];
        let got = split_r_hat(&chains, 0);
        assert!(
            (got - want).abs() < 1e-12,
            "got={got} want={want} (halves must be truncated before stats)"
        );
    }

    #[test]
    fn min_ess_bulk_zero_dim_chain_is_nan() {
        let c = chain_of(vec![vec![]; 10]);
        assert!(min_ess_bulk(&[c]).is_nan());
    }

    #[test]
    fn max_rhat_degenerate_inputs_are_nan() {
        // No chains at all.
        assert!(max_r_hat(&[]).is_nan());
        // Chains with zero coordinates.
        assert!(max_r_hat(&[chain_of(vec![vec![]; 10])]).is_nan());
        // Chains too short for any split: every coordinate R̂ is NaN.
        let short = chain_of(vec![vec![1.0], vec![2.0]]);
        assert!(max_r_hat(&[short]).is_nan());
    }

    #[test]
    fn rank_rhat_near_one_for_same_distribution() {
        let mut rng = SimRng::new(21);
        let chains: Vec<Chain> = (0..4)
            .map(|_| chain_of((0..1000).map(|_| vec![rng.gaussian()]).collect()))
            .collect();
        let r = coordinate(&chains, 0).rank_r_hat;
        assert!((r - 1.0).abs() < 0.03, "rank rhat={r}");
    }

    #[test]
    fn rank_rhat_large_for_shifted_chains() {
        let mut rng = SimRng::new(22);
        let a = chain_of((0..500).map(|_| vec![rng.gaussian()]).collect());
        let b = chain_of((0..500).map(|_| vec![5.0 + rng.gaussian()]).collect());
        let r = coordinate(&[a, b], 0).rank_r_hat;
        assert!(r > 1.5, "rank rhat={r}");
    }

    #[test]
    fn folded_rank_rhat_catches_scale_disagreement_classic_misses() {
        // Two chains with identical location but 5× different spread:
        // classic split-R̂ compares half means, which agree, so it sits
        // near 1 — falsely converged. The folded rank statistic ranks
        // |x − median| and must flag the disagreement.
        let mut rng = SimRng::new(23);
        let a = chain_of((0..800).map(|_| vec![rng.gaussian()]).collect());
        let b = chain_of((0..800).map(|_| vec![5.0 * rng.gaussian()]).collect());
        let chains = [a, b];
        let classic = split_r_hat(&chains, 0);
        let rank = coordinate(&chains, 0).rank_r_hat;
        assert!(classic < 1.05, "classic rhat={classic}");
        assert!(rank > 1.2, "folded rank rhat={rank}");
    }

    #[test]
    fn rank_rhat_robust_to_heavy_tails() {
        // Cauchy-like draws (ratio of normals): classic R̂ is dominated
        // by whichever chain caught the largest outlier; the rank version
        // stays near 1 for same-distribution chains.
        let mut rng = SimRng::new(24);
        let mut cauchy = || {
            let d: f64 = rng.gaussian();
            rng.gaussian() / if d.abs() < 1e-12 { 1e-12 } else { d }
        };
        let chains: Vec<Chain> = (0..4)
            .map(|_| chain_of((0..1000).map(|_| vec![cauchy()]).collect()))
            .collect();
        let r = coordinate(&chains, 0).rank_r_hat;
        assert!(r < 1.05, "rank rhat on heavy tails={r}");
    }

    #[test]
    fn rank_rhat_degenerate_inputs() {
        // Too short for any split.
        let short = chain_of(vec![vec![1.0], vec![2.0]]);
        assert!(coordinate(&[short], 0).rank_r_hat.is_nan());
        assert!(max_rank_r_hat(&[]).is_nan());
        // Identical constant chains: all ranks tie, zero within-variance,
        // trivially converged.
        let a = chain_of(vec![vec![0.5]; 20]);
        let b = chain_of(vec![vec![0.5]; 20]);
        assert_eq!(coordinate(&[a, b], 0).rank_r_hat, 1.0);
    }

    #[test]
    fn max_rank_rhat_takes_worst_coordinate() {
        let mut rng = SimRng::new(25);
        // Coordinate 0 agrees across chains, coordinate 1 is shifted.
        let a = chain_of(
            (0..400)
                .map(|_| vec![rng.gaussian(), rng.gaussian()])
                .collect(),
        );
        let b = chain_of(
            (0..400)
                .map(|_| vec![rng.gaussian(), 4.0 + rng.gaussian()])
                .collect(),
        );
        let chains = [a, b];
        let worst = max_rank_r_hat(&chains);
        let c0 = coordinate(&chains, 0).rank_r_hat;
        let c1 = coordinate(&chains, 1).rank_r_hat;
        assert_eq!(worst, c0.max(c1));
        assert!(worst > 1.5, "worst={worst}");
    }

    #[test]
    fn ess_bulk_near_total_draws_for_iid() {
        let mut rng = SimRng::new(26);
        let chains: Vec<Chain> = (0..4)
            .map(|_| chain_of((0..1000).map(|_| vec![rng.gaussian()]).collect()))
            .collect();
        let bulk = coordinate(&chains, 0).ess_bulk;
        assert!(bulk > 2500.0, "bulk ess={bulk}");
        let tail = coordinate(&chains, 0).ess_tail;
        assert!(tail > 500.0, "tail ess={tail}");
    }

    #[test]
    fn ess_bulk_and_tail_shrink_on_sticky_chains() {
        let mut rng = SimRng::new(27);
        let mut x = 0.0;
        let chains: Vec<Chain> = (0..2)
            .map(|_| {
                chain_of(
                    (0..2000)
                        .map(|_| {
                            x = 0.97 * x + rng.gaussian();
                            vec![x]
                        })
                        .collect(),
                )
            })
            .collect();
        let bulk = coordinate(&chains, 0).ess_bulk;
        let tail = coordinate(&chains, 0).ess_tail;
        assert!(bulk < 600.0, "bulk ess={bulk}");
        assert!(tail < 600.0, "tail ess={tail}");
        assert!(bulk > 1.0 && tail >= 1.0);
    }

    #[test]
    fn min_ess_bulk_tail_degenerate_inputs_are_nan() {
        assert!(min_ess_bulk(&[]).is_nan());
        assert!(min_ess_tail(&[]).is_nan());
        let zero_dim = chain_of(vec![vec![]; 10]);
        assert!(min_ess_bulk(std::slice::from_ref(&zero_dim)).is_nan());
        assert!(min_ess_tail(&[zero_dim]).is_nan());
    }

    #[test]
    fn e_bfmi_separates_healthy_from_sticky_energies() {
        let mut rng = SimRng::new(28);
        // Independent energy draws: E-BFMI concentrates near 2.
        let white: Vec<f64> = (0..4000).map(|_| rng.gaussian()).collect();
        let healthy = e_bfmi(&white);
        assert!((healthy - 2.0).abs() < 0.25, "white-noise e-bfmi={healthy}");
        // A slow random walk barely changes energy step to step.
        let mut x = 0.0;
        let walk: Vec<f64> = (0..4000)
            .map(|_| {
                x += 0.05 * rng.gaussian();
                x
            })
            .collect();
        let sticky = e_bfmi(&walk);
        assert!(sticky < 0.3, "random-walk e-bfmi={sticky}");
    }

    #[test]
    fn e_bfmi_degenerate_inputs_are_nan() {
        assert!(e_bfmi(&[]).is_nan());
        assert!(e_bfmi(&[1.0]).is_nan());
        assert!(e_bfmi(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(e_bfmi(&[1.0, f64::INFINITY]).is_nan());
        assert!(e_bfmi(&[3.0; 50]).is_nan(), "constant series");
    }

    #[test]
    fn normal_scores_handle_ties_and_order() {
        // Ties share the average rank; output is monotone in the input.
        let seqs = [vec![2.0, 1.0, 2.0], vec![3.0, 1.0]];
        let pool = ranked(&seqs);
        let sorted: Vec<f64> = pool.iter().map(|p| p.0).collect();
        assert_eq!(sorted, vec![1.0, 1.0, 2.0, 2.0, 3.0]);
        let flat = normal_scores(&pool);
        let seqs = shape(&flat, &seqs);
        // Values 1.0 (ranks 1,2 → 1.5), 2.0 (ranks 3,4 → 3.5), 3.0 (rank 5).
        let z = |r: f64| inv_normal_cdf((r - 0.375) / 5.25);
        assert_eq!(seqs[0], vec![z(3.5), z(1.5), z(3.5)]);
        assert_eq!(seqs[1], vec![z(5.0), z(1.5)]);
        assert!(seqs[1][0] > seqs[0][0] && seqs[0][0] > seqs[0][1]);
    }

    #[test]
    fn folded_pool_is_the_sorted_pool_of_distances() {
        let mut rng = SimRng::new(9);
        // Ties, both signs, and values equal to the median.
        let values: Vec<f64> = (0..301)
            .map(|_| (rng.gaussian() * 4.0).round() / 2.0)
            .collect();
        let check = |values: &[f64]| {
            let pool = ranked(&[values]);
            let med = median(&pool);
            let mut want: Vec<(f64, u32)> =
                pool.iter().map(|&(x, at)| ((x - med).abs(), at)).collect();
            want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let got = folded(&pool, med);
            let bits = |p: &[(f64, u32)]| p.iter().map(|q| q.0.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            for &(f, at) in &got {
                assert_eq!(f.to_bits(), (values[at as usize] - med).abs().to_bits());
            }
        };
        check(&values);
        // A NaN breaks the merge order; the sort takes over.
        let mut with_nan = values.clone();
        with_nan[7] = f64::NAN;
        check(&with_nan);
    }

    #[test]
    fn min_ess_bulk_takes_worst_coordinate() {
        let mut rng = SimRng::new(5);
        let mut x = 0.0;
        let samples: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                x = 0.98 * x + rng.gaussian();
                vec![rng.gaussian(), x] // coord 0 iid, coord 1 sticky
            })
            .collect();
        let c = vec![chain_of(samples)];
        let worst = min_ess_bulk(&c);
        let ess0 = coordinate(&c, 0).ess_bulk;
        assert!(worst < ess0 / 3.0, "worst={worst} ess0={ess0}");
    }
}
