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
//! classic split-R̂ misses entirely.

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

/// Minimum ESS across all coordinates of a chain.
///
/// Returns `NaN` for a zero-dimension chain: there is no coordinate to
/// measure, and the `+∞` a bare min-fold would produce reads downstream
/// as "perfectly mixed".
pub fn min_ess(chain: &Chain) -> f64 {
    if chain.dim() == 0 {
        return f64::NAN;
    }
    let mut buf = Vec::with_capacity(chain.len());
    (0..chain.dim())
        .map(|i| {
            chain.copy_column(i, &mut buf);
            effective_sample_size(&buf)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Split-R̂ for one coordinate across multiple chains: each chain is cut
/// in half and the Gelman–Rubin statistic computed over the 2m half
/// chains. Values near 1 indicate convergence; > 1.05 is suspect.
pub fn split_r_hat(chains: &[Chain], coord: usize) -> f64 {
    split_halves(chains, coord).map_or(f64::NAN, |halves| gelman_rubin_halves(&halves))
}

/// The Gelman–Rubin statistic over half-chains that all hold the same
/// number of draws. Shared by [`split_r_hat`] and the rank-normalized
/// variants; the accumulation order is load-bearing (split-R̂ values are
/// asserted bit-for-bit in tests).
fn gelman_rubin_halves(halves: &[Vec<f64>]) -> f64 {
    let n = halves.first().map(Vec::len).unwrap_or(0);
    if n < 2 {
        return f64::NAN;
    }
    let mut means = Vec::with_capacity(halves.len());
    let mut vars = Vec::with_capacity(halves.len());
    for h in halves {
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

/// Half-columns of `coord` across `chains`. `None` when no chain has at
/// least 4 draws.
///
/// The pooled B/W formulas of [`gelman_rubin_halves`] assume every half
/// contributes the same number of draws, so halves from different-length
/// chains are truncated to the common minimum half length before any
/// statistics are computed. (Computing per-half stats at full length but
/// plugging the minimum into the formulas, as an earlier version did,
/// skews both B and W whenever chain lengths differ.)
fn split_halves(chains: &[Chain], coord: usize) -> Option<Vec<Vec<f64>>> {
    let min_half = chains
        .iter()
        .filter(|c| c.len() >= 4)
        .map(|c| c.len() / 2)
        .min()?;
    let mut col: Vec<f64> = Vec::new();
    let mut halves = Vec::new();
    for c in chains {
        if c.len() < 4 {
            continue;
        }
        c.copy_column(coord, &mut col);
        let mid = col.len() / 2;
        halves.push(col[..min_half].to_vec());
        halves.push(col[mid..mid + min_half].to_vec());
    }
    Some(halves)
}

/// Replace every value across `seqs` with its normal score: the pooled
/// average-tie rank `r` mapped through `Φ⁻¹((r − 3/8)/(N + 1/4))`
/// (Blom's offset, as in Vehtari et al. 2021). `NaN` values keep their
/// `NaN`; infinities are tamed to finite scores by construction.
fn rank_normalize(seqs: &mut [Vec<f64>]) {
    let n_total: usize = seqs.iter().map(Vec::len).sum();
    if n_total == 0 {
        return;
    }
    let mut idx: Vec<(u32, u32)> = Vec::with_capacity(n_total);
    for (h, s) in seqs.iter().enumerate() {
        for i in 0..s.len() {
            idx.push((h as u32, i as u32));
        }
    }
    idx.sort_by(|a, b| {
        seqs[a.0 as usize][a.1 as usize].total_cmp(&seqs[b.0 as usize][b.1 as usize])
    });
    let denom = n_total as f64 + 0.25;
    let mut s = 0;
    while s < n_total {
        let v = seqs[idx[s].0 as usize][idx[s].1 as usize];
        let mut e = s + 1;
        while e < n_total && seqs[idx[e].0 as usize][idx[e].1 as usize] == v {
            e += 1;
        }
        // Mean of the 1-based ranks s+1..=e shared by the tie group.
        let z = if v.is_nan() {
            f64::NAN
        } else {
            inv_normal_cdf(((s + 1 + e) as f64 / 2.0 - 0.375) / denom)
        };
        for &(h, i) in &idx[s..e] {
            seqs[h as usize][i as usize] = z;
        }
        s = e;
    }
}

/// Median of all values pooled across `seqs` (sorted by `total_cmp`).
fn pooled_median(seqs: &[Vec<f64>]) -> f64 {
    let mut all: Vec<f64> = seqs.iter().flatten().copied().collect();
    if all.is_empty() {
        return f64::NAN;
    }
    all.sort_by(|a, b| a.total_cmp(b));
    let n = all.len();
    if n % 2 == 1 {
        all[n / 2]
    } else {
        0.5 * (all[n / 2 - 1] + all[n / 2])
    }
}

/// Pooled empirical quantile across `seqs` (linear interpolation between
/// order statistics).
fn pooled_quantile(seqs: &[Vec<f64>], q: f64) -> f64 {
    let mut all: Vec<f64> = seqs.iter().flatten().copied().collect();
    if all.is_empty() {
        return f64::NAN;
    }
    all.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (all.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    all[lo] + (all[hi] - all[lo]) * frac
}

/// Rank-normalized split-R̂ for one coordinate (Vehtari et al. 2021):
/// the maximum of the *bulk* statistic (Gelman–Rubin over the
/// rank-normalized half-chains) and the *folded* statistic (same, over
/// rank-normalized `|x − median|`). Bulk catches location differences
/// robustly; folded catches chains that agree in location but disagree
/// in scale — invisible to classic [`split_r_hat`]. `NaN` when no chain
/// has at least 4 draws.
pub fn rank_normalized_split_r_hat(chains: &[Chain], coord: usize) -> f64 {
    let Some(halves) = split_halves(chains, coord) else {
        return f64::NAN;
    };
    let mut bulk_halves = halves.clone();
    rank_normalize(&mut bulk_halves);
    let bulk = gelman_rubin_halves(&bulk_halves);

    let med = pooled_median(&halves);
    let mut folded: Vec<Vec<f64>> = halves
        .iter()
        .map(|h| h.iter().map(|&x| (x - med).abs()).collect())
        .collect();
    rank_normalize(&mut folded);
    let fold = gelman_rubin_halves(&folded);

    // f64::max ignores NaN operands: propagate a known value over NaN,
    // NaN only when both statistics are undefined.
    if bulk.is_nan() {
        fold
    } else {
        bulk.max(fold)
    }
}

/// Worst rank-normalized split-R̂ over all coordinates (same NaN
/// semantics as [`max_r_hat`]).
pub fn max_rank_r_hat(chains: &[Chain]) -> f64 {
    let dim = chains.first().map(Chain::dim).unwrap_or(0);
    let mut worst = f64::NAN;
    for i in 0..dim {
        let r = rank_normalized_split_r_hat(chains, i);
        if !r.is_nan() && (worst.is_nan() || r > worst) {
            worst = r;
        }
    }
    worst
}

/// Full (untruncated) columns of `coord`, one per non-empty chain.
fn columns(chains: &[Chain], coord: usize) -> Vec<Vec<f64>> {
    chains
        .iter()
        .filter(|c| !c.is_empty() && coord < c.dim())
        .map(|c| c.column(coord))
        .collect()
}

/// Bulk ESS of one coordinate: the ESS of the rank-normalized draws,
/// summed across chains (per-chain Geyer estimates — the standard
/// multi-chain approximation). Robust to heavy tails because ranks are
/// bounded. `NaN` when no chain carries the coordinate.
pub fn ess_bulk(chains: &[Chain], coord: usize) -> f64 {
    let mut cols = columns(chains, coord);
    if cols.is_empty() {
        return f64::NAN;
    }
    rank_normalize(&mut cols);
    cols.iter().map(|c| effective_sample_size(c)).sum()
}

/// Tail ESS of one coordinate: the smaller of the ESS of the 5 % and
/// 95 % pooled-quantile indicator sequences `I(x ≤ q05)` / `I(x ≥ q95)`,
/// each summed across chains. Low tail ESS flags chains whose extremes
/// mix much more slowly than their bulk (interval estimates untrustworthy
/// even when the bulk looks healthy). `NaN` when no chain carries the
/// coordinate.
pub fn ess_tail(chains: &[Chain], coord: usize) -> f64 {
    let cols = columns(chains, coord);
    if cols.is_empty() {
        return f64::NAN;
    }
    let q05 = pooled_quantile(&cols, 0.05);
    let q95 = pooled_quantile(&cols, 0.95);
    let indicator_ess = |lower: bool, cut: f64| -> f64 {
        cols.iter()
            .map(|c| {
                let ind: Vec<f64> = c
                    .iter()
                    .map(|&x| {
                        let hit = if lower { x <= cut } else { x >= cut };
                        if hit {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                effective_sample_size(&ind)
            })
            .sum()
    };
    indicator_ess(true, q05).min(indicator_ess(false, q95))
}

/// Smallest bulk ESS across all coordinates (`NaN` for no draws or a
/// zero-dimension chain, mirroring [`min_ess`]).
pub fn min_ess_bulk(chains: &[Chain]) -> f64 {
    let dim = chains.first().map(Chain::dim).unwrap_or(0);
    if dim == 0 || chains.iter().all(Chain::is_empty) {
        return f64::NAN;
    }
    (0..dim)
        .map(|i| ess_bulk(chains, i))
        .fold(f64::INFINITY, f64::min)
}

/// Smallest tail ESS across all coordinates (`NaN` for no draws or a
/// zero-dimension chain).
pub fn min_ess_tail(chains: &[Chain]) -> f64 {
    let dim = chains.first().map(Chain::dim).unwrap_or(0);
    if dim == 0 || chains.iter().all(Chain::is_empty) {
        return f64::NAN;
    }
    (0..dim)
        .map(|i| ess_tail(chains, i))
        .fold(f64::INFINITY, f64::min)
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

/// Worst split-R̂ over all coordinates.
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
    fn min_ess_zero_dim_chain_is_nan() {
        let c = chain_of(vec![vec![]; 10]);
        assert!(min_ess(&c).is_nan());
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
        let r = rank_normalized_split_r_hat(&chains, 0);
        assert!((r - 1.0).abs() < 0.03, "rank rhat={r}");
    }

    #[test]
    fn rank_rhat_large_for_shifted_chains() {
        let mut rng = SimRng::new(22);
        let a = chain_of((0..500).map(|_| vec![rng.gaussian()]).collect());
        let b = chain_of((0..500).map(|_| vec![5.0 + rng.gaussian()]).collect());
        let r = rank_normalized_split_r_hat(&[a, b], 0);
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
        let rank = rank_normalized_split_r_hat(&chains, 0);
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
        let r = rank_normalized_split_r_hat(&chains, 0);
        assert!(r < 1.05, "rank rhat on heavy tails={r}");
    }

    #[test]
    fn rank_rhat_degenerate_inputs() {
        // Too short for any split.
        let short = chain_of(vec![vec![1.0], vec![2.0]]);
        assert!(rank_normalized_split_r_hat(&[short], 0).is_nan());
        assert!(max_rank_r_hat(&[]).is_nan());
        // Identical constant chains: all ranks tie, zero within-variance,
        // trivially converged.
        let a = chain_of(vec![vec![0.5]; 20]);
        let b = chain_of(vec![vec![0.5]; 20]);
        assert_eq!(rank_normalized_split_r_hat(&[a, b], 0), 1.0);
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
        let c0 = rank_normalized_split_r_hat(&chains, 0);
        let c1 = rank_normalized_split_r_hat(&chains, 1);
        assert_eq!(worst, c0.max(c1));
        assert!(worst > 1.5, "worst={worst}");
    }

    #[test]
    fn ess_bulk_near_total_draws_for_iid() {
        let mut rng = SimRng::new(26);
        let chains: Vec<Chain> = (0..4)
            .map(|_| chain_of((0..1000).map(|_| vec![rng.gaussian()]).collect()))
            .collect();
        let bulk = ess_bulk(&chains, 0);
        assert!(bulk > 2500.0, "bulk ess={bulk}");
        let tail = ess_tail(&chains, 0);
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
        let bulk = ess_bulk(&chains, 0);
        let tail = ess_tail(&chains, 0);
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
    fn rank_normalize_handles_ties_and_order() {
        // Ties share the average rank; output is monotone in the input.
        let mut seqs = vec![vec![2.0, 1.0, 2.0], vec![3.0, 1.0]];
        rank_normalize(&mut seqs);
        // Values 1.0 (ranks 1,2 → 1.5), 2.0 (ranks 3,4 → 3.5), 3.0 (rank 5).
        let z = |r: f64| inv_normal_cdf((r - 0.375) / 5.25);
        assert_eq!(seqs[0], vec![z(3.5), z(1.5), z(3.5)]);
        assert_eq!(seqs[1], vec![z(5.0), z(1.5)]);
        assert!(seqs[1][0] > seqs[0][0] && seqs[0][0] > seqs[0][1]);
    }

    #[test]
    fn min_ess_takes_worst_coordinate() {
        let mut rng = SimRng::new(5);
        let mut x = 0.0;
        let samples: Vec<Vec<f64>> = (0..2000)
            .map(|_| {
                x = 0.98 * x + rng.gaussian();
                vec![rng.gaussian(), x] // coord 0 iid, coord 1 sticky
            })
            .collect();
        let c = chain_of(samples);
        let worst = min_ess(&c);
        let ess0 = effective_sample_size(&c.column(0));
        assert!(worst < ess0 / 3.0, "worst={worst} ess0={ess0}");
    }
}
