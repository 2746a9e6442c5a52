//! The one-pass rank diagnostics against the six-sort code they replaced.
//!
//! `diagnostics::coordinate` extracts each chain's column once and sorts
//! three pools: the split halves (bulk R̂ and the median), the folded
//! halves (folded R̂) and the full columns (bulk ESS and the tail
//! quantiles). The `reference` module below is the earlier
//! implementation, which extracted the columns three times and sorted six
//! times. On every chain set here — including ties, unequal odd lengths
//! (where the halves pool differs from the full pool) and a single
//! chain — `coordinate` and the three public folds must equal it bit for
//! bit, and `Analysis` must keep exactly the `coordinate` rows.

use because::analysis::{Analysis, AnalysisConfig};
use because::chain::{Chain, SamplerKind};
use because::diagnostics::{self, coordinate, CoordDiagnostics};
use because::model::{NodeId, PathData, PathObservation};
use netsim::SimRng;

/// The earlier implementation, kept verbatim as the reference.
mod reference {
    use because::chain::Chain;
    use because::diagnostics::effective_sample_size;
    use because::math::inv_normal_cdf;

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
            return 1.0;
        }
        let var_plus = (n - 1.0) / n * w + b / n;
        (var_plus / w).sqrt()
    }

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

        if bulk.is_nan() {
            fold
        } else {
            bulk.max(fold)
        }
    }

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

    fn columns(chains: &[Chain], coord: usize) -> Vec<Vec<f64>> {
        chains
            .iter()
            .filter(|c| !c.is_empty() && coord < c.dim())
            .map(|c| c.column(coord))
            .collect()
    }

    pub fn ess_bulk(chains: &[Chain], coord: usize) -> f64 {
        let mut cols = columns(chains, coord);
        if cols.is_empty() {
            return f64::NAN;
        }
        rank_normalize(&mut cols);
        cols.iter().map(|c| effective_sample_size(c)).sum()
    }

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

    pub fn min_ess_bulk(chains: &[Chain]) -> f64 {
        let dim = chains.first().map(Chain::dim).unwrap_or(0);
        if dim == 0 || chains.iter().all(Chain::is_empty) {
            return f64::NAN;
        }
        (0..dim)
            .map(|i| ess_bulk(chains, i))
            .fold(f64::INFINITY, f64::min)
    }

    pub fn min_ess_tail(chains: &[Chain]) -> f64 {
        let dim = chains.first().map(Chain::dim).unwrap_or(0);
        if dim == 0 || chains.iter().all(Chain::is_empty) {
            return f64::NAN;
        }
        (0..dim)
            .map(|i| ess_tail(chains, i))
            .fold(f64::INFINITY, f64::min)
    }
}

/// A chain of `len` draws whose coordinates come from `draw`.
fn chain(len: usize, mut draw: impl FnMut() -> Vec<f64>) -> Chain {
    Chain::from_rows(
        SamplerKind::MetropolisHastings,
        (0..len).map(|_| draw()).collect(),
        0.5,
    )
}

/// `n` chains of `len` draws over `dim` independent AR(1) coordinates
/// with autocorrelation `rho` (`rho = 0` is iid).
fn ar1_chains(seed: u64, n: usize, len: usize, dim: usize, rho: f64) -> Vec<Chain> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| {
            let mut x = vec![0.0; dim];
            chain(len, || {
                for v in &mut x {
                    *v = rho * *v + rng.gaussian();
                }
                x.clone()
            })
        })
        .collect()
}

/// Assert `coordinate` and the three folds equal the reference bit for
/// bit on `chains`.
fn assert_matches_reference(what: &str, chains: &[Chain]) {
    let dim = chains[0].dim();
    for i in 0..dim {
        let got = coordinate(chains, i);
        for (field, got, want) in [
            (
                "rank_r_hat",
                got.rank_r_hat,
                reference::rank_normalized_split_r_hat(chains, i),
            ),
            ("ess_bulk", got.ess_bulk, reference::ess_bulk(chains, i)),
            ("ess_tail", got.ess_tail, reference::ess_tail(chains, i)),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}, coord {i}, {field}: {got} vs {want}"
            );
        }
    }
    for (fold, got, want) in [
        (
            "max_rank_r_hat",
            diagnostics::max_rank_r_hat(chains),
            reference::max_rank_r_hat(chains),
        ),
        (
            "min_ess_bulk",
            diagnostics::min_ess_bulk(chains),
            reference::min_ess_bulk(chains),
        ),
        (
            "min_ess_tail",
            diagnostics::min_ess_tail(chains),
            reference::min_ess_tail(chains),
        ),
    ] {
        assert!(!want.is_nan(), "{what}: {fold} reference is NaN");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}, {fold}: {got} vs {want}"
        );
    }
}

#[test]
fn iid_chains_match_the_reference() {
    assert_matches_reference("iid", &ar1_chains(1, 4, 400, 3, 0.0));
}

#[test]
fn sticky_ar1_chains_match_the_reference() {
    assert_matches_reference("sticky AR(1)", &ar1_chains(2, 2, 600, 2, 0.97));
}

#[test]
fn mh_like_runs_of_repeated_values_match_the_reference() {
    // A rejected MH proposal repeats the previous draw: long runs of
    // exact ties, which every ranking must average. Coordinate 2 never
    // moves at all.
    let mut rng = SimRng::new(3);
    let chains: Vec<Chain> = (0..3)
        .map(|_| {
            let mut x = [0.5, 0.5, 0.25];
            chain(300, || {
                for v in &mut x[..2] {
                    if rng.uniform() < 0.3 {
                        *v = (*v + 0.1 * rng.gaussian()).clamp(0.0, 1.0);
                    }
                }
                x.to_vec()
            })
        })
        .collect();
    assert_matches_reference("ties", &chains);
}

#[test]
fn unequal_odd_lengths_match_the_reference() {
    // 101 and 60 draws: the halves are truncated to 30 draws each, so
    // the halves pool (120 draws) is not the full pool (161 draws).
    let mut a = ar1_chains(4, 1, 101, 2, 0.5);
    let b = ar1_chains(5, 1, 60, 2, 0.5);
    a.extend(b);
    assert_matches_reference("lengths 101 and 60", &a);
}

#[test]
fn one_chain_matches_the_reference() {
    assert_matches_reference("one chain", &ar1_chains(6, 1, 250, 2, 0.6));
}

#[test]
fn three_chains_match_the_reference() {
    assert_matches_reference("three chains", &ar1_chains(7, 3, 200, 2, 0.3));
}

#[test]
fn analysis_keeps_the_coordinate_rows() {
    let obs: Vec<PathObservation> = (0..10)
        .flat_map(|_| {
            [
                (&[1u32][..], true),
                (&[1, 2][..], true),
                (&[2, 3][..], false),
            ]
            .map(|(ids, label)| {
                PathObservation::new(ids.iter().map(|&i| NodeId(i)).collect(), label)
            })
        })
        .collect();
    let data = PathData::from_observations(&obs, &[]);
    let a = Analysis::run(&data, &AnalysisConfig::fast(15));
    for (kernel, chains, diag) in [
        ("MH", &a.mh_chains, &a.mh_diagnostics),
        ("HMC", &a.hmc_chains, &a.hmc_diagnostics),
    ] {
        assert_eq!(diag.coords.len(), data.num_nodes(), "{kernel}");
        for (i, row) in diag.coords.iter().enumerate() {
            let want: CoordDiagnostics = coordinate(chains, i);
            assert_eq!(
                [row.rank_r_hat, row.ess_bulk, row.ess_tail].map(f64::to_bits),
                [want.rank_r_hat, want.ess_bulk, want.ess_tail].map(f64::to_bits),
                "{kernel} coord {i}"
            );
        }
        assert_eq!(
            diag.max_rank_r_hat.to_bits(),
            diagnostics::max_rank_r_hat(chains).to_bits(),
            "{kernel}"
        );
        assert_eq!(
            diag.min_ess_bulk.to_bits(),
            diagnostics::min_ess_bulk(chains).to_bits(),
            "{kernel}"
        );
        assert_eq!(
            diag.min_ess_tail.to_bits(),
            diagnostics::min_ess_tail(chains).to_bits(),
            "{kernel}"
        );
    }
}
