//! Shared numeric toolkit: histograms, empirical CDFs and ordinary
//! least-squares regression.
//!
//! These primitives back several parts of the reproduction: the paper's
//! heuristic M3 fits a line to a 40-bin announcement histogram (Fig. 10),
//! and Fig. 8 and Fig. 13 are empirical CDFs.

/// Linear (`y = intercept + slope * x`) least-squares fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² (0 when variance of y is zero).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Relative change of the fitted line across `[x0, x1]`:
    /// `(ŷ(x1) − ŷ(x0)) / ŷ(x0)`. Returns 0 if the start value is ~0.
    ///
    /// The paper's heuristic M3 scores the announcement histogram by the
    /// slope *and relative change* of the regression line over the Burst.
    pub fn relative_change(&self, x0: f64, x1: f64) -> f64 {
        let y0 = self.predict(x0);
        if y0.abs() < 1e-12 {
            0.0
        } else {
            (self.predict(x1) - y0) / y0
        }
    }
}

/// Ordinary least squares on paired samples. Returns `None` with fewer than
/// two points or when all `x` are identical (vertical line).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy <= 0.0 {
        0.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Fit a line to equally-spaced bin heights (x = 0, 1, 2, ...).
pub fn linear_fit_bins(heights: &[f64]) -> Option<LinearFit> {
    let xs: Vec<f64> = (0..heights.len()).map(|i| i as f64).collect();
    linear_fit(&xs, heights)
}

/// Fixed-range histogram with equal-width bins.
///
/// Values outside `[lo, hi)` clamp into the first/last bin — in the paper's
/// use the range is the Burst window, and edge timestamps (propagation
/// stragglers) belong semantically to the boundary bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        let b = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64).floor();
        let idx = (b as i64).clamp(0, self.counts.len() as i64 - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Add `other`'s counts bin by bin. Panics unless both histograms
    /// cover the same range with the same bins.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins() == other.bins(),
            "merged histograms must share their bins"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin heights as floats (for regression).
    pub fn heights(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bin `i` on the x-axis.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }
}

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (non-finite values are dropped).
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ecdf { sorted: xs }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// Empirical `q`-quantile (`0 ≤ q ≤ 1`), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// `(x, F(x))` points for plotting, one per distinct sample value.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut pts = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            if i + 1 == self.sorted.len() || self.sorted[i + 1] > x {
                pts.push((x, (i + 1) as f64 / n));
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 - 0.5 * x).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope + 0.5).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        // Flat y: slope 0, R² defined as 0.
        let f = linear_fit(&[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r_squared, 0.0);
    }

    #[test]
    fn relative_change_of_declining_line() {
        let f = LinearFit {
            slope: -1.0,
            intercept: 10.0,
            r_squared: 1.0,
        };
        // From x=0 (y=10) to x=5 (y=5): −50 %.
        assert!((f.relative_change(0.0, 5.0) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, 10.0, -3.0, 25.0] {
            h.push(x);
        }
        // bins: [0,2) [2,4) [4,6) [6,8) [8,10); -3 clamps to first, 10 & 25 to last
        assert_eq!(h.counts(), &[3, 1, 0, 0, 3]);
        assert_eq!(h.total(), 7);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let (mut a, mut b, mut both) = (
            Histogram::new(0.0, 1.0, 4),
            Histogram::new(0.0, 1.0, 4),
            Histogram::new(0.0, 1.0, 4),
        );
        for x in [0.1, 0.3, 0.3] {
            a.push(x);
            both.push(x);
        }
        for x in [0.3, 0.9] {
            b.push(x);
            both.push(x);
        }
        a.merge(&b);
        assert_eq!(a.counts(), both.counts());
    }

    #[test]
    #[should_panic(expected = "share their bins")]
    fn histogram_merge_rejects_other_bins() {
        Histogram::new(0.0, 1.0, 4).merge(&Histogram::new(0.0, 1.0, 5));
    }

    #[test]
    fn ecdf_eval_and_quantiles() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn ecdf_points_monotone_and_deduped() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
}
