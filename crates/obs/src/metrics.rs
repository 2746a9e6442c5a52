//! The plain-cell histogram: embed it in the struct that owns the hot
//! loop.
//!
//! It is deliberately *not* a shared-state abstraction: fixed bucket
//! arrays plus `u64`/`f64` cells, so recording is a short scan and a few
//! field updates. Subsystems export it into a [`crate::Section`] at
//! snapshot time; plain counts are ordinary `u64` fields exported with
//! [`crate::Section::counter`].

use crate::report::HistogramSnapshot;

/// A fixed-bucket histogram: bucket bounds are chosen at registration
/// time, so recording is a short scan plus an increment — no allocation.
///
/// Bucket `i` counts samples `v <= bounds[i]` (first matching bound
/// wins); one extra overflow bucket counts everything beyond the last
/// bound. Sum/min/max are tracked exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Box<[f64]>,
    counts: Box<[u64]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given ascending, finite upper bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.into(),
            counts: vec![0; bounds.len() + 1].into(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// An owned snapshot for reports.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.counts.to_vec(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { f64::NAN } else { self.min },
            max: if self.count == 0 { f64::NAN } else { self.max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_samples() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 7.0, 50.0] {
            h.record(v);
        }
        // <=1: {0.5, 1.0}; <=5: {3.0}; <=10: {7.0}; overflow: {50.0}.
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 61.5).abs() < 1e-12);
        assert!((h.mean() - 12.3).abs() < 1e-12);
        let s = h.snapshot();
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 50.0);
    }

    #[test]
    fn empty_histogram_snapshot_has_nan_extremes() {
        let h = Histogram::new(&[1.0]);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.min.is_nan() && s.max.is_nan());
        assert!(h.mean().is_nan());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[5.0, 1.0]);
    }
}
