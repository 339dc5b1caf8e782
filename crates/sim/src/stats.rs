//! Lightweight metric collectors: summaries and time series.
//!
//! Benches and the service report aggregate timings and gauges with these
//! types; they are deliberately simple (exact samples, computed on demand)
//! because sample counts are at most O(10^4) per experiment.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Running summary of a stream of f64 samples (stored exactly).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Minimum sample; 0 for an empty summary.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_finite()
    }

    /// Maximum sample; 0 for an empty summary.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// Population standard deviation; 0 for fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Median sample (50th percentile); 0 for an empty summary.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Percentile in `[0, 100]` by nearest-rank on sorted samples.
    ///
    /// Sorts a copy of the samples; when querying several percentiles of the
    /// same summary, prefer [`Summary::percentiles`], which sorts once.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentiles(&[p])[0]
    }

    /// Batch percentile query: one sort shared by all requested points.
    ///
    /// Returns one value per entry of `ps`, each by nearest-rank on the
    /// sorted samples; every value is 0 for an empty summary.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![0.0; ps.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        ps.iter()
            .map(|p| {
                let rank =
                    ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64).round() as usize;
                sorted[rank]
            })
            .collect()
    }

    /// Immutable view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// A value sampled over virtual time, e.g. core utilization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point; times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "time series must be appended in order");
        }
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Time-weighted average assuming step interpolation, over the recorded
    /// span. Returns 0 for fewer than two points.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            span += dt;
        }
        if span == 0.0 {
            0.0
        } else {
            acc / span
        }
    }

    /// Peak recorded value; 0 for an empty series.
    pub fn peak(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.stddev() - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        // Convention: every statistic of an empty summary is exactly 0.0 —
        // never NaN or an infinity — so report columns stay plottable.
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.median(), 0.0);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(s.percentile(p), 0.0);
        }
        assert_eq!(s.percentiles(&[0.0, 50.0, 99.9]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn summary_batch_percentiles_match_single_queries() {
        let mut s = Summary::new();
        for v in 0..=100 {
            s.add(v as f64);
        }
        let ps = [0.0, 12.5, 50.0, 90.0, 100.0, 200.0];
        let batch = s.percentiles(&ps);
        for (p, got) in ps.iter().zip(&batch) {
            assert_eq!(*got, s.percentile(*p), "percentile {p} mismatch");
        }
    }

    #[test]
    fn median_matches_middle_sample() {
        let mut s = Summary::new();
        for v in [5.0, 1.0, 3.0] {
            s.add(v);
        }
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::new();
        for v in 0..=100 {
            s.add(v as f64);
        }
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(200.0), 100.0, "clamped");
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 0.0);
        ts.push(SimTime::from_secs(10), 10.0); // value 0 held for 10 s
        ts.push(SimTime::from_secs(20), 0.0); // value 10 held for 10 s
        assert_eq!(ts.time_weighted_mean(), 5.0);
        assert_eq!(ts.peak(), 10.0);
    }

    #[test]
    fn time_series_single_point() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::ZERO, 42.0);
        assert_eq!(ts.time_weighted_mean(), 0.0);
        assert_eq!(ts.peak(), 42.0);
    }
}
