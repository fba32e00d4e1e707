//! Measurement utilities: online moments, percentile sets and timestamped
//! series used by the experiment harness.

use crate::time::SimTime;

/// Numerically stable online mean/variance accumulator (Welford).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator; 0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Stores all samples to answer percentile queries exactly.
///
/// Discovery experiments record at most a few thousand runs, so keeping the
/// raw samples is cheap and avoids quantile-sketch error.
#[derive(Clone, Debug, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Empty set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact p-quantile (nearest-rank with linear interpolation),
    /// `p` in `[0, 1]`. Returns NaN when empty.
    ///
    /// NaN samples never panic the sort (`f64::total_cmp` is a total
    /// order) and are excluded from the quantile: a corrupt sample must
    /// not shift every percentile of the valid ones. If *all* samples
    /// are NaN the result is NaN.
    pub fn quantile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        // Under total_cmp, negative NaNs sort before -inf and positive
        // NaNs after +inf, so the finite/infinite values form one
        // contiguous middle slice.
        let lo_nan = self.samples.iter().take_while(|x| x.is_nan()).count();
        if lo_nan == self.samples.len() {
            return f64::NAN;
        }
        let hi_nan = self.samples.iter().rev().take_while(|x| x.is_nan()).count();
        let valid = &self.samples[lo_nan..self.samples.len() - hi_nan];
        let p = p.clamp(0.0, 1.0);
        let rank = p * (valid.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            valid[lo]
        } else {
            let w = rank - lo as f64;
            valid[lo] * (1.0 - w) + valid[hi] * w
        }
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A timestamped scalar series, e.g. "time each discovery packet is
/// processed at the FM" (paper Fig. 7a).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| last <= t),
            "TimeSeries timestamps must be non-decreasing"
        );
        self.points.push((t, v));
    }

    /// All points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last timestamp, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.points.last().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic dataset: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_exact() {
        let mut s = SampleSet::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = SampleSet::new();
        s.push(0.0);
        s.push(10.0);
        assert!((s.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((s.quantile(0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sampleset_quantile_is_nan() {
        let mut s = SampleSet::new();
        assert!(s.quantile(0.5).is_nan());
        assert!(s.is_empty());
    }

    #[test]
    fn nan_samples_sort_without_panicking_and_are_excluded() {
        // Regression: the old partial_cmp sort panicked on the first NaN.
        let mut s = SampleSet::new();
        for x in [3.0, f64::NAN, 1.0, -f64::NAN, 5.0, f64::NAN, 2.0, 4.0] {
            s.push(x);
        }
        // Percentiles come from the 5 valid samples only.
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!(!s.quantile(0.25).is_nan());
        assert!(!s.quantile(0.99).is_nan());
    }

    #[test]
    fn all_nan_samples_report_nan_quantile() {
        let mut s = SampleSet::new();
        s.push(f64::NAN);
        s.push(-f64::NAN);
        assert!(s.quantile(0.5).is_nan());
    }

    #[test]
    fn nan_with_infinities_keeps_valid_slice_contiguous() {
        let mut s = SampleSet::new();
        for x in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, 0.0, -f64::NAN] {
            s.push(x);
        }
        assert_eq!(s.quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert_eq!(s.median(), 0.0);
    }

    #[test]
    fn timeseries_preserves_order() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_ns(1), 1.0);
        ts.push(SimTime::from_ns(1), 2.0);
        ts.push(SimTime::from_ns(5), 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last_time(), Some(SimTime::from_ns(5)));
        assert_eq!(ts.points()[1], (SimTime::from_ns(1), 2.0));
        assert!(!ts.is_empty());
    }
}
