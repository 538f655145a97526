//! Statistics collection for simulation experiments.
//!
//! The paper's validation methodology (Section 4) gathers latency statistics over
//! 100,000 messages after a 10,000-message warm-up, followed by a drain phase. The
//! types here provide the numerically stable accumulation and the summary quantities
//! the experiment harness reports:
//!
//! * [`RunningStats`] — Welford's online mean/variance, min/max;
//! * [`Histogram`] — fixed-width bins for latency distributions;
//! * [`BatchMeans`] — the batch-means method for confidence intervals on steady-state
//!   simulation output (which is autocorrelated, so naive per-sample intervals would
//!   be too optimistic);
//! * [`confidence_interval_halfwidth`] — Student-t style half-width helper.

/// Numerically stable running mean / variance / extrema (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[inline]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Minimum observation (`None` if empty).
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A fixed-width histogram over `[0, width · bins)` with an overflow bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    /// Panics if `bin_width` is not positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "at least one bin is required");
        Histogram { bin_width, counts: vec![0; bins], overflow: 0, total: 0 }
    }

    /// Forgets every recorded observation and adopts a new bin width, keeping
    /// the allocated bin storage — equivalent to `Histogram::new(bin_width,
    /// self.counts().len())` without the allocation.
    ///
    /// # Panics
    /// Panics if `bin_width` is not positive.
    pub fn reset(&mut self, bin_width: f64) {
        assert!(bin_width > 0.0, "bin width must be positive");
        self.bin_width = bin_width;
        self.counts.fill(0);
        self.overflow = 0;
        self.total = 0;
    }

    /// Records one (non-negative) observation; negative values count as overflow.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.overflow += 1;
            return;
        }
        let idx = (x / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of recorded observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations outside the binned range.
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile (by linear scan over bins); returns the upper edge of the
    /// bin containing the requested quantile, or `None` if the histogram is empty or
    /// the quantile falls in the overflow region.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i + 1) as f64 * self.bin_width);
            }
        }
        None
    }
}

/// Batch-means estimator: consecutive observations are grouped into fixed-size batches
/// and the batch averages are treated as (approximately) independent samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_count: u64,
    batch_stats: RunningStats,
}

impl BatchMeans {
    /// Creates an estimator with the given batch size.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batch_stats: RunningStats::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_stats.push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Number of completed batches.
    #[inline]
    pub fn num_batches(&self) -> u64 {
        self.batch_stats.count()
    }

    /// Mean over completed batches.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.batch_stats.mean()
    }

    /// Approximate 95% confidence-interval half-width based on the batch means.
    pub fn halfwidth_95(&self) -> f64 {
        confidence_interval_halfwidth(&self.batch_stats, 0.95)
    }
}

/// Approximate two-sided confidence-interval half-width for the mean of the
/// observations in `stats`, at the given confidence level.
///
/// Uses the normal critical value for large samples and a small lookup of Student-t
/// critical values for few observations (the usual situation with batch means).
pub fn confidence_interval_halfwidth(stats: &RunningStats, level: f64) -> f64 {
    if stats.count() < 2 {
        return f64::INFINITY;
    }
    let z = critical_value(stats.count() - 1, level);
    z * stats.std_error()
}

/// Two-sided critical value for the given degrees of freedom and confidence level.
/// Exact for the normal limit; tabulated for small degrees of freedom at 90/95/99%.
fn critical_value(dof: u64, level: f64) -> f64 {
    // Columns: 90%, 95%, 99%.
    const TABLE: &[(u64, [f64; 3])] = &[
        (1, [6.314, 12.706, 63.657]),
        (2, [2.920, 4.303, 9.925]),
        (3, [2.353, 3.182, 5.841]),
        (4, [2.132, 2.776, 4.604]),
        (5, [2.015, 2.571, 4.032]),
        (6, [1.943, 2.447, 3.707]),
        (7, [1.895, 2.365, 3.499]),
        (8, [1.860, 2.306, 3.355]),
        (9, [1.833, 2.262, 3.250]),
        (10, [1.812, 2.228, 3.169]),
        (15, [1.753, 2.131, 2.947]),
        (20, [1.725, 2.086, 2.845]),
        (30, [1.697, 2.042, 2.750]),
        (60, [1.671, 2.000, 2.660]),
        (120, [1.658, 1.980, 2.617]),
    ];
    let col = if level >= 0.985 {
        2
    } else if level >= 0.925 {
        1
    } else {
        0
    };
    for &(d, vals) in TABLE {
        if dof <= d {
            return vals[col];
        }
    }
    // Normal limit.
    match col {
        2 => 2.576,
        1 => 1.960,
        _ => 1.645,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(s.std_error() > 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = Histogram::new(10.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.overflow(), 0);
        assert!(h.counts().iter().all(|&c| c == 10));
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        h.record(1e6);
        h.record(-1.0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.quantile(2.0), None);
    }

    #[test]
    fn empty_histogram_quantile_is_none() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(0.0, 4);
    }

    #[test]
    fn batch_means_reduces_to_plain_mean() {
        let mut bm = BatchMeans::new(10);
        for i in 0..100 {
            bm.push(i as f64);
        }
        assert_eq!(bm.num_batches(), 10);
        assert!((bm.mean() - 49.5).abs() < 1e-12);
        assert!(bm.halfwidth_95().is_finite());
    }

    #[test]
    fn batch_means_ignores_incomplete_batch() {
        let mut bm = BatchMeans::new(10);
        for i in 0..25 {
            bm.push(i as f64);
        }
        assert_eq!(bm.num_batches(), 2);
        assert!((bm.mean() - ((4.5 + 14.5) / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_behaviour() {
        let mut s = RunningStats::new();
        s.push(1.0);
        assert!(confidence_interval_halfwidth(&s, 0.95).is_infinite());
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(x);
        }
        let hw95 = confidence_interval_halfwidth(&s, 0.95);
        let hw99 = confidence_interval_halfwidth(&s, 0.99);
        let hw90 = confidence_interval_halfwidth(&s, 0.90);
        assert!(hw90 < hw95 && hw95 < hw99);
    }

    #[test]
    fn critical_values_are_monotone_in_dof() {
        assert!(critical_value(1, 0.95) > critical_value(5, 0.95));
        assert!(critical_value(5, 0.95) > critical_value(1000, 0.95));
        assert!((critical_value(100_000, 0.95) - 1.96).abs() < 1e-9);
    }
}
