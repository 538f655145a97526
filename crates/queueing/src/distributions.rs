//! Service-time descriptors.
//!
//! The analytical model never needs full distributions — only the first two moments of
//! the service time seen by a queue (the M/G/1 waiting time depends on the mean and the
//! squared coefficient of variation, paper Eqs. 19–21). [`ServiceTime`] captures exactly
//! that, with convenience constructors for the cases the paper uses:
//!
//! * **deterministic** service (the concentrator/dispatcher queues, Eq. 33, where the
//!   message length is fixed so "there is no variance in the service time");
//! * **exponential** service (used by M/M/1 sanity checks);
//! * the **Draper–Ghosh approximation** (Eq. 22): the service time of the injection
//!   channel has mean `S` (the network latency) and standard deviation `S − M·t_cn`,
//!   i.e. the gap between the observed latency and the minimum possible latency.

use crate::{check_nonnegative, check_positive, Result};

/// First two moments of a service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTime {
    mean: f64,
    variance: f64,
}

impl ServiceTime {
    /// A general service time from its mean and variance.
    pub fn new(mean: f64, variance: f64) -> Result<Self> {
        Ok(ServiceTime {
            mean: check_nonnegative("mean", mean)?,
            variance: check_nonnegative("variance", variance)?,
        })
    }

    /// A deterministic (zero-variance) service time.
    pub fn deterministic(mean: f64) -> Result<Self> {
        Ok(ServiceTime { mean: check_nonnegative("mean", mean)?, variance: 0.0 })
    }

    /// An exponential service time with the given mean (variance = mean²).
    pub fn exponential(mean: f64) -> Result<Self> {
        let mean = check_positive("mean", mean)?;
        Ok(ServiceTime { mean, variance: mean * mean })
    }

    /// The Draper–Ghosh approximation used by the paper's Eq. (22): the service time
    /// has mean `network_latency` and standard deviation
    /// `network_latency − minimum_latency`.
    ///
    /// `minimum_latency` is the smallest possible service time (`M·t_cn` for the
    /// paper's injection channel); it must not exceed `network_latency`.
    pub fn draper_ghosh(network_latency: f64, minimum_latency: f64) -> Result<Self> {
        let mean = check_nonnegative("network_latency", network_latency)?;
        let min = check_nonnegative("minimum_latency", minimum_latency)?;
        let sigma = (mean - min).max(0.0);
        Ok(ServiceTime { mean, variance: sigma * sigma })
    }

    /// Mean service time.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Variance of the service time.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Standard deviation of the service time.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Second raw moment `E[X²] = Var + mean²`.
    #[inline]
    pub fn second_moment(&self) -> f64 {
        self.variance + self.mean * self.mean
    }

    /// Squared coefficient of variation `C² = Var / mean²` (paper Eq. 21).
    ///
    /// Returns 0 for a zero mean (a degenerate distribution concentrated at 0).
    #[inline]
    pub fn scv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.variance / (self.mean * self.mean)
        }
    }

    /// Scales the distribution by a positive constant factor (both moments follow).
    pub fn scale(&self, factor: f64) -> Result<Self> {
        let factor = check_nonnegative("factor", factor)?;
        Ok(ServiceTime { mean: self.mean * factor, variance: self.variance * factor * factor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_has_no_variance() {
        let s = ServiceTime::deterministic(4.0).unwrap();
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.scv(), 0.0);
        assert_eq!(s.second_moment(), 16.0);
    }

    #[test]
    fn exponential_has_unit_scv() {
        let s = ServiceTime::exponential(2.5).unwrap();
        assert!((s.scv() - 1.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.5).abs() < 1e-12);
        assert!(ServiceTime::exponential(0.0).is_err());
    }

    #[test]
    fn draper_ghosh_variance() {
        // sigma = S - M*t_cn.
        let s = ServiceTime::draper_ghosh(100.0, 8.8).unwrap();
        assert!((s.std_dev() - 91.2).abs() < 1e-12);
        assert_eq!(s.mean(), 100.0);
        // If the latency equals the minimum the variance collapses to zero.
        let s = ServiceTime::draper_ghosh(8.8, 8.8).unwrap();
        assert_eq!(s.variance(), 0.0);
        // A minimum larger than the latency is clamped rather than producing a
        // negative standard deviation.
        let s = ServiceTime::draper_ghosh(5.0, 8.8).unwrap();
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn scv_of_zero_mean_is_zero() {
        let s = ServiceTime::new(0.0, 0.0).unwrap();
        assert_eq!(s.scv(), 0.0);
    }

    #[test]
    fn scaling_scales_moments() {
        let s = ServiceTime::new(2.0, 9.0).unwrap().scale(3.0).unwrap();
        assert_eq!(s.mean(), 6.0);
        assert_eq!(s.variance(), 81.0);
        assert!((s.scv() - 9.0 / 4.0).abs() < 1e-12, "scv is scale-invariant");
        assert!(ServiceTime::new(1.0, 1.0).unwrap().scale(-1.0).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ServiceTime::new(-1.0, 0.0).is_err());
        assert!(ServiceTime::new(1.0, -0.5).is_err());
        assert!(ServiceTime::new(f64::NAN, 0.0).is_err());
        assert!(ServiceTime::deterministic(f64::INFINITY).is_err());
        assert!(ServiceTime::draper_ghosh(-1.0, 0.0).is_err());
    }
}
