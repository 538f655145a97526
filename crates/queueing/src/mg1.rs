//! The M/G/1 queue.
//!
//! The paper models the source queue at every injection channel, and the
//! concentrator/dispatcher buffers, as M/G/1 queues (Eqs. 19–23, 30, 33). The mean
//! waiting time is the Pollaczek–Khinchine formula in the form the paper quotes from
//! Kleinrock:
//!
//! ```text
//! W = ρ · x̄ · (1 + C_x²) / (2 · (1 − ρ)),    ρ = λ · x̄,    C_x² = σ_x² / x̄²
//! ```

use crate::distributions::ServiceTime;
use crate::{check_nonnegative, QueueingError, Result};
use serde::{Deserialize, Serialize};

/// An M/G/1 queue: Poisson arrivals at rate `λ`, general service with known first two
/// moments, a single server and an infinite buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MG1Queue {
    arrival_rate: f64,
    service: ServiceTime,
}

impl MG1Queue {
    /// Creates an M/G/1 queue from the arrival rate and service-time moments.
    pub fn new(arrival_rate: f64, service: ServiceTime) -> Result<Self> {
        Ok(MG1Queue { arrival_rate: check_nonnegative("arrival_rate", arrival_rate)?, service })
    }

    /// Server utilisation `ρ = λ · x̄` (paper Eq. 20).
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.arrival_rate * self.service.mean()
    }

    /// Mean waiting time in the queue (excluding service), paper Eq. (19).
    ///
    /// Returns [`QueueingError::Saturated`] when `ρ ≥ 1`.
    pub fn waiting_time(&self) -> Result<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(QueueingError::Saturated { utilization: rho });
        }
        if rho == 0.0 {
            return Ok(0.0);
        }
        let xbar = self.service.mean();
        let scv = self.service.scv();
        Ok(rho * xbar * (1.0 + scv) / (2.0 * (1.0 - rho)))
    }

    /// The largest arrival rate for which the queue remains stable given the service
    /// time: `λ_max = 1 / x̄` (the saturation point of this queue in isolation).
    pub fn saturation_rate(&self) -> f64 {
        if self.service.mean() == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.service.mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_has_zero_waiting() {
        let q = MG1Queue::new(0.0, ServiceTime::deterministic(5.0).unwrap()).unwrap();
        assert_eq!(q.utilization(), 0.0);
        assert_eq!(q.waiting_time().unwrap(), 0.0);
    }

    #[test]
    fn matches_md1_closed_form() {
        // For deterministic service W = ρ·x̄ / (2(1-ρ)), half the M/M/1 wait
        // at the same utilisation.
        for (lambda, xbar) in [(0.3, 2.0), (0.3, 2.5), (0.7, 1.0), (3e-2, 32.0 * 0.522)] {
            let q = MG1Queue::new(lambda, ServiceTime::deterministic(xbar).unwrap()).unwrap();
            let rho = lambda * xbar;
            let expected = rho * xbar / (2.0 * (1.0 - rho));
            assert!((q.waiting_time().unwrap() - expected).abs() < 1e-12);
            let mm1 = MG1Queue::new(lambda, ServiceTime::exponential(xbar).unwrap()).unwrap();
            let ratio = q.waiting_time().unwrap() / mm1.waiting_time().unwrap();
            assert!((ratio - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_mm1_closed_form() {
        // For exponential service W = ρ·x̄ / (1-ρ).
        let xbar = 1.5;
        let lambda = 0.4;
        let q = MG1Queue::new(lambda, ServiceTime::exponential(xbar).unwrap()).unwrap();
        let rho = lambda * xbar;
        let expected = rho * xbar / (1.0 - rho);
        assert!((q.waiting_time().unwrap() - expected).abs() < 1e-12);
        // Textbook values, λ = 2, μ = 3: ρ = 2/3, W = 2/3.
        let q = MG1Queue::new(2.0, ServiceTime::exponential(1.0 / 3.0).unwrap()).unwrap();
        assert!((q.utilization() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.waiting_time().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_forms_agree() {
        // The paper's form of Eq. (19) equals `W = λ·E[X²] / (2(1−ρ))`.
        let service = ServiceTime::new(3.0, 4.5).unwrap();
        let q = MG1Queue::new(0.2, service).unwrap();
        let second_moment_form = 0.2 * service.second_moment() / (2.0 * (1.0 - q.utilization()));
        assert!((q.waiting_time().unwrap() - second_moment_form).abs() < 1e-12);
    }

    #[test]
    fn saturation_detected() {
        let q = MG1Queue::new(0.5, ServiceTime::deterministic(2.0).unwrap()).unwrap();
        assert!(matches!(q.waiting_time(), Err(QueueingError::Saturated { .. })));
        let q = MG1Queue::new(0.49, ServiceTime::deterministic(2.0).unwrap()).unwrap();
        assert!(q.waiting_time().is_ok());
    }

    #[test]
    fn saturation_rate_is_inverse_mean_service() {
        let q = MG1Queue::new(0.1, ServiceTime::deterministic(4.0).unwrap()).unwrap();
        assert!((q.saturation_rate() - 0.25).abs() < 1e-12);
        let q = MG1Queue::new(0.1, ServiceTime::deterministic(0.0).unwrap()).unwrap();
        assert!(q.saturation_rate().is_infinite());
    }

    #[test]
    fn waiting_grows_with_variance() {
        let lambda = 0.3;
        let det = MG1Queue::new(lambda, ServiceTime::deterministic(2.0).unwrap()).unwrap();
        let exp = MG1Queue::new(lambda, ServiceTime::exponential(2.0).unwrap()).unwrap();
        assert!(exp.waiting_time().unwrap() > det.waiting_time().unwrap());
    }

    #[test]
    fn waiting_diverges_near_saturation() {
        let service = ServiceTime::deterministic(1.0).unwrap();
        let w_low = MG1Queue::new(0.5, service).unwrap().waiting_time().unwrap();
        let w_high = MG1Queue::new(0.99, service).unwrap().waiting_time().unwrap();
        assert!(w_high > 10.0 * w_low);
    }

    #[test]
    fn negative_rate_rejected() {
        assert!(MG1Queue::new(-0.1, ServiceTime::deterministic(1.0).unwrap()).is_err());
    }
}
