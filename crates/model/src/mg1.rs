//! The M/G/1 mean wait both of the model's queues share.
//!
//! The paper charges the source queue at every injection channel (Eqs. 19–23
//! and 30, service variance from Eq. 22) and the concentrator/dispatcher buffers
//! (Eq. 33, zero service variance) with the same Pollaczek–Khinchine wait, in
//! the form the paper quotes from Kleinrock:
//!
//! ```text
//! W = ρ · x̄ · (1 + C_x²) / (2 · (1 − ρ)),    ρ = λ · x̄,    C_x² = σ_x² / x̄²
//! ```

use crate::{check_nonnegative, Result};

/// Mean waiting time (excluding service) of an M/G/1 queue with Poisson
/// arrivals at `rate` and a service time of the given `mean` and `variance`.
///
/// The inner `Err` carries the utilisation `ρ` when `ρ ≥ 1`, for the caller to
/// name the saturated component; a negative or non-finite input is an
/// [`ModelError::InvalidConfiguration`](crate::ModelError::InvalidConfiguration).
pub(crate) fn waiting_time(
    rate: f64,
    mean: f64,
    variance: f64,
) -> Result<std::result::Result<f64, f64>> {
    let rate = check_nonnegative("rate", rate)?;
    let mean = check_nonnegative("mean", mean)?;
    let variance = check_nonnegative("variance", variance)?;
    let rho = rate * mean;
    if rho >= 1.0 {
        return Ok(Err(rho));
    }
    if rho == 0.0 {
        return Ok(Ok(0.0));
    }
    // ρ > 0 implies x̄ > 0, so C² is defined.
    let scv = variance / (mean * mean);
    Ok(Ok(rho * mean * (1.0 + scv) / (2.0 * (1.0 - rho))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    fn wait(rate: f64, mean: f64, variance: f64) -> f64 {
        waiting_time(rate, mean, variance).unwrap().unwrap()
    }

    #[test]
    fn zero_load_has_zero_waiting() {
        assert_eq!(wait(0.0, 5.0, 0.0), 0.0);
        // A zero mean service (C² undefined) is zero load too.
        assert_eq!(wait(3.0, 0.0, 0.0), 0.0);
        assert_eq!(wait(3.0, 0.0, 4.0), 0.0);
    }

    #[test]
    fn matches_md1_closed_form() {
        // For deterministic service W = ρ·x̄ / (2(1-ρ)), half the M/M/1 wait
        // at the same utilisation.
        for (lambda, xbar) in [(0.3, 2.0), (0.3, 2.5), (0.7, 1.0), (3e-2, 32.0 * 0.522)] {
            let rho = lambda * xbar;
            let expected = rho * xbar / (2.0 * (1.0 - rho));
            assert!((wait(lambda, xbar, 0.0) - expected).abs() < 1e-12);
            let ratio = wait(lambda, xbar, 0.0) / wait(lambda, xbar, xbar * xbar);
            assert!((ratio - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_mm1_closed_form() {
        // For exponential service (σ² = x̄²) W = ρ·x̄ / (1-ρ).
        let (lambda, xbar) = (0.4, 1.5);
        let rho = lambda * xbar;
        let expected = rho * xbar / (1.0 - rho);
        assert!((wait(lambda, xbar, xbar * xbar) - expected).abs() < 1e-12);
        // Textbook values, λ = 2, μ = 3: ρ = 2/3, W = 2/3.
        let xbar: f64 = 1.0 / 3.0;
        assert!((wait(2.0, xbar, xbar * xbar) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_forms_agree() {
        // The paper's form of Eq. (19) equals `W = λ·E[X²] / (2(1−ρ))`.
        let (lambda, mean, variance) = (0.2, 3.0, 4.5);
        let second_moment_form = lambda * (variance + mean * mean) / (2.0 * (1.0 - lambda * mean));
        assert!((wait(lambda, mean, variance) - second_moment_form).abs() < 1e-12);
    }

    #[test]
    fn saturation_detected() {
        assert_eq!(waiting_time(0.5, 2.0, 0.0).unwrap(), Err(1.0));
        assert_eq!(waiting_time(1.0, 2.0, 9.0).unwrap(), Err(2.0));
        assert!(waiting_time(0.49, 2.0, 0.0).unwrap().is_ok());
    }

    #[test]
    fn waiting_grows_with_variance() {
        assert!(wait(0.3, 2.0, 4.0) > wait(0.3, 2.0, 0.0));
    }

    #[test]
    fn waiting_diverges_near_saturation() {
        assert!(wait(0.99, 1.0, 0.0) > 10.0 * wait(0.5, 1.0, 0.0));
    }

    #[test]
    fn negative_rate_rejected() {
        for (rate, mean, variance) in [
            (-0.1, 1.0, 0.0),
            (f64::NAN, 1.0, 0.0),
            (0.1, -1.0, 0.0),
            (0.1, f64::INFINITY, 0.0),
            (0.1, 1.0, -0.5),
            (0.1, 1.0, f64::NAN),
        ] {
            assert!(
                matches!(
                    waiting_time(rate, mean, variance),
                    Err(ModelError::InvalidConfiguration { .. })
                ),
                "({rate}, {mean}, {variance}) accepted"
            );
        }
    }
}
