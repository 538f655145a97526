//! # mcnet-queueing
//!
//! Queueing-theory building blocks for the analytical latency model and the
//! discrete-event simulator of the multi-cluster interconnection-network study
//! (Javadi et al., ICPP Workshops 2006).
//!
//! The paper composes a handful of classical results:
//!
//! * the **M/G/1 waiting-time formula** (Pollaczek–Khinchine, the paper's Eq. 19,
//!   citing Kleinrock) models the source queue at every injection channel and the
//!   concentrator/dispatcher buffers;
//! * the Draper–Ghosh style **variance approximation** for the service-time
//!   distribution (Eq. 22) closes the model.
//!
//! This crate implements those pieces as small, independently tested modules:
//!
//! | module | contents |
//! |--------|----------|
//! | [`mg1`] | M/G/1 queue: utilisation, waiting time, saturation rate (M/M/1 and M/D/1 are its exponential- and deterministic-service cases) |
//! | [`distributions`] | service-time descriptors (mean / variance / squared coefficient of variation) |
//! | [`stats`] | running statistics, histograms, batch means and confidence intervals |
//!
//! All formulas work in the paper's abstract "time units"; nothing in this crate
//! assumes a particular unit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod mg1;
pub mod stats;

pub use distributions::ServiceTime;
pub use mg1::MG1Queue;
pub use stats::RunningStats;

/// Errors produced by queueing computations.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// A rate or time parameter was negative or not finite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The queue is saturated (utilisation ≥ 1); steady-state quantities do not exist.
    Saturated {
        /// The utilisation that triggered saturation.
        utilization: f64,
    },
}

impl std::fmt::Display for QueueingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueingError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            QueueingError::Saturated { utilization } => {
                write!(f, "queue saturated: utilisation {utilization:.4} >= 1")
            }
        }
    }
}

impl std::error::Error for QueueingError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueueingError>;

pub(crate) fn check_nonnegative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(QueueingError::InvalidParameter { name, value })
    }
}

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(QueueingError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        let e = QueueingError::InvalidParameter { name: "lambda", value: -1.0 };
        assert!(e.to_string().contains("lambda"));
        let e = QueueingError::Saturated { utilization: 1.25 };
        assert!(e.to_string().contains("1.25"));
    }

    #[test]
    fn parameter_checks() {
        assert!(check_nonnegative("x", 0.0).is_ok());
        assert!(check_nonnegative("x", 1.5).is_ok());
        assert!(check_nonnegative("x", -0.1).is_err());
        assert!(check_nonnegative("x", f64::NAN).is_err());
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", f64::INFINITY).is_err());
        assert!(check_positive("x", 2.0).is_ok());
    }
}
