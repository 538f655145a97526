//! Traffic model: message geometry, generation rate and destination patterns.
//!
//! Paper assumptions 1, 2 and 5: every node generates fixed-length messages of `M`
//! flits (each flit `L_m` bytes long) according to a Poisson process with rate `λ_g`,
//! and destinations are uniformly distributed over all *other* nodes of the system.
//!
//! Non-uniform destination patterns (hot-spot and cluster-local-favouring) are included
//! as the paper's stated future-work direction; the analytical model only supports
//! [`TrafficPattern::Uniform`], while the simulator accepts all of them.

use crate::{Result, SystemError};

/// Destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficPattern {
    /// Uniformly random destination over all other nodes (paper assumption 2).
    #[default]
    Uniform,
    /// A fraction `fraction` of messages targets the single `hotspot` node (given as a
    /// global node index); the remainder is uniform.
    Hotspot {
        /// Global index of the hot-spot node.
        hotspot: usize,
        /// Fraction of traffic directed at the hot-spot, in `[0, 1]`.
        fraction: f64,
    },
    /// Messages stay inside the source cluster with probability `locality`; otherwise
    /// the destination is uniform over the other clusters' nodes.
    LocalFavoring {
        /// Probability that a message stays in its source cluster, in `[0, 1]`.
        locality: f64,
    },
}

impl TrafficPattern {
    /// Validates the pattern parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            TrafficPattern::Uniform => Ok(()),
            TrafficPattern::Hotspot { fraction, .. } => {
                if (0.0..=1.0).contains(&fraction) && fraction.is_finite() {
                    Ok(())
                } else {
                    Err(SystemError::InvalidParameter { name: "fraction", value: fraction })
                }
            }
            TrafficPattern::LocalFavoring { locality } => {
                if (0.0..=1.0).contains(&locality) && locality.is_finite() {
                    Ok(())
                } else {
                    Err(SystemError::InvalidParameter { name: "locality", value: locality })
                }
            }
        }
    }

    /// `true` for the pattern the analytical model supports.
    pub fn is_uniform(&self) -> bool {
        matches!(self, TrafficPattern::Uniform)
    }
}

/// Message geometry and load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Message length `M` in flits (paper assumption 5; the evaluation uses 32 and 64).
    pub message_flits: usize,
    /// Flit length `L_m` in bytes (the evaluation uses 256 and 512).
    pub flit_bytes: f64,
    /// Message generation rate `λ_g` per node, in messages per time unit.
    pub generation_rate: f64,
    /// Destination-selection pattern.
    pub pattern: TrafficPattern,
}

impl TrafficConfig {
    /// Creates a uniform-traffic configuration.
    pub fn uniform(message_flits: usize, flit_bytes: f64, generation_rate: f64) -> Result<Self> {
        let cfg = TrafficConfig {
            message_flits,
            flit_bytes,
            generation_rate,
            pattern: TrafficPattern::Uniform,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Replaces the generation rate, keeping everything else (used by load sweeps).
    pub fn with_rate(mut self, generation_rate: f64) -> Result<Self> {
        self.generation_rate = generation_rate;
        self.validate()?;
        Ok(self)
    }

    /// Replaces the destination pattern.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Result<Self> {
        self.pattern = pattern;
        self.validate()?;
        Ok(self)
    }

    /// Validates all parameters.
    pub fn validate(&self) -> Result<()> {
        if self.message_flits == 0 {
            return Err(SystemError::InvalidParameter { name: "message_flits", value: 0.0 });
        }
        if !(self.flit_bytes.is_finite() && self.flit_bytes > 0.0) {
            return Err(SystemError::InvalidParameter {
                name: "flit_bytes",
                value: self.flit_bytes,
            });
        }
        if !(self.generation_rate.is_finite() && self.generation_rate >= 0.0) {
            return Err(SystemError::InvalidParameter {
                name: "generation_rate",
                value: self.generation_rate,
            });
        }
        self.pattern.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_rate_keeps_geometry() {
        let t = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let t2 = t.with_rate(5e-4).unwrap();
        assert_eq!(t2.message_flits, 32);
        assert_eq!(t2.generation_rate, 5e-4);
        assert!(t.with_rate(-1.0).is_err());
    }

    #[test]
    fn pattern_validation() {
        assert!(TrafficPattern::Uniform.validate().is_ok());
        assert!(TrafficPattern::Uniform.is_uniform());
        assert!(TrafficPattern::Hotspot { hotspot: 0, fraction: 0.2 }.validate().is_ok());
        assert!(TrafficPattern::Hotspot { hotspot: 0, fraction: 1.2 }.validate().is_err());
        assert!(TrafficPattern::LocalFavoring { locality: 0.8 }.validate().is_ok());
        assert!(TrafficPattern::LocalFavoring { locality: -0.1 }.validate().is_err());
        assert!(!TrafficPattern::LocalFavoring { locality: 0.8 }.is_uniform());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TrafficConfig::uniform(0, 256.0, 1e-4).is_err());
        assert!(TrafficConfig::uniform(32, 0.0, 1e-4).is_err());
        assert!(TrafficConfig::uniform(32, 256.0, f64::NAN).is_err());
        let bad = TrafficConfig::uniform(32, 256.0, 1e-4)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 0, fraction: 2.0 });
        assert!(bad.is_err());
    }

    #[test]
    fn zero_rate_is_allowed() {
        // A zero generation rate is a legitimate "no load" configuration.
        let t = TrafficConfig::uniform(32, 256.0, 0.0).unwrap();
        assert_eq!(t.generation_rate, 0.0);
    }
}
