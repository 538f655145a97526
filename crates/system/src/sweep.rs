//! Parameter sweeps for the evaluation harness.
//!
//! Every figure of the paper plots mean message latency against the offered traffic
//! `λ_g`, swept from zero up to (just past) the saturation point of the configuration.
//! [`FigureSweep`] bundles the exact axis ranges the paper uses for Figs. 3 and 4
//! together with the message geometry, and produces their rate grids.

use crate::traffic::TrafficConfig;
use crate::{Result, SystemError};
use serde::{Deserialize, Serialize};

/// A linear sweep of message-generation rates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrafficSweep {
    /// Lowest rate of the sweep (inclusive); must be positive because a zero rate
    /// produces no traffic and therefore no measurable latency.
    min_rate: f64,
    /// Highest rate of the sweep (inclusive).
    max_rate: f64,
    /// Number of points (≥ 2).
    points: usize,
}

impl TrafficSweep {
    /// Creates a sweep after validating its parameters.
    fn new(min_rate: f64, max_rate: f64, points: usize) -> Result<Self> {
        if !(min_rate.is_finite() && min_rate > 0.0) {
            return Err(SystemError::InvalidParameter { name: "min_rate", value: min_rate });
        }
        if !(max_rate.is_finite() && max_rate >= min_rate) {
            return Err(SystemError::InvalidParameter { name: "max_rate", value: max_rate });
        }
        if points < 2 {
            return Err(SystemError::InvalidParameter { name: "points", value: points as f64 });
        }
        Ok(TrafficSweep { min_rate, max_rate, points })
    }

    /// A sweep from `max/points` to `max` in equal steps — the shape of the paper's
    /// figure x-axes (which start just above zero and end at the saturation region).
    fn up_to(max_rate: f64, points: usize) -> Result<Self> {
        if !(max_rate.is_finite() && max_rate > 0.0) {
            return Err(SystemError::InvalidParameter { name: "max_rate", value: max_rate });
        }
        if points < 2 {
            return Err(SystemError::InvalidParameter { name: "points", value: points as f64 });
        }
        Self::new(max_rate / points as f64, max_rate, points)
    }

    /// The rate values of the sweep.
    fn rates(&self) -> Vec<f64> {
        let step = if self.points == 1 {
            0.0
        } else {
            (self.max_rate - self.min_rate) / (self.points - 1) as f64
        };
        (0..self.points).map(|i| self.min_rate + step * i as f64).collect()
    }

    /// The corresponding traffic configurations for a given message geometry.
    fn configs(&self, message_flits: usize, flit_bytes: f64) -> Result<Vec<TrafficConfig>> {
        materialize_rates(
            &TrafficConfig::uniform(message_flits, flit_bytes, self.min_rate)?,
            &self.rates(),
        )
    }
}

/// The one shared rate→[`TrafficConfig`] materializer: stamps every rate of a
/// sweep onto a template configuration, keeping the template's geometry and
/// destination pattern. [`FigureSweep::configs`] and the simulator's
/// `Scenario::sweep` both route through this function, so a rate grid means the
/// same thing everywhere.
pub fn materialize_rates(template: &TrafficConfig, rates: &[f64]) -> Result<Vec<TrafficConfig>> {
    rates.iter().map(|&r| template.with_rate(r)).collect()
}

/// The sweep behind one panel of the paper's Figs. 3–4: a message geometry plus the
/// published x-axis range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigureSweep {
    /// Message length in flits.
    pub message_flits: usize,
    /// Flit size in bytes.
    pub flit_bytes: f64,
    /// Upper end of the published x-axis (messages per node per time unit).
    pub max_rate: f64,
    /// Number of sweep points to evaluate.
    pub points: usize,
}

impl FigureSweep {
    /// Fig. 3, left panel: `N = 1120`, `m = 8`, `M = 32` (x-axis up to 5·10⁻⁴).
    pub fn fig3_m32(flit_bytes: f64) -> Self {
        FigureSweep { message_flits: 32, flit_bytes, max_rate: 5.0e-4, points: 10 }
    }

    /// Fig. 3, right panel: `N = 1120`, `m = 8`, `M = 64` (x-axis up to 2.5·10⁻⁴).
    pub fn fig3_m64(flit_bytes: f64) -> Self {
        FigureSweep { message_flits: 64, flit_bytes, max_rate: 2.5e-4, points: 10 }
    }

    /// Fig. 4, left panel: `N = 544`, `m = 4`, `M = 32` (x-axis up to 1·10⁻³).
    pub fn fig4_m32(flit_bytes: f64) -> Self {
        FigureSweep { message_flits: 32, flit_bytes, max_rate: 1.0e-3, points: 10 }
    }

    /// Fig. 4, right panel: `N = 544`, `m = 4`, `M = 64` (x-axis up to 5·10⁻⁴).
    pub fn fig4_m64(flit_bytes: f64) -> Self {
        FigureSweep { message_flits: 64, flit_bytes, max_rate: 5.0e-4, points: 10 }
    }

    /// Overrides the number of sweep points.
    pub fn with_points(mut self, points: usize) -> Self {
        self.points = points.max(2);
        self
    }

    /// The rate values of the sweep (the published x-axis points).
    pub fn rates(&self) -> Result<Vec<f64>> {
        Ok(TrafficSweep::up_to(self.max_rate, self.points)?.rates())
    }

    /// The uniform-traffic template the sweep's rates are stamped onto (the
    /// lowest rate of the sweep; see [`materialize_rates`]).
    pub fn template(&self) -> Result<TrafficConfig> {
        TrafficConfig::uniform(
            self.message_flits,
            self.flit_bytes,
            self.max_rate / self.points as f64,
        )
    }

    /// The traffic configurations of the sweep.
    pub fn configs(&self) -> Result<Vec<TrafficConfig>> {
        TrafficSweep::up_to(self.max_rate, self.points)?
            .configs(self.message_flits, self.flit_bytes)
    }
}

/// Cartesian product helper for multi-dimensional parameter studies: returns every
/// `(message_flits, flit_bytes)` combination of the given lists, which is exactly the
/// grid the paper evaluates (`M ∈ {32, 64}` × `L_m ∈ {256, 512}`).
pub fn geometry_grid(flits: &[usize], flit_bytes: &[f64]) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(flits.len() * flit_bytes.len());
    for &m in flits {
        for &l in flit_bytes {
            out.push((m, l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rates_are_monotone_and_inclusive() {
        let sweep = TrafficSweep::new(1e-5, 1e-4, 10).unwrap();
        let rates = sweep.rates();
        assert_eq!(rates.len(), 10);
        assert!((rates[0] - 1e-5).abs() < 1e-18);
        assert!((rates[9] - 1e-4).abs() < 1e-18);
        assert!(rates.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn up_to_starts_above_zero() {
        let sweep = TrafficSweep::up_to(5e-4, 10).unwrap();
        let rates = sweep.rates();
        assert!(rates[0] > 0.0);
        assert!((rates[9] - 5e-4).abs() < 1e-18);
    }

    #[test]
    fn configs_carry_geometry() {
        let sweep = TrafficSweep::up_to(1e-4, 5).unwrap();
        let configs = sweep.configs(32, 256.0).unwrap();
        assert_eq!(configs.len(), 5);
        assert!(configs.iter().all(|c| c.message_flits == 32 && c.flit_bytes == 256.0));
    }

    #[test]
    fn figure_sweeps_match_paper_axes() {
        assert_eq!(FigureSweep::fig3_m32(256.0).max_rate, 5.0e-4);
        assert_eq!(FigureSweep::fig3_m64(256.0).max_rate, 2.5e-4);
        assert_eq!(FigureSweep::fig4_m32(512.0).max_rate, 1.0e-3);
        assert_eq!(FigureSweep::fig4_m64(512.0).max_rate, 5.0e-4);
        let cfgs = FigureSweep::fig3_m32(256.0).with_points(4).configs().unwrap();
        assert_eq!(cfgs.len(), 4);
        assert_eq!(cfgs[0].message_flits, 32);
    }

    #[test]
    fn geometry_grid_is_the_paper_grid() {
        let grid = geometry_grid(&[32, 64], &[256.0, 512.0]);
        assert_eq!(grid.len(), 4);
        assert!(grid.contains(&(32, 256.0)));
        assert!(grid.contains(&(64, 512.0)));
    }

    #[test]
    fn materializer_keeps_geometry_and_pattern() {
        let template = TrafficConfig::uniform(64, 512.0, 1e-4)
            .unwrap()
            .with_pattern(crate::TrafficPattern::LocalFavoring { locality: 0.5 })
            .unwrap();
        let configs = materialize_rates(&template, &[1e-4, 2e-4, 3e-4]).unwrap();
        assert_eq!(configs.len(), 3);
        assert!(configs.iter().all(|c| c.message_flits == 64 && c.pattern == template.pattern));
        assert_eq!(configs[2].generation_rate, 3e-4);
        // Invalid rates surface as errors, not panics.
        assert!(materialize_rates(&template, &[f64::NAN]).is_err());
    }

    #[test]
    fn invalid_sweeps_rejected() {
        assert!(TrafficSweep::new(0.0, 1e-4, 10).is_err());
        assert!(TrafficSweep::new(1e-4, 1e-5, 10).is_err());
        assert!(TrafficSweep::new(1e-5, 1e-4, 1).is_err());
        assert!(TrafficSweep::up_to(0.0, 10).is_err());
        assert!(TrafficSweep::up_to(1e-4, 1).is_err());
    }
}
