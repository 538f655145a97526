//! Network-technology parameters and per-hop channel service times.
//!
//! Following the paper's Section 3.1.2, every network (ICN1, ECN1 and ICN2) is
//! characterised by four technology constants:
//!
//! * `α_net` — network (link/NIC) latency of a node↔switch connection,
//! * `α_sw`  — switch latency of a switch↔switch connection,
//! * `β_net` — transmission time of one byte (the inverse of the link bandwidth),
//! * `L_m`   — the size of one flit in bytes.
//!
//! From these, the two per-flit channel service times are (Eqs. 14–15):
//!
//! ```text
//! t_cn = α_net + ½·L_m·β_net      node ↔ switch connection
//! t_cs = α_sw  +   L_m·β_net      switch ↔ switch connection
//! ```
//!
//! The paper's validation uses a bandwidth of 500 bytes per time unit, `α_net = 0.02`
//! and `α_sw = 0.01` time units, with flit sizes `L_m ∈ {256, 512}` bytes; those values
//! are provided by [`NetworkTechnology::paper_default`].

use crate::{Result, SystemError};
use serde::{Deserialize, Serialize};

/// Technology constants of an interconnection network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkTechnology {
    /// Network (node↔switch) latency, `α_net`, in time units.
    pub alpha_net: f64,
    /// Switch (switch↔switch) latency, `α_sw`, in time units.
    pub alpha_sw: f64,
    /// Per-byte transmission time, `β_net = 1 / bandwidth`, in time units per byte.
    pub beta_net: f64,
}

impl NetworkTechnology {
    /// Creates a technology descriptor, validating every parameter.
    pub fn new(alpha_net: f64, alpha_sw: f64, beta_net: f64) -> Result<Self> {
        check("alpha_net", alpha_net)?;
        check("alpha_sw", alpha_sw)?;
        check("beta_net", beta_net)?;
        Ok(NetworkTechnology { alpha_net, alpha_sw, beta_net })
    }

    /// The parameters used throughout the paper's validation section: bandwidth
    /// 500 bytes/time-unit, `α_net = 0.02`, `α_sw = 0.01`.
    pub fn paper_default() -> Self {
        NetworkTechnology { alpha_net: 0.02, alpha_sw: 0.01, beta_net: 1.0 / 500.0 }
    }

    /// Per-flit service time of a node↔switch channel, `t_cn = α_net + ½·L_m·β_net`
    /// (paper Eq. 14).
    pub fn node_channel_time(&self, flit_bytes: f64) -> f64 {
        self.alpha_net + 0.5 * flit_bytes * self.beta_net
    }

    /// Per-flit service time of a switch↔switch channel, `t_cs = α_sw + L_m·β_net`
    /// (paper Eq. 15).
    pub fn switch_channel_time(&self, flit_bytes: f64) -> f64 {
        self.alpha_sw + flit_bytes * self.beta_net
    }

    /// Link bandwidth in bytes per time unit.
    pub fn bandwidth(&self) -> f64 {
        1.0 / self.beta_net
    }
}

impl Default for NetworkTechnology {
    fn default() -> Self {
        Self::paper_default()
    }
}

fn check(name: &'static str, value: f64) -> Result<()> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(SystemError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let t = NetworkTechnology::paper_default();
        assert_eq!(t.alpha_net, 0.02);
        assert_eq!(t.alpha_sw, 0.01);
        assert!((t.bandwidth() - 500.0).abs() < 1e-9);
        // L_m = 256 bytes: t_cn = 0.02 + 0.5*256/500 = 0.276, t_cs = 0.01 + 256/500 = 0.522.
        assert!((t.node_channel_time(256.0) - 0.276).abs() < 1e-12);
        assert!((t.switch_channel_time(256.0) - 0.522).abs() < 1e-12);
        // L_m = 512 bytes: t_cn = 0.532, t_cs = 1.034.
        assert!((t.node_channel_time(512.0) - 0.532).abs() < 1e-12);
        assert!((t.switch_channel_time(512.0) - 1.034).abs() < 1e-12);
    }

    #[test]
    fn default_trait_is_paper_default() {
        assert_eq!(NetworkTechnology::default(), NetworkTechnology::paper_default());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(NetworkTechnology::new(-0.1, 0.01, 0.002).is_err());
        assert!(NetworkTechnology::new(0.02, f64::NAN, 0.002).is_err());
        assert!(NetworkTechnology::new(0.02, 0.01, -1.0).is_err());
    }

    #[test]
    fn switch_hops_are_slower_than_node_hops_for_large_flits() {
        // With the paper's constants, t_cs > t_cn whenever L_m·β_net/2 > α_net − α_sw,
        // which holds for both flit sizes used in the evaluation.
        let t = NetworkTechnology::paper_default();
        assert!(t.switch_channel_time(256.0) > t.node_channel_time(256.0));
        assert!(t.switch_channel_time(512.0) > t.node_channel_time(512.0));
    }
}
