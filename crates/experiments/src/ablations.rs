//! Ablation A1: what cluster-size heterogeneity changes.
//!
//! Not a figure of the paper: it quantifies the design decision the paper makes
//! implicitly, by asking how much cluster-size heterogeneity changes the latency curve
//! compared with a homogeneous system of (approximately) the same total size. That gap
//! is what the heterogeneity-aware model exists to capture. The `ablation_heterogeneity`
//! bin prints it.

use crate::figures::analysis_curve;
use crate::Result;
use mcnet_system::{organizations, MultiClusterSystem, TrafficConfig};

/// One row of the heterogeneity ablation (A1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneityPoint {
    /// Generation rate.
    pub rate: f64,
    /// Latency of the heterogeneous organization (`None` when saturated).
    pub heterogeneous: Option<f64>,
    /// Latency of the homogeneous equivalent (`None` when saturated).
    pub homogeneous: Option<f64>,
}

/// Result of the heterogeneity ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityAblation {
    /// Summary of the heterogeneous system.
    pub heterogeneous_system: String,
    /// Summary of the homogeneous equivalent.
    pub homogeneous_system: String,
    /// Sweep points.
    pub points: Vec<HeterogeneityPoint>,
}

/// Runs ablation A1 on the given heterogeneous system: compares its analytical latency
/// curve with the homogeneous equivalent (same cluster count, same ports, cluster size
/// closest to the average).
pub fn heterogeneity_ablation(
    system: &MultiClusterSystem,
    message_flits: usize,
    flit_bytes: f64,
    max_rate: f64,
    points: usize,
) -> Result<HeterogeneityAblation> {
    let homogeneous = organizations::homogeneous_equivalent(system)?;
    let rates: Vec<f64> = (1..=points).map(|i| max_rate * i as f64 / points as f64).collect();
    let template = TrafficConfig::uniform(message_flits, flit_bytes, max_rate)
        .map_err(mcnet_model::ModelError::from)?;
    let heterogeneous = analysis_curve(system, &template, &rates)?;
    let homogeneous_curve = analysis_curve(&homogeneous, &template, &rates)?;
    let rows = rates
        .into_iter()
        .zip(heterogeneous.into_iter().zip(homogeneous_curve))
        .map(|(rate, (heterogeneous, homogeneous))| HeterogeneityPoint {
            rate,
            heterogeneous,
            homogeneous,
        })
        .collect();
    Ok(HeterogeneityAblation {
        heterogeneous_system: system.summary(),
        homogeneous_system: homogeneous.summary(),
        points: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneity_ablation_produces_both_curves() {
        let system = organizations::table1_org_b();
        let ab = heterogeneity_ablation(&system, 32, 256.0, 6e-4, 4).unwrap();
        assert_eq!(ab.points.len(), 4);
        assert!(ab.points[0].heterogeneous.is_some());
        assert!(ab.points[0].homogeneous.is_some());
        assert!(ab.heterogeneous_system.contains("N=544"));
        // The curves differ: that difference is what the heterogeneous model captures.
        let h = ab.points[0].heterogeneous.unwrap();
        let o = ab.points[0].homogeneous.unwrap();
        assert!((h - o).abs() > 1e-9);
    }
}
