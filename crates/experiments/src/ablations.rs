//! Ablation studies (DESIGN.md A1–A3).
//!
//! These are not figures of the paper; they quantify design decisions the paper makes
//! implicitly:
//!
//! * **A1 — heterogeneity**: how much does cluster-size heterogeneity change the
//!   latency curve compared with a homogeneous system of (approximately) the same total
//!   size? This is the gap the heterogeneity-aware model exists to capture.
//! * **A2 — variance approximation**: the effect of the Draper–Ghosh service-time
//!   variance term (Eq. 22) on the predicted latency.
//! * **A3 — evaluation cost**: wall-clock cost of one model evaluation vs one
//!   simulation run — the reason analytical models are used for design-space
//!   exploration at all.

use crate::figures::analysis_curve;
use crate::{EvaluationEffort, Result};
use mcnet_model::{AnalyticalModel, ModelOptions};
use mcnet_sim::Scenario;
use mcnet_system::{organizations, MultiClusterSystem, TrafficConfig};
use std::time::Instant;

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

/// Result of the variance-approximation ablation (A2) at one traffic point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceAblation {
    /// Generation rate.
    pub rate: f64,
    /// Latency with the Draper–Ghosh variance term (the paper's model).
    pub with_variance: f64,
    /// Latency with deterministic (zero-variance) source-queue service.
    pub without_variance: f64,
}

/// Runs ablation A2 at one traffic point.
pub fn variance_ablation(
    system: &MultiClusterSystem,
    traffic: &TrafficConfig,
) -> Result<VarianceAblation> {
    let with = AnalyticalModel::with_options(system, traffic, ModelOptions::default())?
        .evaluate()?
        .total_latency;
    let without =
        AnalyticalModel::with_options(system, traffic, ModelOptions::default().without_variance())?
            .evaluate()?
            .total_latency;
    Ok(VarianceAblation {
        rate: traffic.generation_rate,
        with_variance: with,
        without_variance: without,
    })
}

/// Result of the cost comparison (A3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// Wall-clock seconds for one analytical evaluation.
    pub model_seconds: f64,
    /// Wall-clock seconds for one simulation run at the given effort.
    pub simulation_seconds: f64,
    /// Ratio simulation / model.
    pub speedup: f64,
}

/// Measures the wall-clock cost of one model evaluation vs one simulation run (A3).
pub fn cost_comparison(
    system: &MultiClusterSystem,
    traffic: &TrafficConfig,
    effort: EvaluationEffort,
) -> Result<CostComparison> {
    let t0 = Instant::now();
    let _ = AnalyticalModel::new(system, traffic)?.evaluate()?;
    let model_seconds = t0.elapsed().as_secs_f64();

    // Scenario assembly (a system clone) happens outside the timed window so
    // the measured cost stays one simulation run, as before.
    let scenario = Scenario::builder()
        .tree(system.clone())
        .traffic(*traffic)
        .config(effort.sim_config(1))
        .build()?;
    let t1 = Instant::now();
    let _ = scenario.run()?;
    let simulation_seconds = t1.elapsed().as_secs_f64();

    Ok(CostComparison {
        model_seconds,
        simulation_seconds,
        speedup: if model_seconds > 0.0 {
            simulation_seconds / model_seconds
        } else {
            f64::INFINITY
        },
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

    #[test]
    fn variance_ablation_orders_correctly() {
        let system = organizations::table1_org_b();
        let traffic = TrafficConfig::uniform(32, 256.0, 4e-4).unwrap();
        let ab = variance_ablation(&system, &traffic).unwrap();
        assert!(ab.with_variance > ab.without_variance, "the variance term adds waiting time");
    }

    #[test]
    fn cost_comparison_shows_model_is_cheaper() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        let c = cost_comparison(&system, &traffic, EvaluationEffort::Quick).unwrap();
        assert!(c.model_seconds >= 0.0);
        assert!(c.simulation_seconds > 0.0);
        assert!(c.speedup > 1.0, "the analytical model must be cheaper than simulation");
    }
}
