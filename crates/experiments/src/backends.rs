//! Tree-vs-torus backend comparison: the same wormhole engine, the same
//! measurement protocol and the same replication machinery over two fabric
//! families.
//!
//! The paper models an indirect multi-cluster fat-tree fabric; its analytical
//! lineage (refs \[6\]–\[9\]) models k-ary n-cubes. With both fabrics behind
//! `mcnet_sim`'s [`FabricBackend`] abstraction, this
//! module sweeps a shared load range over a **matched pair** — a tree system
//! and a torus with equal node counts — and reports the replicated mean latency
//! of each backend side by side. Both backends are one [`Scenario`] each,
//! swept through [`Scenario::sweep_replicated`]: every point replicates over
//! the same bounded-worker-pool path, so the comparison inherits the
//! deterministic seed/aggregation contract of the rest of the harness.

use crate::{EvaluationEffort, Result};
use mcnet_sim::{FabricBackend, ReplicatedReport, Scenario, SimError};
use mcnet_system::{organizations, MultiClusterSystem, TorusSystem, TrafficConfig};
use serde::{Deserialize, Serialize};

/// One load point of the comparison. A `None` latency means the backend's
/// replications exhausted the event budget at this rate (deep saturation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendPoint {
    /// Per-node generation rate `λ_g`.
    pub rate: f64,
    /// Replicated mean latency on the tree fabric.
    pub tree_latency: Option<f64>,
    /// 95% CI half-width over the tree replication means.
    pub tree_halfwidth: Option<f64>,
    /// Replicated mean latency on the torus fabric.
    pub torus_latency: Option<f64>,
    /// 95% CI half-width over the torus replication means.
    pub torus_halfwidth: Option<f64>,
}

/// The full comparison: matched systems, channel populations and the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendComparison {
    /// Tree system summary (`N=…, C=…, m=…, n_c=…`).
    pub tree_summary: String,
    /// Torus summary (`torus k=…, n=…, N=…`).
    pub torus_summary: String,
    /// Node count shared by both systems.
    pub nodes: usize,
    /// Channel population of the tree fabric (all networks + bridges).
    pub tree_channels: usize,
    /// Channel population of the torus fabric (links × VCs + injection/ejection).
    pub torus_channels: usize,
    /// Replications per point and backend.
    pub replications: usize,
    /// The sweep.
    pub points: Vec<BackendPoint>,
}

/// A matched `(tree, torus)` pair at 16 nodes: two 8-node clusters of 4-port
/// 2-level trees against a 4-ary 2-cube. Small enough for CI, large enough for
/// both backends to show contention before saturation.
fn matched_pair() -> Result<(MultiClusterSystem, TorusSystem)> {
    let tree = organizations::homogeneous(2, 4, 2)?;
    let torus = TorusSystem::new(4, 2)?;
    debug_assert_eq!(tree.total_nodes(), torus.total_nodes());
    Ok((tree, torus))
}

/// Sweeps a shared load range over both backends of a matched pair, running
/// `replications` seeds per point and backend through the bounded worker pool.
pub fn tree_vs_torus(
    tree: &MultiClusterSystem,
    torus: &TorusSystem,
    effort: EvaluationEffort,
    replications: usize,
    seed: u64,
) -> Result<BackendComparison> {
    if tree.total_nodes() != torus.total_nodes() {
        return Err(crate::ExperimentError::InvalidExperiment(format!(
            "backend comparison requires matched node counts, got {} (tree) vs {} (torus)",
            tree.total_nodes(),
            torus.total_nodes()
        )));
    }
    // A load range that keeps the 16-node matched pair clearly unsaturated at
    // the low end and visibly contended at the high end, for M = 16, Lm = 256.
    let (message_flits, flit_bytes) = (16usize, 256.0);
    let (lo, hi) = (2e-4, 2e-3);
    let n_points = effort.sweep_points();
    let config = effort.sim_config(seed);
    let rates: Vec<f64> = (0..n_points)
        .map(|i| {
            let frac = if n_points == 1 { 1.0 } else { i as f64 / (n_points - 1) as f64 };
            lo + frac * (hi - lo)
        })
        .collect();

    // One declarative scenario per backend, swept over the shared rate grid.
    // `sweep_replicated` runs the points sequentially on purpose: each
    // replication set already fans over the bounded worker pool, so an outer
    // parallel layer would multiply thread counts up to workers².
    let base_traffic = TrafficConfig::uniform(message_flits, flit_bytes, lo)?;
    let tree_outcomes = Scenario::builder()
        .tree(tree.clone())
        .traffic(base_traffic)
        .config(config)
        .build()?
        .sweep_replicated(&rates, replications)?;
    let torus_outcomes = Scenario::builder()
        .torus(torus.clone())
        .traffic(base_traffic)
        .config(config)
        .build()?
        .sweep_replicated(&rates, replications)?;

    let mut points = Vec::with_capacity(n_points);
    for ((rate, tree_outcome), torus_outcome) in rates.iter().zip(tree_outcomes).zip(torus_outcomes)
    {
        let tree_agg = saturation_as_missing(tree_outcome)?;
        let torus_agg = saturation_as_missing(torus_outcome)?;
        points.push(BackendPoint {
            rate: *rate,
            tree_latency: tree_agg.as_ref().map(|a| a.mean_latency),
            tree_halfwidth: tree_agg.as_ref().and_then(|a| a.halfwidth_95),
            torus_latency: torus_agg.as_ref().map(|a| a.mean_latency),
            torus_halfwidth: torus_agg.as_ref().and_then(|a| a.halfwidth_95),
        });
    }

    // Channel populations, for the matched-resources context of the report.
    let probe = base_traffic;
    let tree_channels = FabricBackend::tree(tree, &probe)?.num_channels();
    let torus_channels = FabricBackend::cube(torus, &probe)?.num_channels();

    Ok(BackendComparison {
        tree_summary: tree.summary(),
        torus_summary: torus.summary(),
        nodes: tree.total_nodes(),
        tree_channels,
        torus_channels,
        replications,
        points,
    })
}

/// Treats a deep-saturation outcome (exhausted event budget) as a missing
/// point; every other error fails the comparison.
fn saturation_as_missing(
    outcome: std::result::Result<ReplicatedReport, SimError>,
) -> Result<Option<ReplicatedReport>> {
    match outcome {
        Ok(agg) => Ok(Some(agg)),
        Err(SimError::EventBudgetExhausted { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The default comparison over the matched 16-node pair: two 8-node clusters
/// of 4-port 2-level trees against a 4-ary 2-cube.
pub fn matched_tree_vs_torus(
    effort: EvaluationEffort,
    replications: usize,
    seed: u64,
) -> Result<BackendComparison> {
    let (tree, torus) = matched_pair()?;
    tree_vs_torus(&tree, &torus, effort, replications, seed)
}

/// Renders the comparison as a markdown table.
pub fn comparison_to_markdown(cmp: &BackendComparison) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "### Tree vs torus at N={} ({} replications/point)\n\n*Tree: {} ({} channels) — \
         Torus: {} ({} channels)*\n\n",
        cmp.nodes,
        cmp.replications,
        cmp.tree_summary,
        cmp.tree_channels,
        cmp.torus_summary,
        cmp.torus_channels
    );
    out.push_str("| λ_g | tree latency | ±95% | torus latency | ±95% |\n|---|---|---|---|---|\n");
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "—".to_string(),
    };
    for p in &cmp.points {
        let _ = writeln!(
            out,
            "| {:.2e} | {} | {} | {} | {} |",
            p.rate,
            fmt(p.tree_latency),
            fmt(p.tree_halfwidth),
            fmt(p.torus_latency),
            fmt(p.torus_halfwidth)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_pair_has_equal_node_counts() {
        let (tree, torus) = matched_pair().unwrap();
        assert_eq!(tree.total_nodes(), 16);
        assert_eq!(torus.total_nodes(), 16);
    }

    #[test]
    fn mismatched_node_counts_are_rejected() {
        let (tree, _) = matched_pair().unwrap();
        let torus = TorusSystem::new(3, 2).unwrap(); // 9 nodes
        assert!(tree_vs_torus(&tree, &torus, EvaluationEffort::Quick, 1, 1).is_err());
    }

    #[test]
    fn comparison_sweep_produces_both_backends() {
        let cmp = matched_tree_vs_torus(EvaluationEffort::Quick, 2, 7).unwrap();
        assert_eq!(cmp.points.len(), EvaluationEffort::Quick.sweep_points());
        assert_eq!(cmp.nodes, 16);
        assert!(cmp.tree_channels > 0 && cmp.torus_channels > 0);
        for p in &cmp.points {
            let tree = p.tree_latency.expect("matched pair must not saturate in this range");
            let torus = p.torus_latency.expect("matched pair must not saturate in this range");
            assert!(tree > 0.0 && torus > 0.0);
            // Two replications give a CI on both backends.
            assert!(p.tree_halfwidth.is_some());
            assert!(p.torus_halfwidth.is_some());
        }
        // Latency grows with load on both fabrics.
        let first = cmp.points.first().unwrap();
        let last = cmp.points.last().unwrap();
        assert!(last.tree_latency.unwrap() > first.tree_latency.unwrap());
        assert!(last.torus_latency.unwrap() > first.torus_latency.unwrap());

        let md = comparison_to_markdown(&cmp);
        assert!(md.contains("Tree vs torus"));
        assert!(md.contains("torus k=4"));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = matched_tree_vs_torus(EvaluationEffort::Quick, 1, 42).unwrap();
        let b = matched_tree_vs_torus(EvaluationEffort::Quick, 1, 42).unwrap();
        assert_eq!(a, b);
    }
}
