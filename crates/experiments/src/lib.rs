//! # mcnet-experiments
//!
//! The evaluation harness: for every table and figure of the paper's validation section
//! (and for the additional studies in the table below), this crate builds the
//! workload, runs both the analytical model (`mcnet-model`) and the discrete-event
//! simulator (`mcnet-sim`), and renders the result as JSON and markdown.
//!
//! | artifact | builder | binary |
//! |----------|---------|--------|
//! | Table 1 (system organizations) | [`table1::table1_summary`] | `table1` |
//! | Fig. 3 (N=1120, m=8, M∈{32,64}, L_m∈{256,512}) | [`figures::figure3_replicated`] | `figures` |
//! | Fig. 4 (N=544, m=4, M∈{32,64}, L_m∈{256,512}) | [`figures::figure4_replicated`] | `figures` |
//! | Accuracy claim (model vs simulation error) | [`comparison::accuracy_report`] | `figures` |
//! | Ablation A1: heterogeneity vs homogeneous | [`ablations::heterogeneity_ablation`] | `ablation_heterogeneity` |
//! | Backend comparison (tree vs k-ary n-cube) | [`backends::tree_vs_torus`] | `backend_compare` |
//! | Any serialized scenario spec (`specs/*.json`) | [`mcnet_sim::ScenarioSpec`] | `scenario` |
//! | Spec-driven model-vs-sim validation (tree/torus × uniform/hot-spot) | [`comparison::validate_spec`] | `model_vs_sim` |
//!
//! All builders accept an [`EvaluationEffort`] so the same code path serves quick CI
//! runs, the Criterion benches and full paper-protocol reproductions. Simulation
//! entry points route through the declarative [`mcnet_sim::Scenario`] layer; the
//! `scenario` bin executes any spec file and prints its report as JSON.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod backends;
pub mod campaign;
pub mod comparison;
pub mod figures;
pub mod report;
pub mod table1;

pub use figures::{FigurePanel, FigureSeries, SeriesPoint};

use mcnet_sim::SimConfig;

/// How much work to spend on an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationEffort {
    /// A handful of sweep points and a small simulation protocol — for tests and CI.
    Quick,
    /// The default for interactive use: enough points to see the curve shape, a
    /// reduced (1k/10k/1k) simulation protocol.
    Standard,
    /// The paper's protocol: 10 sweep points, 10k/100k/10k messages per simulation.
    Paper,
}

impl EvaluationEffort {
    /// Number of traffic points per curve.
    pub fn sweep_points(self) -> usize {
        match self {
            EvaluationEffort::Quick => 4,
            EvaluationEffort::Standard => 8,
            EvaluationEffort::Paper => 10,
        }
    }

    /// The simulation protocol to use.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            EvaluationEffort::Quick => SimConfig::quick(seed),
            EvaluationEffort::Standard => SimConfig::reduced(seed),
            EvaluationEffort::Paper => SimConfig::paper(seed),
        }
    }
}

/// Errors produced by the harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// An underlying model evaluation failed for a reason other than saturation.
    Model(String),
    /// An underlying simulation failed.
    Simulation(String),
    /// The experiment definition itself was invalid.
    InvalidExperiment(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Model(e) => write!(f, "model evaluation failed: {e}"),
            ExperimentError::Simulation(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::InvalidExperiment(e) => write!(f, "invalid experiment: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExperimentError>;

impl From<mcnet_model::ModelError> for ExperimentError {
    fn from(e: mcnet_model::ModelError) -> Self {
        ExperimentError::Model(e.to_string())
    }
}

impl From<mcnet_sim::SimError> for ExperimentError {
    fn from(e: mcnet_sim::SimError) -> Self {
        ExperimentError::Simulation(e.to_string())
    }
}

impl From<mcnet_system::SystemError> for ExperimentError {
    fn from(e: mcnet_system::SystemError) -> Self {
        ExperimentError::InvalidExperiment(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_presets() {
        assert!(EvaluationEffort::Quick.sweep_points() < EvaluationEffort::Paper.sweep_points());
        assert_eq!(EvaluationEffort::Paper.sim_config(1).measured_messages, 100_000);
        assert_eq!(EvaluationEffort::Quick.sim_config(1).measured_messages, 2_000);
        assert_eq!(EvaluationEffort::Standard.sim_config(1).measured_messages, 10_000);
    }

    #[test]
    fn error_display_and_conversion() {
        let e: ExperimentError = mcnet_system::SystemError::TooFewClusters { clusters: 1 }.into();
        assert!(e.to_string().contains("invalid experiment"));
        let e: ExperimentError =
            mcnet_sim::SimError::InvalidConfiguration { reason: "x".into() }.into();
        assert!(e.to_string().contains("simulation failed"));
        let e: ExperimentError =
            mcnet_model::ModelError::InvalidConfiguration { reason: "y".into() }.into();
        assert!(e.to_string().contains("model evaluation failed"));
    }
}
