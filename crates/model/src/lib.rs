//! # mcnet-model
//!
//! The analytical mean-message-latency models of this workspace: the
//! **heterogeneous multi-cluster tree model** — the primary contribution of
//! Javadi, Abawajy, Akbari and Nahavandi, *"Analysis of Interconnection
//! Networks in Heterogeneous Multi-Cluster Systems"*, ICPP Workshops 2006
//! (Section 3, Eqs. (1)–(36)) — and a **k-ary n-cube (torus) model** in the
//! same M/G/1 lineage ([`torus`]), both behind one fabric-facing surface
//! ([`ModelBackend`]) that mirrors the simulator's backend abstraction.
//!
//! Given a [`mcnet_system::MultiClusterSystem`] (cluster sizes, network arity, network
//! technology) and a [`mcnet_system::TrafficConfig`] (message length `M`, flit size
//! `L_m`, per-node generation rate `λ_g`), the model predicts the steady-state mean
//! message latency seen by a message — from its generation at the source node until
//! its tail flit reaches the destination — separately for intra-cluster traffic (via
//! ICN1) and inter-cluster traffic (via ECN1 + ICN2 + the concentrators/dispatchers),
//! and combines them into the system-wide average of Eq. (36).
//!
//! ## Model structure (tree backend)
//!
//! ```text
//!            ┌ hop-count distribution  P_{j,n}          (Eq. 4,  crate mcnet-topology)
//!            ├ channel message rates   λ, η             (Eqs. 5–13,  [`rates`])
//!  inputs ──►├ stage service times     S_k              (Eqs. 14–18, 28–29, [`service`])
//!            ├ source-queue waiting    W                (Eqs. 19–23, 30, [`source_queue`])
//!            ├ tail-flit time          R                (Eqs. 24, 32, [`tail`])
//!            ├ concentrator waiting    W_d              (Eqs. 33–34, [`concentrator`])
//!            └ composition             T, ℓ             (Eqs. 25, 31, 35–36, [`multicluster`])
//! ```
//!
//! The torus backend runs the same stage-recursion / source-queue / tail
//! pipeline over k-ary n-cube geometry with exact per-channel (node ×
//! dimension × direction × dateline-VC) loads; see [`torus`] for its
//! assumptions and equations.
//!
//! ## Non-uniform destinations
//!
//! Both backends evaluate [`mcnet_system::TrafficPattern::Hotspot`]
//! analytically: the tree model redistributes traffic between clusters through
//! a destination-mix matrix in [`rates`] (generalizing Eqs. 5–13 and the
//! Eqs. 31/34 destination averages), the torus model adds the enumerated
//! per-channel loads of every `source → hotspot` route. The tree model
//! additionally accepts [`mcnet_system::TrafficPattern::LocalFavoring`];
//! sub-ring local-favoring on the torus stays simulator-only.
//!
//! ## Faithfulness and documented interpretation choices
//!
//! Two places in the published model are ambiguous or inconsistent with the published
//! figures; [`ModelOptions`] exposes both choices so their effect can be measured (see
//! the ablation benchmarks) rather than silently baked in:
//!
//! * **Hop distribution** (Eq. 4): the published formula slightly over-weights short
//!   distances compared with an exact enumeration of the constructed m-port n-tree
//!   ([`mcnet_topology::distance::HopModel`]). Default: the paper's formula.
//! * **Source-queue arrival rate** (Eqs. 19–20 and 30): read literally, the source
//!   queue of a single injection channel would receive the *cluster-aggregate* message
//!   rate, which saturates far below the load range of the paper's own figures. The
//!   physically consistent reading — each node's injection channel receives that
//!   node's own rate — reproduces the published curves and is the default
//!   ([`SourceQueueRate::PerNode`]); the literal reading is available as
//!   [`SourceQueueRate::ClusterAggregate`].
//!
//! ## Example
//!
//! ```
//! use mcnet_model::AnalyticalModel;
//! use mcnet_system::{organizations, TrafficConfig};
//!
//! let system = organizations::table1_org_b();                 // N = 544, m = 4
//! let traffic = TrafficConfig::uniform(32, 256.0, 1.0e-4).unwrap();
//! let model = AnalyticalModel::new(&system, &traffic).unwrap();
//! let report = model.evaluate().unwrap();
//! assert!(report.total_latency > 0.0);
//! assert!(report.is_steady_state());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod concentrator;
pub mod inter;
pub mod intra;
pub mod multicluster;
pub mod options;
pub mod processor_heterogeneity;
pub mod rates;
pub mod service;
pub mod source_queue;
pub mod tail;
pub mod torus;

pub use backend::{ModelBackend, ModelDetail, ModelReport};
pub use multicluster::{AnalyticalModel, ClusterLatency, LatencyReport};
pub use options::{ModelOptions, SourceQueueRate, TorusRouting};
pub use torus::{TorusLatencyReport, TorusModel};

/// Errors produced while evaluating the analytical model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A queue of the model saturated (utilisation ≥ 1); the steady-state latency does
    /// not exist at the requested load.
    Saturated {
        /// Which component saturated.
        component: SaturatedComponent,
        /// The utilisation that triggered the error.
        utilization: f64,
        /// The cluster the component belongs to (source side), if applicable.
        cluster: Option<usize>,
    },
    /// The underlying system or traffic description was invalid.
    InvalidConfiguration {
        /// Human-readable description of the problem.
        reason: String,
    },
}

/// The component of the model whose queue saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturatedComponent {
    /// The source queue feeding the intra-cluster network (ICN1).
    IntraSourceQueue,
    /// The source queue feeding the inter-cluster networks (ECN1 + ICN2).
    InterSourceQueue,
    /// A concentrator/dispatcher buffer between ECN1 and ICN2.
    Concentrator,
    /// A network channel (stage utilisation reached 1 in the service-time recursion).
    Channel,
    /// The injection channel of a direct-network fabric (the torus model's single
    /// source queue per node).
    InjectionQueue,
}

impl std::fmt::Display for SaturatedComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SaturatedComponent::IntraSourceQueue => "intra-cluster source queue",
            SaturatedComponent::InterSourceQueue => "inter-cluster source queue",
            SaturatedComponent::Concentrator => "concentrator/dispatcher",
            SaturatedComponent::Channel => "network channel",
            SaturatedComponent::InjectionQueue => "injection source queue",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Saturated { component, utilization, cluster } => {
                write!(f, "{component} saturated (utilisation {utilization:.3}")?;
                if let Some(c) = cluster {
                    write!(f, ", cluster {c}")?;
                }
                write!(f, ")")
            }
            ModelError::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

impl From<mcnet_system::SystemError> for ModelError {
    fn from(e: mcnet_system::SystemError) -> Self {
        ModelError::InvalidConfiguration { reason: e.to_string() }
    }
}

impl From<mcnet_topology::TopologyError> for ModelError {
    fn from(e: mcnet_topology::TopologyError) -> Self {
        ModelError::InvalidConfiguration { reason: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ModelError::Saturated {
            component: SaturatedComponent::Concentrator,
            utilization: 1.2,
            cluster: Some(3),
        };
        assert!(e.to_string().contains("concentrator"));
        assert!(e.to_string().contains("cluster 3"));
        let e = ModelError::Saturated {
            component: SaturatedComponent::Channel,
            utilization: 1.0,
            cluster: None,
        };
        assert!(!e.to_string().contains("cluster"));
        let e = ModelError::InvalidConfiguration { reason: "bad".into() };
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn error_conversions() {
        let se = mcnet_system::SystemError::TooFewClusters { clusters: 1 };
        let me: ModelError = se.into();
        assert!(matches!(me, ModelError::InvalidConfiguration { .. }));
        let te = mcnet_topology::TopologyError::InvalidLevelCount { n: 0 };
        let me: ModelError = te.into();
        assert!(matches!(me, ModelError::InvalidConfiguration { .. }));
    }
}
