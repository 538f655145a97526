//! # mcnet-sim
//!
//! A flit-level-granularity **discrete-event wormhole simulator** for heterogeneous
//! multi-cluster systems — the validation vehicle of Javadi et al. (ICPP Workshops
//! 2006, Section 4). The paper validates its analytical latency model against "a
//! simulator that uses the same assumptions as the analysis"; that simulator is not
//! published, so this crate rebuilds it from the stated assumptions.
//!
//! ## What is simulated
//!
//! The full system of the paper's Fig. 1–2 is materialised: per cluster an ICN1 and an
//! ECN1 m-port n-tree (explicit switches and unidirectional channels, from
//! `mcnet-topology`), a global ICN2 m-port n_c-tree whose node slots host the per-cluster
//! concentrator/dispatcher units, Poisson message generation at every node, uniform (or
//! optionally hot-spot / cluster-local) destination selection, deterministic NCA
//! routing and wormhole flow control with single-flit channel buffers.
//!
//! ## Fabric backends
//!
//! The engine itself is network-agnostic: everything it needs from the fabric —
//! a dense global channel-id space with per-flit times, itinerary construction
//! (composed per message by [`routes::RouteTable`]) and a coarse
//! node partition for the intra/inter latency split — is captured by
//! [`backend::FabricBackend`]. Two backends implement that surface:
//!
//! * the **tree backend** ([`fabric::Fabric`]) — the paper's multi-cluster
//!   m-port n-tree fabric described above, and
//! * the **cube backend** ([`cube::CubeFabric`]) — a k-ary n-cube (torus) with
//!   dimension-order routing and Dally–Seitz dateline virtual channels, the
//!   direct-network family of the paper's analytical lineage (its refs \[6\]–\[9\]).
//!
//! Both backends are driven through one declarative entry point: a
//! [`scenario::Scenario`] composes a fabric ([`scenario::Fabric::Tree`] or
//! [`scenario::Fabric::Torus`]), a traffic configuration, a measurement
//! protocol and a replication plan, and exposes `run()`, `replicate(n)` and
//! `sweep_outcomes(&rates)` — plus the **analytical evaluation mode**
//! [`scenario::Scenario::evaluate`], which sends the same fabric (the fabric
//! type *is* `mcnet-model`'s `ModelBackend`) and traffic point through the
//! analytical model instead of the discrete-event engine, so one scenario (or serialized spec) drives model
//! *or* simulation. Scenarios are serializable as plain-data
//! [`scenario::ScenarioSpec`] JSON files (see `specs/` at the workspace root).
//! The historical per-backend `runner::run_*` functions are gone; the scenario
//! layer's outputs are pinned bit-for-bit against frozen golden digests in
//! `tests/scenario_api.rs` instead.
//!
//! ## Routing policies
//!
//! Itinerary selection is governed by [`policy::RoutingPolicy`]: the default
//! deterministic tables (NCA tree routing / dimension-order torus routing),
//! the minimal-adaptive torus policy with a Duato-style dateline escape class
//! ([`policy::RoutingPolicy::AdaptiveTorus`]), or randomized legal up\*/down\*
//! tree paths ([`policy::RoutingPolicy::RandomizedUpDown`]). Policies thread
//! through the builder (`ScenarioBuilder::routing`) and the spec's `"routing"`
//! key; deterministic runs are bit-identical to the pre-policy engine.
//!
//! ## Wormhole model
//!
//! Messages are simulated at *worm* granularity: the header acquires the channels of
//! its path one by one (waiting in FIFO order when a channel is held by another worm,
//! while keeping every channel it has already acquired — the tree-saturation behaviour
//! that produces latency blow-up near saturation), and once the header is delivered the
//! remaining `M − 1` flits drain at the slowest channel rate of the path, after which
//! all held channels are released. The injection channel of a node therefore stays busy
//! for the entire network latency of the message, which makes the node's source queue
//! exactly the M/G/1 station the analytical model assumes.
//!
//! Inter-cluster messages traverse three wormhole segments (ECN1 ascent, ICN2, ECN1
//! descent) separated by the concentrator and dispatcher buffers, each modelled as a
//! single-server FIFO whose service time is one message transfer (`M·t_cs`), with
//! cut-through forwarding (the message proceeds as soon as it reaches the head of the
//! queue, mirroring the paper's Eq. 33 which charges only the *waiting* time).
//!
//! ## Methodology
//!
//! [`SimConfig`] reproduces the paper's measurement protocol: a warm-up phase
//! (messages not counted), a measurement phase and a drain phase, with totals of
//! 10,000 / 100,000 / 10,000 messages in the paper. Parallel replications with
//! independent seeds run on worker threads via [`scenario::Scenario::replicate`].
//!
//! ```
//! use mcnet_sim::{Scenario, SimConfig};
//! use mcnet_system::{organizations, TrafficConfig};
//!
//! let report = Scenario::builder()
//!     .tree(organizations::small_test_org())
//!     .traffic(TrafficConfig::uniform(8, 256.0, 1.0e-3).unwrap())
//!     .config(SimConfig::quick(42))
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.mean_latency > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod backend;
pub mod channels;
pub mod concentrator;
pub mod cube;
pub mod engine;
pub mod event;
pub mod fabric;
pub mod fault;
pub mod json;
pub mod message;
pub mod policy;
pub mod routes;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod traffic_source;

pub use backend::FabricBackend;
pub use fault::{BridgeUnit, FaultAction, FaultEvent, FaultPlan, FaultTarget, RingDir};
pub use policy::RoutingPolicy;
pub use runner::{ReplicatedReport, SimConfig, SimReport};
pub use scenario::{Fabric, Protocol, Scenario, ScenarioBuilder, ScenarioOutcome, ScenarioSpec};
pub use traffic_source::{TrafficSource, TrafficSourceSpec};

/// Errors produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The system or traffic description was invalid.
    InvalidConfiguration {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The event budget was exhausted before every generated message was delivered
    /// (the system is so far past saturation that finishing would take unreasonably
    /// long). The partial statistics are returned alongside.
    EventBudgetExhausted {
        /// Number of events processed before giving up.
        events: u64,
        /// Number of messages delivered before giving up.
        delivered: u64,
    },
    /// A serialized scenario spec could not be parsed or did not describe a
    /// valid scenario (unknown fabric kind, malformed JSON, missing fields,
    /// an empty or non-finite sweep rate grid…).
    InvalidSpec {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The analytical model ([`Scenario::evaluate`]) declared saturation at the
    /// requested load: the steady-state latency does not exist there. The
    /// analytical counterpart of [`SimError::EventBudgetExhausted`].
    ModelSaturated {
        /// Which model component saturated.
        component: String,
        /// The utilisation that triggered the error.
        utilization: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfiguration { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
            SimError::EventBudgetExhausted { events, delivered } => write!(
                f,
                "event budget exhausted after {events} events ({delivered} messages delivered)"
            ),
            SimError::InvalidSpec { reason } => {
                write!(f, "invalid scenario spec: {reason}")
            }
            SimError::ModelSaturated { component, utilization } => {
                write!(f, "analytical model saturated: {component} at utilisation {utilization:.3}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;

impl From<mcnet_system::SystemError> for SimError {
    fn from(e: mcnet_system::SystemError) -> Self {
        SimError::InvalidConfiguration { reason: e.to_string() }
    }
}

impl From<mcnet_topology::TopologyError> for SimError {
    fn from(e: mcnet_topology::TopologyError) -> Self {
        SimError::InvalidConfiguration { reason: e.to_string() }
    }
}

impl From<mcnet_model::ModelError> for SimError {
    fn from(e: mcnet_model::ModelError) -> Self {
        match e {
            mcnet_model::ModelError::Saturated { component, utilization, .. } => {
                SimError::ModelSaturated { component: component.to_string(), utilization }
            }
            other => SimError::InvalidConfiguration { reason: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::InvalidConfiguration { reason: "nope".into() };
        assert!(e.to_string().contains("nope"));
        let e = SimError::EventBudgetExhausted { events: 10, delivered: 3 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
        let e = SimError::InvalidSpec { reason: "bad kind".into() };
        assert!(e.to_string().contains("bad kind"));
        let e = SimError::ModelSaturated { component: "network channel".into(), utilization: 1.2 };
        assert!(e.to_string().contains("network channel"));
        assert!(e.to_string().contains("1.2"));
    }

    #[test]
    fn error_conversions() {
        let e: SimError = mcnet_system::SystemError::TooFewClusters { clusters: 1 }.into();
        assert!(matches!(e, SimError::InvalidConfiguration { .. }));
        let e: SimError = mcnet_topology::TopologyError::InvalidLevelCount { n: 0 }.into();
        assert!(matches!(e, SimError::InvalidConfiguration { .. }));
        // Model saturation keeps its typed identity; other model errors fold
        // into the configuration bucket.
        let e: SimError = mcnet_model::ModelError::Saturated {
            component: mcnet_model::SaturatedComponent::Channel,
            utilization: 1.5,
            cluster: None,
        }
        .into();
        assert!(matches!(e, SimError::ModelSaturated { .. }));
        let e: SimError =
            mcnet_model::ModelError::InvalidConfiguration { reason: "nope".into() }.into();
        assert!(matches!(e, SimError::InvalidConfiguration { .. }));
    }
}
