//! The fabric backend abstraction: one engine, two network families.
//!
//! The wormhole engine ([`crate::engine::Simulation`]) needs surprisingly
//! little from the network it simulates: a dense global channel-id space with
//! per-flit times (to size the [`ChannelPool`]), a way to materialise the
//! channel itinerary of any `(src, dst)` pair (composed per message by
//! [`crate::routes::RouteTable`]), and a coarse
//! node-partition ("cluster") used for the intra/inter latency split and the
//! locality traffic pattern. [`FabricBackend`] captures exactly that surface,
//! with two implementations:
//!
//! * [`FabricBackend::Tree`] — the paper's multi-cluster fabric
//!   ([`crate::fabric::Fabric`]): per-cluster ICN1/ECN1 m-port n-trees, the
//!   global ICN2 tree and the concentrator/dispatcher bridges.
//! * [`FabricBackend::Cube`] — the k-ary n-cube torus
//!   ([`crate::cube::CubeFabric`]): the direct-network family of the paper's
//!   analytical lineage (Draper & Ghosh, Ould-Khaoua, Sarbazi-Azad et al.),
//!   with dimension-order routing and dateline virtual channels.
//!
//! Everything downstream of itinerary construction — event dispatch, FIFO
//! channel acquisition, lazy release, statistics, replication running — is
//! backend-agnostic and shared.

use crate::channels::{ChannelPool, GlobalChannelId};
use crate::cube::CubeFabric;
use crate::fabric::{Fabric, Itinerary};
use crate::policy::RoutingPolicy;
use crate::scenario::Fabric as ScenarioFabric;
use crate::Result;
use mcnet_system::{MultiClusterSystem, TorusSystem, TrafficConfig};

/// A network fabric the wormhole engine can run over.
///
/// The tree fabric is boxed: it carries per-cluster network instances and is
/// much larger than the torus descriptor, and the enum is built once per
/// simulation and only ever accessed by reference.
#[derive(Debug, Clone)]
pub enum FabricBackend {
    /// The multi-cluster m-port n-tree fabric of the paper.
    Tree(Box<Fabric>),
    /// The k-ary n-cube (torus) fabric.
    Cube(CubeFabric),
}

impl FabricBackend {
    /// Builds the tree backend for a multi-cluster system (deterministic routing).
    pub fn tree(system: &MultiClusterSystem, traffic: &TrafficConfig) -> Result<Self> {
        Self::tree_with(system, traffic, RoutingPolicy::Deterministic)
    }

    /// Builds the torus backend for a k-ary n-cube system (deterministic routing).
    pub fn cube(torus: &TorusSystem, traffic: &TrafficConfig) -> Result<Self> {
        Self::cube_with(torus, traffic, RoutingPolicy::Deterministic)
    }

    /// Builds the tree backend under a routing policy. Only
    /// [`RoutingPolicy::Deterministic`] and [`RoutingPolicy::RandomizedUpDown`]
    /// apply to the tree fabric.
    pub fn tree_with(
        system: &MultiClusterSystem,
        traffic: &TrafficConfig,
        policy: RoutingPolicy,
    ) -> Result<Self> {
        policy.validate_for(None)?;
        let mut fabric = Fabric::build(system, traffic)?;
        fabric.set_randomized_routing(matches!(policy, RoutingPolicy::RandomizedUpDown));
        Ok(FabricBackend::Tree(Box::new(fabric)))
    }

    /// Builds the torus backend under a routing policy. Only
    /// [`RoutingPolicy::Deterministic`] and [`RoutingPolicy::AdaptiveTorus`]
    /// apply to the cube fabric; the adaptive variant adds its unrestricted
    /// VCs on top of the dateline escape class.
    pub fn cube_with(
        torus: &TorusSystem,
        traffic: &TrafficConfig,
        policy: RoutingPolicy,
    ) -> Result<Self> {
        policy.validate_for(Some(torus))?;
        let adaptive_vcs = match policy {
            RoutingPolicy::AdaptiveTorus { adaptive_vcs } => adaptive_vcs,
            RoutingPolicy::Deterministic | RoutingPolicy::RandomizedUpDown => 0,
        };
        Ok(FabricBackend::Cube(CubeFabric::build_with(torus, traffic, adaptive_vcs)?))
    }

    /// The routing policy the backend was built for (encoded in the fabric:
    /// adaptive VCs on the cube, the randomized-routing flag on the tree).
    pub fn routing_policy(&self) -> RoutingPolicy {
        match self {
            FabricBackend::Tree(f) if f.randomized_routing() => RoutingPolicy::RandomizedUpDown,
            FabricBackend::Tree(_) => RoutingPolicy::Deterministic,
            FabricBackend::Cube(f) if f.adaptive_vcs() > 0 => {
                RoutingPolicy::AdaptiveTorus { adaptive_vcs: f.adaptive_vcs() as u8 }
            }
            FabricBackend::Cube(_) => RoutingPolicy::Deterministic,
        }
    }

    /// Whether this backend was built from `fabric` under `policy` — the one
    /// test a cached engine must pass before a run may
    /// [`reset`](crate::engine::Simulation::reset) it instead of rebuilding.
    pub(crate) fn is_built_from(&self, fabric: &ScenarioFabric, policy: RoutingPolicy) -> bool {
        let same_fabric = match (self, fabric) {
            (FabricBackend::Tree(f), ScenarioFabric::Tree(system)) => f.system() == system,
            (FabricBackend::Cube(f), ScenarioFabric::Torus(torus)) => f.torus() == torus,
            _ => false,
        };
        same_fabric && self.routing_policy() == policy
    }

    /// The tree fabric, if this is the tree backend.
    pub fn as_tree(&self) -> Option<&Fabric> {
        match self {
            FabricBackend::Tree(f) => Some(f),
            FabricBackend::Cube(_) => None,
        }
    }

    /// The torus fabric, if this is the cube backend.
    pub fn as_cube(&self) -> Option<&CubeFabric> {
        match self {
            FabricBackend::Tree(_) => None,
            FabricBackend::Cube(f) => Some(f),
        }
    }

    /// Total number of processing nodes.
    pub fn total_nodes(&self) -> usize {
        match self {
            FabricBackend::Tree(f) => f.system().total_nodes(),
            FabricBackend::Cube(f) => f.torus().total_nodes(),
        }
    }

    /// Number of node-partition classes: clusters for the tree, dimension-0
    /// sub-ring neighborhoods for the torus.
    pub fn num_clusters(&self) -> usize {
        match self {
            FabricBackend::Tree(f) => f.system().num_clusters(),
            FabricBackend::Cube(f) => f.torus().num_neighborhoods(),
        }
    }

    /// The partition class of a node (cluster / sub-ring neighborhood).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn cluster_of(&self, node: usize) -> usize {
        match self {
            FabricBackend::Tree(f) => f.system().locate(node).expect("node index in range").cluster,
            FabricBackend::Cube(f) => f.neighborhood_of(node),
        }
    }

    /// Total number of channels in the global id space.
    pub fn num_channels(&self) -> usize {
        match self {
            FabricBackend::Tree(f) => f.num_channels(),
            FabricBackend::Cube(f) => f.num_channels(),
        }
    }

    /// Per-flit transfer time of one global channel.
    #[inline]
    pub fn flit_time(&self, ch: GlobalChannelId) -> f64 {
        match self {
            FabricBackend::Tree(f) => f.flit_time(ch),
            FabricBackend::Cube(f) => f.flit_time(ch),
        }
    }

    /// The slowest per-flit channel time of the fabric — the scale of a
    /// message's drain phase, used to normalise statistics across backends.
    pub fn drain_scale(&self) -> f64 {
        match self {
            FabricBackend::Tree(f) => f.t_cs().max(f.t_cn()),
            FabricBackend::Cube(f) => f.t_link().max(f.t_node()),
        }
    }

    /// Creates the channel-occupancy pool matching this fabric.
    pub fn channel_pool(&self) -> ChannelPool {
        match self {
            FabricBackend::Tree(f) => f.channel_pool(),
            FabricBackend::Cube(f) => f.channel_pool(),
        }
    }

    /// Whether a channel is a concentrator/dispatcher bridge resource. The
    /// torus has no bridges, so this is always `false` for the cube backend.
    pub fn is_bridge(&self, ch: GlobalChannelId) -> bool {
        match self {
            FabricBackend::Tree(f) => f.bridges().is_bridge(ch),
            FabricBackend::Cube(_) => false,
        }
    }

    /// The bridge channel ids (empty for the torus).
    pub fn bridge_channels(&self) -> Vec<GlobalChannelId> {
        match self {
            FabricBackend::Tree(f) => {
                let bridges = f.bridges();
                (0..f.system().num_clusters())
                    .flat_map(|c| [bridges.concentrate(c), bridges.dispatch(c)])
                    .collect()
            }
            FabricBackend::Cube(_) => Vec::new(),
        }
    }

    /// Builds the itinerary of one message from scratch (the per-message
    /// reference computation; the engine composes routes through
    /// [`crate::routes::RouteTable`] instead).
    pub fn build_path(&self, src: usize, dst: usize) -> Result<Itinerary> {
        match self {
            FabricBackend::Tree(f) => f.build_path(src, dst),
            FabricBackend::Cube(f) => f.build_path(src, dst),
        }
    }

    /// A short human-readable summary of the underlying system. Deterministic
    /// backends produce exactly the bare system summary (pinned by goldens);
    /// adaptive policies append their description.
    pub fn summary(&self) -> String {
        let base = match self {
            FabricBackend::Tree(f) => f.system().summary(),
            FabricBackend::Cube(f) => f.torus().summary(),
        };
        match self.routing_policy() {
            RoutingPolicy::Deterministic => base,
            policy => format!("{base} [{}]", policy.describe()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;

    fn traffic() -> TrafficConfig {
        TrafficConfig::uniform(32, 256.0, 1e-4).unwrap()
    }

    #[test]
    fn tree_backend_delegates_to_the_fabric() {
        let system = organizations::small_test_org();
        let t = traffic();
        let backend = FabricBackend::tree(&system, &t).unwrap();
        let fabric = Fabric::build(&system, &t).unwrap();
        assert_eq!(backend.total_nodes(), system.total_nodes());
        assert_eq!(backend.num_clusters(), system.num_clusters());
        assert_eq!(backend.num_channels(), fabric.num_channels());
        assert_eq!(backend.channel_pool().len(), fabric.num_channels());
        assert!((backend.drain_scale() - fabric.t_cs()).abs() < 1e-12);
        assert_eq!(backend.cluster_of(0), 0);
        assert_eq!(backend.cluster_of(system.total_nodes() - 1), system.num_clusters() - 1);
        assert!(backend.as_tree().is_some());
        assert!(backend.as_cube().is_none());
        let bridges = backend.bridge_channels();
        assert_eq!(bridges.len(), 2 * system.num_clusters());
        assert!(bridges.iter().all(|&b| backend.is_bridge(b)));
        assert_eq!(backend.summary(), system.summary());
    }

    #[test]
    fn policy_aware_constructors_validate_fabric_compatibility() {
        let system = organizations::small_test_org();
        let t = traffic();
        let torus = mcnet_system::TorusSystem::new(4, 2).unwrap();
        let adaptive = RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 };
        assert!(FabricBackend::tree_with(&system, &t, adaptive).is_err());
        assert!(FabricBackend::cube_with(&torus, &t, RoutingPolicy::RandomizedUpDown).is_err());
        assert!(FabricBackend::cube_with(
            &torus,
            &t,
            RoutingPolicy::AdaptiveTorus { adaptive_vcs: 0 }
        )
        .is_err());

        let det = FabricBackend::cube(&torus, &t).unwrap();
        assert!(det.routing_policy().is_deterministic());
        assert_eq!(det.summary(), torus.summary(), "deterministic summary is unchanged");

        let ad = FabricBackend::cube_with(&torus, &t, adaptive).unwrap();
        assert_eq!(ad.routing_policy(), adaptive);
        assert!(ad.summary().starts_with(&torus.summary()));
        assert!(ad.summary().contains("adaptive"));
        assert!(ad.num_channels() > det.num_channels(), "adaptive VCs widen the channel space");

        let rt = FabricBackend::tree_with(&system, &t, RoutingPolicy::RandomizedUpDown).unwrap();
        assert_eq!(rt.routing_policy(), RoutingPolicy::RandomizedUpDown);
        assert!(rt.summary().contains("randomized"));
        assert_eq!(
            rt.num_channels(),
            FabricBackend::tree(&system, &t).unwrap().num_channels(),
            "randomized tree routing reuses the deterministic channel space"
        );
    }

    #[test]
    fn cube_backend_delegates_to_the_fabric() {
        let torus = mcnet_system::TorusSystem::new(4, 2).unwrap();
        let backend = FabricBackend::cube(&torus, &traffic()).unwrap();
        assert_eq!(backend.total_nodes(), 16);
        assert_eq!(backend.num_clusters(), 4);
        assert_eq!(backend.cluster_of(5), 1);
        assert!(backend.as_cube().is_some());
        assert!(backend.as_tree().is_none());
        assert!(backend.bridge_channels().is_empty());
        assert!(!backend.is_bridge(0));
        let it = backend.build_path(0, 15).unwrap();
        assert!(!it.channels.is_empty());
        assert!((backend.drain_scale() - 0.522).abs() < 1e-12);
        assert!(backend.summary().contains("torus"));
    }
}
