//! # mcnet-topology
//!
//! Interconnection-network topologies used by the multi-cluster analytical model and
//! simulator of Javadi et al., *"Analysis of Interconnection Networks in Heterogeneous
//! Multi-Cluster Systems"*, ICPP Workshops 2006.
//!
//! The primary topology is the **m-port n-tree** (a fixed-arity fat-tree / folded-Clos
//! network, Lin 2003), which the paper adopts for every network level of the system:
//! the intra-cluster network (ICN1), the inter-cluster access network (ECN1) and the
//! global inter-cluster network (ICN2).
//!
//! An m-port *n*-tree built from switches with `m` ports has
//!
//! ```text
//! N    = 2 * (m/2)^n              processing nodes          (paper Eq. 1)
//! N_sw = (2n - 1) * (m/2)^(n-1)   network switches          (paper Eq. 2)
//! ```
//!
//! The crate provides:
//!
//! * [`MPortNTree`] — explicit construction of the switch/node graph with the
//!   *two half-trees sharing their root switches* structure that realises exactly the
//!   node/switch counts above;
//! * [`routing::NcaRouter`] — the deterministic nearest-common-ancestor (Up*/Down*
//!   derived) routing algorithm used by the paper;
//! * [`distance::HopDistribution`] — the hop-count probability distribution
//!   `P_{j,n}` of Eq. (4) and the average message distance `d_avg` of Eqs. (8)–(9),
//!   both in the paper's published form and as an exact enumeration over the
//!   constructed topology;
//! * [`kary_ncube::KaryNCube`] — the k-ary n-cube topology of the prior-art models
//!   the paper builds on (used for baseline/ablation benchmarks).
//!
//! ## Quick example
//!
//! ```
//! use mcnet_topology::{MPortNTree, routing::NcaRouter, distance::HopDistribution};
//!
//! // The 8-port 3-tree used for the large clusters of the paper's Table 1 (Org A).
//! let tree = MPortNTree::new(8, 3).unwrap();
//! assert_eq!(tree.num_nodes(), 128);      // 2 * 4^3
//! assert_eq!(tree.num_switches(), 80);    // 5 * 4^2
//!
//! let router = NcaRouter::new(&tree);
//! let path = router.route(0u32.into(), 100u32.into()).unwrap();
//! assert!(path.num_links() <= 2 * 3);
//!
//! let hops = HopDistribution::paper(8, 3);
//! assert!((hops.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance;
pub mod graph;
pub mod ids;
pub mod kary_ncube;
pub mod routing;
pub mod tree;

pub use distance::HopDistribution;
pub use ids::{Level, NodeId, PortId, SwitchId};
pub use kary_ncube::KaryNCube;
pub use tree::MPortNTree;

/// Errors produced while constructing or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The switch port count `m` must be even and at least 2.
    InvalidPortCount {
        /// The rejected port count.
        m: usize,
    },
    /// The number of tree levels `n` must be at least 1.
    InvalidLevelCount {
        /// The rejected level count.
        n: usize,
    },
    /// A node identifier was outside the valid range for the topology.
    NodeOutOfRange {
        /// The rejected node id.
        node: NodeId,
        /// Number of nodes in the topology.
        num_nodes: usize,
    },
    /// A switch identifier was outside the valid range for the topology.
    SwitchOutOfRange {
        /// The rejected switch id.
        switch: SwitchId,
        /// Number of switches in the topology.
        num_switches: usize,
    },
    /// Routing was requested between a node and itself.
    SelfRouting {
        /// The node routed to itself.
        node: NodeId,
    },
    /// Parameters describe a topology too large to construct in memory.
    TooLarge {
        /// Number of nodes implied by the parameters.
        nodes: u128,
        /// The configured construction limit.
        limit: u128,
    },
    /// The requested radix is not valid for a k-ary n-cube.
    InvalidRadix {
        /// The rejected radix.
        k: usize,
    },
    /// The requested dimensionality is not valid for a k-ary n-cube.
    InvalidDimension {
        /// The rejected dimension count.
        n: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::InvalidPortCount { m } => {
                write!(f, "switch port count m={m} must be an even number >= 2")
            }
            TopologyError::InvalidLevelCount { n } => {
                write!(f, "tree level count n={n} must be >= 1")
            }
            TopologyError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node:?} out of range (topology has {num_nodes} nodes)")
            }
            TopologyError::SwitchOutOfRange { switch, num_switches } => {
                write!(f, "switch {switch:?} out of range (topology has {num_switches} switches)")
            }
            TopologyError::SelfRouting { node } => {
                write!(f, "cannot route from node {node:?} to itself")
            }
            TopologyError::TooLarge { nodes, limit } => {
                write!(f, "topology with {nodes} nodes exceeds the construction limit of {limit}")
            }
            TopologyError::InvalidRadix { k } => {
                write!(f, "k-ary n-cube radix k={k} must be >= 2")
            }
            TopologyError::InvalidDimension { n } => {
                write!(f, "k-ary n-cube dimension n={n} must be >= 1")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TopologyError>;

/// Integer power helper used throughout the crate; computed in `u128` and converted
/// back so that oversized parameter combinations fail loudly instead of wrapping.
#[inline]
pub(crate) fn upow(base: usize, exp: u32) -> usize {
    (base as u128)
        .checked_pow(exp)
        .and_then(|v| usize::try_from(v).ok())
        .expect("topology size overflows usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TopologyError::InvalidPortCount { m: 3 };
        assert!(e.to_string().contains("m=3"));
        let e = TopologyError::TooLarge { nodes: 1 << 40, limit: 1 << 24 };
        assert!(e.to_string().contains("limit"));
    }

    #[test]
    fn upow_small_values() {
        assert_eq!(upow(4, 0), 1);
        assert_eq!(upow(4, 3), 64);
        assert_eq!(upow(2, 10), 1024);
    }
}
