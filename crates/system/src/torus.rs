//! The k-ary n-cube (torus) system description.
//!
//! The paper's analytical lineage (its references \[6\]–\[9\]: Draper & Ghosh,
//! Ould-Khaoua, Sarbazi-Azad et al.) models wormhole routing in k-ary n-cubes.
//! [`TorusSystem`] is the configuration-layer counterpart of
//! [`crate::MultiClusterSystem`] for that direct-network family: radix `k`,
//! dimension count `n` and the shared [`NetworkTechnology`] constants from which
//! the per-flit channel times follow. Message geometry and load stay in
//! [`crate::TrafficConfig`], exactly as for the tree-based system, so the same
//! traffic description drives either backend.
//!
//! ## Traffic-pattern mapping
//!
//! The torus has no clusters, so the cluster-relative destination patterns map
//! onto **dimension-0 sub-rings**: the `k` nodes sharing all coordinates except
//! the first form one contiguous index range (`node / k` is the sub-ring
//! index). Uniform and hot-spot traffic carry over unchanged;
//! [`crate::TrafficPattern::LocalFavoring`] keeps messages inside the source's
//! sub-ring neighborhood with the configured probability.

use crate::network::NetworkTechnology;
use crate::{Result, SystemError};

/// Largest supported torus population (matches the topology crate's node-id
/// budget, `mcnet_topology::tree::MAX_NODES`).
pub const MAX_TORUS_NODES: u128 = 1 << 22;

/// A k-ary n-cube (torus) system: `k^n` nodes, each with a router joined to its
/// `2n` ring neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct TorusSystem {
    radix: usize,
    dimensions: usize,
    technology: NetworkTechnology,
    num_nodes: usize,
}

impl TorusSystem {
    /// Creates a torus with the paper's default network technology.
    pub fn new(radix: usize, dimensions: usize) -> Result<Self> {
        Self::with_technology(radix, dimensions, NetworkTechnology::paper_default())
    }

    /// Creates a torus with an explicit network technology.
    pub fn with_technology(
        radix: usize,
        dimensions: usize,
        technology: NetworkTechnology,
    ) -> Result<Self> {
        if radix < 2 {
            return Err(SystemError::InvalidTorusShape { radix, dimensions });
        }
        if dimensions == 0 {
            return Err(SystemError::InvalidTorusShape { radix, dimensions });
        }
        let nodes = (radix as u128).pow(dimensions as u32);
        if nodes > MAX_TORUS_NODES {
            return Err(SystemError::TorusTooLarge { nodes, limit: MAX_TORUS_NODES });
        }
        Ok(TorusSystem { radix, dimensions, technology, num_nodes: nodes as usize })
    }

    /// Radix `k` (nodes per dimension).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Dimension count `n`.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Total number of nodes, `k^n`.
    pub fn total_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The shared network-technology parameters.
    pub fn technology(&self) -> &NetworkTechnology {
        &self.technology
    }

    /// Number of dimension-0 sub-ring neighborhoods (`k^(n-1)`), the torus
    /// analogue of the cluster count.
    pub fn num_neighborhoods(&self) -> usize {
        self.num_nodes / self.radix
    }

    /// The sub-ring neighborhood a node belongs to.
    pub fn neighborhood_of(&self, node: usize) -> Result<usize> {
        if node >= self.num_nodes {
            return Err(SystemError::NodeOutOfRange { node, num_nodes: self.num_nodes });
        }
        Ok(node / self.radix)
    }

    /// Half-open global-index ranges of every neighborhood, in order. Dimension 0
    /// is the least significant digit of the node index, so each sub-ring is a
    /// contiguous range of `k` indices — the same shape as the tree system's
    /// cluster ranges, which is what lets the locality-favouring traffic pattern
    /// reuse one sampling path for both backends.
    pub fn neighborhood_ranges(&self) -> Vec<(usize, usize)> {
        (0..self.num_neighborhoods()).map(|r| (r * self.radix, (r + 1) * self.radix)).collect()
    }

    /// A short human-readable summary, e.g. `"torus k=4, n=3, N=64"`.
    pub fn summary(&self) -> String {
        format!("torus k={}, n={}, N={}", self.radix, self.dimensions, self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let t = TorusSystem::new(4, 3).unwrap();
        assert_eq!(t.radix(), 4);
        assert_eq!(t.dimensions(), 3);
        assert_eq!(t.total_nodes(), 64);
        assert_eq!(t.num_neighborhoods(), 16);
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(matches!(
            TorusSystem::new(1, 3),
            Err(SystemError::InvalidTorusShape { radix: 1, .. })
        ));
        assert!(matches!(
            TorusSystem::new(4, 0),
            Err(SystemError::InvalidTorusShape { dimensions: 0, .. })
        ));
        assert!(matches!(TorusSystem::new(1 << 12, 2), Err(SystemError::TorusTooLarge { .. })));
    }

    #[test]
    fn neighborhoods_partition_the_nodes() {
        let t = TorusSystem::new(3, 3).unwrap();
        let ranges = t.neighborhood_ranges();
        assert_eq!(ranges.len(), 9);
        let mut covered = 0usize;
        for (i, &(s, e)) in ranges.iter().enumerate() {
            assert_eq!(e - s, 3);
            assert_eq!(s, covered);
            covered = e;
            for node in s..e {
                assert_eq!(t.neighborhood_of(node).unwrap(), i);
            }
        }
        assert_eq!(covered, t.total_nodes());
        assert!(t.neighborhood_of(27).is_err());
    }

    #[test]
    fn summary_and_technology() {
        let t = TorusSystem::new(4, 2).unwrap();
        assert_eq!(t.summary(), "torus k=4, n=2, N=16");
        assert_eq!(t.technology(), &NetworkTechnology::paper_default());
        let custom = NetworkTechnology::new(0.1, 0.05, 0.001).unwrap();
        let t2 = TorusSystem::with_technology(4, 2, custom).unwrap();
        assert_eq!(t2.technology(), &custom);
    }
}
