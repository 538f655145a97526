//! The heterogeneous multi-cluster system description.
//!
//! [`MultiClusterSystem`] ties together the per-cluster specifications, the shared
//! network technology and the inter-cluster network (ICN2) arity, and provides the
//! system-level quantities the analytical model needs — most importantly the
//! outgoing-request probability `P_o^{(i)}` of Eq. (13) and the node-count weights of
//! Eq. (36) — plus the global↔local node-index mapping the simulator needs.

use crate::cluster::ClusterSpec;
use crate::network::NetworkTechnology;
use crate::{Result, SystemError};
use serde::{Deserialize, Serialize};

/// A node identified by its cluster and its local index within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalNodeId {
    /// Cluster index, `0..C`.
    pub cluster: usize,
    /// Local node index within the cluster, `0..N_i`.
    pub local: usize,
}

/// A complete heterogeneous multi-cluster system (paper Fig. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiClusterSystem {
    clusters: Vec<ClusterSpec>,
    technology: NetworkTechnology,
    icn2_levels: usize,
    /// Exclusive prefix sums of cluster node counts; `offsets[i]` is the global index
    /// of cluster `i`'s first node and `offsets[C]` the total node count.
    offsets: Vec<usize>,
}

impl MultiClusterSystem {
    /// Builds a system from its cluster list, using the smallest ICN2 tree able to host
    /// all clusters and the paper's default network technology.
    pub fn new(clusters: Vec<ClusterSpec>) -> Result<Self> {
        Self::with_technology(clusters, NetworkTechnology::paper_default())
    }

    /// Builds a system with an explicit network technology.
    pub fn with_technology(
        clusters: Vec<ClusterSpec>,
        technology: NetworkTechnology,
    ) -> Result<Self> {
        if clusters.len() < 2 {
            return Err(SystemError::TooFewClusters { clusters: clusters.len() });
        }
        let m = clusters[0].ports;
        if m < 2 || !m.is_multiple_of(2) {
            return Err(SystemError::InvalidPortCount { m });
        }
        for (i, c) in clusters.iter().enumerate() {
            if c.ports != m {
                return Err(SystemError::MixedPortCounts { expected: m, found: c.ports });
            }
            if c.levels == 0 {
                return Err(SystemError::InvalidClusterLevels { cluster: i, n: c.levels });
            }
        }
        // The ICN2 is the smallest m-port n_c-tree with at least C node slots
        // (C = 2(m/2)^{n_c} exactly for the paper's organizations).
        let k = m / 2;
        let mut icn2_levels = 1usize;
        while 2 * k.pow(icn2_levels as u32) < clusters.len() {
            icn2_levels += 1;
            if icn2_levels > 16 {
                return Err(SystemError::Icn2TooSmall {
                    clusters: clusters.len(),
                    capacity: 2 * k.pow(16),
                });
            }
        }
        let mut offsets = Vec::with_capacity(clusters.len() + 1);
        let mut acc = 0usize;
        for c in &clusters {
            offsets.push(acc);
            acc += c.num_nodes();
        }
        offsets.push(acc);
        Ok(MultiClusterSystem { clusters, technology, icn2_levels, offsets })
    }

    /// Switch port count `m` shared by every network of the system.
    pub fn ports(&self) -> usize {
        self.clusters[0].ports
    }

    /// Number of clusters `C`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of processing nodes `N = Σ N_i`.
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// The cluster specifications.
    pub fn clusters(&self) -> &[ClusterSpec] {
        &self.clusters
    }

    /// One cluster's specification.
    pub fn cluster(&self, i: usize) -> Result<&ClusterSpec> {
        self.clusters
            .get(i)
            .ok_or(SystemError::ClusterOutOfRange { cluster: i, num_clusters: self.clusters.len() })
    }

    /// Node count `N_i` of cluster `i`.
    pub fn cluster_nodes(&self, i: usize) -> Result<usize> {
        Ok(self.cluster(i)?.num_nodes())
    }

    /// Tree level count of the inter-cluster network ICN2 (`n_c`).
    pub fn icn2_levels(&self) -> usize {
        self.icn2_levels
    }

    /// Number of node slots of the ICN2 tree, `2(m/2)^{n_c}` (≥ `C`).
    pub fn icn2_capacity(&self) -> usize {
        2 * (self.ports() / 2).pow(self.icn2_levels as u32)
    }

    /// The shared network-technology parameters.
    pub fn technology(&self) -> &NetworkTechnology {
        &self.technology
    }

    /// Probability that a request generated in cluster `i` targets a node *outside*
    /// cluster `i` (paper Eq. 13): `P_o^{(i)} = Σ_{j ≠ i} N_j / (N − 1)`.
    pub fn outgoing_probability(&self, i: usize) -> Result<f64> {
        let ni = self.cluster_nodes(i)? as f64;
        let n = self.total_nodes() as f64;
        Ok((n - ni) / (n - 1.0))
    }

    /// The node-count weight `N_i / N` of cluster `i` used by the total-latency average
    /// (paper Eq. 36).
    pub fn cluster_weight(&self, i: usize) -> Result<f64> {
        Ok(self.cluster_nodes(i)? as f64 / self.total_nodes() as f64)
    }

    /// `true` when every cluster has the same size (the homogeneous special case the
    /// prior-art models cover).
    pub fn is_homogeneous(&self) -> bool {
        self.clusters.windows(2).all(|w| w[0].levels == w[1].levels)
    }

    /// Cluster and local index of a node given its global index.
    pub fn locate(&self, global: usize) -> Result<GlobalNodeId> {
        if global >= self.total_nodes() {
            return Err(SystemError::NodeOutOfRange {
                node: global,
                num_nodes: self.total_nodes(),
            });
        }
        // offsets is sorted; partition_point finds the cluster whose range contains it.
        let cluster = self.offsets.partition_point(|&o| o <= global) - 1;
        Ok(GlobalNodeId { cluster, local: global - self.offsets[cluster] })
    }

    /// The range of global node indices belonging to cluster `i`.
    pub fn node_range(&self, i: usize) -> Result<std::ops::Range<usize>> {
        self.cluster(i)?;
        Ok(self.offsets[i]..self.offsets[i + 1])
    }

    /// Iterator over `(cluster index, spec)` pairs.
    pub fn iter_clusters(&self) -> impl Iterator<Item = (usize, &ClusterSpec)> {
        self.clusters.iter().enumerate()
    }

    /// A short human-readable summary, e.g. `"N=1120, C=32, m=8, n_c=2"`.
    pub fn summary(&self) -> String {
        format!(
            "N={}, C={}, m={}, n_c={}",
            self.total_nodes(),
            self.num_clusters(),
            self.ports(),
            self.icn2_levels()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MultiClusterSystem {
        MultiClusterSystem::new(vec![
            ClusterSpec::new(4, 1).unwrap(),
            ClusterSpec::new(4, 2).unwrap(),
            ClusterSpec::new(4, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn node_counting_and_offsets() {
        let sys = small_system();
        assert_eq!(sys.total_nodes(), 4 + 8 + 16);
        assert_eq!(sys.cluster_nodes(0).unwrap(), 4);
        assert_eq!(sys.cluster_nodes(2).unwrap(), 16);
        assert_eq!(sys.node_range(1).unwrap(), 4..12);
        assert!(sys.cluster(7).is_err());
        assert!(sys.node_range(7).is_err());
    }

    #[test]
    fn global_local_roundtrip() {
        let sys = small_system();
        for global in 0..sys.total_nodes() {
            let loc = sys.locate(global).unwrap();
            assert_eq!(sys.node_range(loc.cluster).unwrap().start + loc.local, global);
        }
        assert!(sys.locate(sys.total_nodes()).is_err());
        assert_eq!(sys.locate(0).unwrap(), GlobalNodeId { cluster: 0, local: 0 });
        assert_eq!(sys.locate(4).unwrap(), GlobalNodeId { cluster: 1, local: 0 });
        assert_eq!(sys.locate(27).unwrap(), GlobalNodeId { cluster: 2, local: 15 });
    }

    #[test]
    fn outgoing_probability_eq13() {
        let sys = small_system();
        let n = 28.0;
        assert!((sys.outgoing_probability(0).unwrap() - (n - 4.0) / (n - 1.0)).abs() < 1e-12);
        assert!((sys.outgoing_probability(2).unwrap() - (n - 16.0) / (n - 1.0)).abs() < 1e-12);
        // Larger clusters keep more traffic internal.
        assert!(sys.outgoing_probability(2).unwrap() < sys.outgoing_probability(0).unwrap());
    }

    #[test]
    fn weights_sum_to_one() {
        let sys = small_system();
        let total: f64 = (0..sys.num_clusters()).map(|i| sys.cluster_weight(i).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn icn2_sizing() {
        // 3 clusters with m=4 need n_c = 1 (capacity 4).
        let sys = small_system();
        assert_eq!(sys.icn2_levels(), 1);
        assert_eq!(sys.icn2_capacity(), 4);
        // 32 clusters with m=8 need n_c = 2 (capacity 32) — the paper's Org A.
        let clusters = vec![ClusterSpec::new(8, 1).unwrap(); 32];
        let sys = MultiClusterSystem::new(clusters).unwrap();
        assert_eq!(sys.icn2_levels(), 2);
        assert_eq!(sys.icn2_capacity(), 32);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            MultiClusterSystem::new(vec![ClusterSpec::new(4, 1).unwrap()]),
            Err(SystemError::TooFewClusters { .. })
        ));
        let mixed = vec![ClusterSpec::new(4, 1).unwrap(), ClusterSpec::new(8, 1).unwrap()];
        assert!(matches!(MultiClusterSystem::new(mixed), Err(SystemError::MixedPortCounts { .. })));
    }

    #[test]
    fn homogeneity_detection() {
        assert!(!small_system().is_homogeneous());
        let sys = MultiClusterSystem::new(vec![ClusterSpec::new(4, 2).unwrap(); 4]).unwrap();
        assert!(sys.is_homogeneous());
    }

    #[test]
    fn summary_mentions_key_parameters() {
        let s = small_system().summary();
        assert!(s.contains("N=28") && s.contains("C=3") && s.contains("m=4"));
    }
}
