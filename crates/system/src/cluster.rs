//! Per-cluster configuration.
//!
//! A cluster is characterised by the arity of its two networks (ICN1 and ECN1 are both
//! m-port `n_i`-trees with the same `m` across the whole system). The paper's
//! cluster-size-heterogeneity study assumes equal processing power in every cluster
//! (assumption 3) and varies only `n_i`, so a cluster carries no processor speed.

use crate::{Result, SystemError};

/// Specification of one cluster of the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Switch port count `m` of the cluster's networks (identical for ICN1 and ECN1).
    pub ports: usize,
    /// Tree level count `n_i` of the cluster's networks; the cluster therefore has
    /// `N_i = 2(m/2)^{n_i}` nodes.
    pub levels: usize,
}

impl ClusterSpec {
    /// Creates a cluster with the given network arity.
    pub fn new(ports: usize, levels: usize) -> Result<Self> {
        if ports < 2 || !ports.is_multiple_of(2) {
            return Err(SystemError::InvalidPortCount { m: ports });
        }
        if levels == 0 {
            return Err(SystemError::InvalidClusterLevels { cluster: 0, n: levels });
        }
        Ok(ClusterSpec { ports, levels })
    }

    /// Number of processing nodes in the cluster, `N_i = 2(m/2)^{n_i}` (paper Eq. 1).
    pub fn num_nodes(&self) -> usize {
        2 * (self.ports / 2).pow(self.levels as u32)
    }

    /// Number of switches in each of the cluster's two networks (paper Eq. 2).
    pub fn num_switches_per_network(&self) -> usize {
        (2 * self.levels - 1) * (self.ports / 2).pow((self.levels - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_match_paper_table1() {
        // Org A building blocks (m = 8).
        assert_eq!(ClusterSpec::new(8, 1).unwrap().num_nodes(), 8);
        assert_eq!(ClusterSpec::new(8, 2).unwrap().num_nodes(), 32);
        assert_eq!(ClusterSpec::new(8, 3).unwrap().num_nodes(), 128);
        // Org B building blocks (m = 4).
        assert_eq!(ClusterSpec::new(4, 3).unwrap().num_nodes(), 16);
        assert_eq!(ClusterSpec::new(4, 4).unwrap().num_nodes(), 32);
        assert_eq!(ClusterSpec::new(4, 5).unwrap().num_nodes(), 64);
    }

    #[test]
    fn switch_counts_match_eq2() {
        assert_eq!(ClusterSpec::new(8, 3).unwrap().num_switches_per_network(), 80);
        assert_eq!(ClusterSpec::new(4, 5).unwrap().num_switches_per_network(), 144);
        assert_eq!(ClusterSpec::new(8, 1).unwrap().num_switches_per_network(), 1);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(ClusterSpec::new(5, 2).is_err());
        assert!(ClusterSpec::new(0, 2).is_err());
        assert!(ClusterSpec::new(8, 0).is_err());
    }
}
