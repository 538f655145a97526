//! Concentrator/dispatcher bridge resources.
//!
//! Each cluster owns one **concentrator** (combining ECN1 traffic bound for ICN2) and
//! one **dispatcher** (spreading ICN2 traffic into the cluster's ECN1). Following the
//! paper's "merged wormhole journey" view of the inter-cluster path (Section 3.3), the
//! simulator represents each bridge as one additional channel-like resource inserted
//! into the worm's path: a worm acquires the bridge on its way through, holds it until
//! its tail has passed (≈ one message transfer, `M·t_cs`, which is exactly the service
//! time the paper assigns to the concentrator queue in Eq. 33) and competing worms wait
//! in FIFO order — reproducing the M/D/1-like waiting the model charges as `W_d`.
//!
//! [`BridgeMap`] only performs the index bookkeeping; the actual occupancy state lives
//! in the shared [`crate::channels::ChannelPool`] together with all network channels.

use crate::channels::GlobalChannelId;

/// Maps clusters to the global channel ids of their bridge resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeMap {
    base: u32,
    clusters: u32,
}

impl BridgeMap {
    /// Creates a map for `clusters` clusters whose bridge channels start at global
    /// channel id `base`.
    pub fn new(base: u32, clusters: usize) -> Self {
        BridgeMap { base, clusters: clusters as u32 }
    }

    /// Number of bridge channels (two per cluster).
    pub fn num_channels(&self) -> usize {
        2 * self.clusters as usize
    }

    /// Global channel id of the concentrator (ECN1 → ICN2) of a cluster.
    #[inline]
    pub fn concentrate(&self, cluster: usize) -> GlobalChannelId {
        debug_assert!((cluster as u32) < self.clusters);
        self.base + 2 * cluster as u32
    }

    /// Global channel id of the dispatcher (ICN2 → ECN1) of a cluster.
    #[inline]
    pub fn dispatch(&self, cluster: usize) -> GlobalChannelId {
        debug_assert!((cluster as u32) < self.clusters);
        self.base + 2 * cluster as u32 + 1
    }

    /// `true` if the given global channel id denotes a bridge resource.
    pub fn is_bridge(&self, channel: GlobalChannelId) -> bool {
        channel >= self.base && channel < self.base + self.num_channels() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_disjoint_and_contiguous() {
        let map = BridgeMap::new(100, 4);
        assert_eq!(map.num_channels(), 8);
        let mut ids: Vec<u32> =
            (0..4).flat_map(|c| [map.concentrate(c), map.dispatch(c)]).collect();
        ids.sort_unstable();
        assert_eq!(ids, (100..108).collect::<Vec<_>>());
        assert!(map.is_bridge(100));
        assert!(map.is_bridge(107));
        assert!(!map.is_bridge(99));
        assert!(!map.is_bridge(108));
    }

    #[test]
    fn concentrate_and_dispatch_differ() {
        let map = BridgeMap::new(0, 3);
        for c in 0..3 {
            assert_ne!(map.concentrate(c), map.dispatch(c));
        }
    }
}
