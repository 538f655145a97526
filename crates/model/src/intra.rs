//! Mean message latency of intra-cluster traffic, `T_I1^{(i)}` (Eq. 25).
//!
//! A message that stays inside cluster `i` experiences three delays:
//!
//! 1. waiting in the source queue of the ICN1 injection channel (`W^{(i)}`, Eq. 23),
//! 2. the network latency of the wormhole journey itself (`S^{(i)}`, Eqs. 3, 16–18),
//! 3. the tail-flit draining time (`R^{(i)}`, Eq. 24).

use crate::rates::ClusterRates;
use crate::service::{self, ChannelTimes};
use crate::source_queue::{self, SourceQueueInput, SourceQueueKind};
use crate::tail;
use crate::Result;
use mcnet_topology::distance::HopDistribution;

/// Breakdown of the intra-cluster latency of one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraClusterLatency {
    /// Mean network latency `S^{(i)}` (Eq. 3).
    pub network: f64,
    /// Mean source-queue waiting time `W^{(i)}` (Eq. 23).
    pub source_wait: f64,
    /// Mean tail-flit time `R^{(i)}` (Eq. 24).
    pub tail: f64,
    /// `T_I1^{(i)} = W + S + R` (Eq. 25).
    pub total: f64,
    /// Worst per-channel utilisation seen by the service-time recursion.
    pub max_channel_utilization: f64,
}

/// Computes the intra-cluster latency of one cluster. Clusters of one rate
/// class (`SystemRates::rate_class`) share the result bit for bit, so the
/// evaluation solves each class once.
pub(crate) fn intra_cluster_latency(
    rates: &ClusterRates,
    hops: &HopDistribution,
    times: &ChannelTimes,
) -> Result<IntraClusterLatency> {
    let network = service::mean_intra_network_latency(hops, rates.eta_icn1, times);
    service::check_channel_utilization(&network, Some(rates.cluster))?;

    let source_wait = source_queue::waiting_time(&SourceQueueInput {
        kind: SourceQueueKind::Intra,
        per_node_rate: rates.per_node_icn1_rate,
        network_latency: network.latency,
        minimum_latency: times.message_node_time(),
        cluster: Some(rates.cluster),
    })?;

    let tail = tail::intra_tail_time(hops, times);
    Ok(IntraClusterLatency {
        network: network.latency,
        source_wait,
        tail,
        total: source_wait + network.latency + tail,
        max_channel_utilization: network.max_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{HopCache, SystemRates};
    use mcnet_system::{organizations, NetworkTechnology, TrafficConfig};

    fn setup(rate: f64) -> (SystemRates, ChannelTimes) {
        let sys = organizations::table1_org_a();
        let traffic = TrafficConfig::uniform(32, 256.0, rate).unwrap();
        let rates = SystemRates::compute(&sys, &traffic, &HopCache::build(&sys).unwrap()).unwrap();
        let times = ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic);
        (rates, times)
    }

    #[test]
    fn components_add_up() {
        let (rates, times) = setup(1e-4);
        let hops = HopDistribution::paper(8, 3).unwrap();
        let lat = intra_cluster_latency(rates.cluster(31), &hops, &times).unwrap();
        assert!((lat.total - (lat.network + lat.source_wait + lat.tail)).abs() < 1e-12);
        assert!(lat.network > 0.0 && lat.tail > 0.0 && lat.source_wait >= 0.0);
        assert!(lat.max_channel_utilization < 1.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let hops = HopDistribution::paper(8, 3).unwrap();
        let (r1, t1) = setup(5e-5);
        let (r2, t2) = setup(4e-4);
        let low = intra_cluster_latency(r1.cluster(31), &hops, &t1).unwrap();
        let high = intra_cluster_latency(r2.cluster(31), &hops, &t2).unwrap();
        assert!(high.total > low.total);
        assert!(high.source_wait >= low.source_wait);
    }

    #[test]
    fn single_switch_cluster_has_minimal_network_latency() {
        // Org A clusters 0..11 have n_i = 1: the network latency is M·t_cn and no
        // switch-to-switch hops exist.
        let (rates, times) = setup(1e-4);
        let hops = HopDistribution::paper(8, 1).unwrap();
        let lat = intra_cluster_latency(rates.cluster(0), &hops, &times).unwrap();
        assert!((lat.network - times.message_node_time()).abs() < 1e-9);
        assert!((lat.tail - times.t_cn).abs() < 1e-12);
    }
}
