//! Mean message latency of inter-cluster traffic (Eqs. 26–34).
//!
//! A message leaving cluster `i` for cluster `v` ascends through cluster `i`'s ECN1,
//! crosses the concentrator into ICN2, traverses ICN2, is dispatched into cluster `v`'s
//! ECN1 and descends to its destination. Because the flow control is wormhole, the
//! paper evaluates ECN1 and ICN2 as one merged journey (Eqs. 26–29) and adds the
//! concentrator/dispatcher buffers as separate M/D/1 queues (Eqs. 33–34). The
//! per-destination quantities are then averaged arithmetically over all destination
//! clusters `v ≠ i` (Eqs. 31 and 34).

use crate::concentrator;
use crate::rates::{HopCache, SystemRates};
use crate::service::{self, ChannelTimes, StageWalk};
use crate::source_queue::{self, SourceQueueInput, SourceQueueKind};
use crate::tail;
use crate::Result;

/// Breakdown of the inter-cluster latency seen from one source cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterClusterLatency {
    /// Mean merged ECN1+ICN2 network latency, averaged over destination clusters
    /// (the `S` term of Eq. 31).
    pub network: f64,
    /// Mean source-queue waiting time at the ECN1 injection channel (Eq. 30), averaged
    /// over destination clusters.
    pub source_wait: f64,
    /// Mean tail-flit time (Eq. 32), averaged over destination clusters.
    pub tail: f64,
    /// Mean message latency through the inter-cluster networks,
    /// `T_{E1&I2}^{(i)}` (Eq. 31) — does **not** include the concentrator wait.
    pub total: f64,
    /// Mean concentrator/dispatcher waiting time `W_d^{(i)}` (Eq. 34).
    pub concentrator_wait: f64,
    /// Worst per-channel utilisation seen by the service-time recursion over all
    /// destination clusters.
    pub max_channel_utilization: f64,
    /// The largest concentrator/dispatcher utilisation `ρ = λ_I2^{(i,v)}·M·t_cs`
    /// that Eq. (33) charges over the destination clusters this cluster sends
    /// to.
    pub max_bridge_utilization: f64,
}

/// The per-destination quantities of one `(source, v)` journey.
#[derive(Debug, Clone, Copy)]
struct PairLatency {
    network: f64,
    wait: f64,
    tail: f64,
    concentrator: f64,
    max_utilization: f64,
    bridge_utilization: f64,
}

/// The pair journeys of one evaluation, one slot per ordered pair of rate
/// classes (`SystemRates::rate_class`): pairs of one class pair are
/// bit-identical, so heterogeneous organizations solve each once instead of
/// once per ordered cluster pair (Org B: 9 for 240 pairs), and a lookup is an
/// index. A slot is filled only on success, so the first failing pair is
/// always computed (and reported) fresh.
#[derive(Debug)]
pub(crate) struct PairTable {
    slots: Vec<Option<PairLatency>>,
    /// Scratch for `service::mean_inter_network_latency`.
    walks: Vec<StageWalk>,
}

impl PairTable {
    /// An empty table for `classes` rate classes.
    pub(crate) fn new(classes: usize) -> Self {
        PairTable { slots: vec![None; classes * classes], walks: Vec::new() }
    }
}

/// Computes the inter-cluster latency seen by messages originating in cluster `source`.
///
/// Under uniform traffic the per-destination quantities are averaged
/// arithmetically over the `C − 1` destination clusters, exactly as published
/// (Eqs. 31 and 34). Under a non-uniform destination mix each destination is
/// weighted by the probability `q(i,v)/P_o^{(i)}` that an external message of
/// this cluster actually goes there (destinations that receive none of this
/// cluster's traffic are skipped entirely, so a saturated but unused pair
/// journey cannot poison the average).
///
/// Each pair of rate classes is solved once per table.
pub(crate) fn inter_cluster_latency(
    rates: &SystemRates,
    hops: &HopCache,
    source: usize,
    times: &ChannelTimes,
    table: &mut PairTable,
) -> Result<InterClusterLatency> {
    let num_clusters = rates.clusters().len();
    let weights = rates.destination_weights(source);
    let row = rates.rate_class(source) * rates.rate_classes();

    let mut network_sum = 0.0;
    let mut wait_sum = 0.0;
    let mut tail_sum = 0.0;
    let mut concentrator_sum = 0.0;
    let mut max_utilization: f64 = 0.0;
    let mut max_bridge_utilization: f64 = 0.0;

    for v in 0..num_clusters {
        if v == source {
            continue;
        }
        // Uniform: every destination weighs 1/(C−1) (applied after the sum, in
        // the published sum-then-divide form). Non-uniform: the mix weight.
        let weight = match &weights {
            None => 1.0,
            Some(w) if w[v] > 0.0 => w[v],
            Some(_) => continue,
        };
        let slot = row + rates.rate_class(v);
        let pair = match table.slots[slot] {
            Some(cached) => cached,
            None => {
                let fresh = pair_latency(rates, hops, source, v, times, &mut table.walks)?;
                table.slots[slot] = Some(fresh);
                fresh
            }
        };
        max_utilization = max_utilization.max(pair.max_utilization);
        max_bridge_utilization = max_bridge_utilization.max(pair.bridge_utilization);
        network_sum += weight * pair.network;
        wait_sum += weight * pair.wait;
        tail_sum += weight * pair.tail;
        concentrator_sum += weight * pair.concentrator;
    }

    // The uniform path divides by C−1 here; the weighted path's weights already
    // sum to one. Eq. 34's factor 2 lives in the concentrator module.
    let norm = if weights.is_none() { (num_clusters - 1) as f64 } else { 1.0 };
    let network = network_sum / norm;
    let source_wait = wait_sum / norm;
    let tail = tail_sum / norm;
    let concentrator_wait = concentrator::mean_concentrator_waiting(concentrator_sum, norm);

    Ok(InterClusterLatency {
        network,
        source_wait,
        tail,
        total: network + source_wait + tail,
        concentrator_wait,
        max_channel_utilization: max_utilization,
        max_bridge_utilization,
    })
}

/// Evaluates one `(source, v)` pair journey (Eqs. 26–33); `walks` is scratch
/// for the stage walks.
fn pair_latency(
    rates: &SystemRates,
    hops: &HopCache,
    source: usize,
    v: usize,
    times: &ChannelTimes,
    walks: &mut Vec<StageWalk>,
) -> Result<PairLatency> {
    let src = rates.cluster(source);
    let hops_src = hops.cluster(src.levels);
    let dst = rates.cluster(v);
    let hops_dst = hops.cluster(dst.levels);
    let pair = rates.pair(source, v);

    let network = service::mean_inter_network_latency(
        hops_src,
        hops_dst,
        hops.icn2(),
        pair.eta_ecn1,
        pair.eta_icn2,
        times,
        walks,
    );
    service::check_channel_utilization(&network, Some(source))?;

    let wait = source_queue::waiting_time(&SourceQueueInput {
        kind: SourceQueueKind::Inter,
        per_node_rate: src.per_node_ecn1_rate,
        network_latency: network.latency,
        minimum_latency: times.message_node_time(),
        cluster: Some(source),
    })?;

    let tail = tail::inter_tail_time(hops_src, hops_dst, hops.icn2(), times);
    Ok(PairLatency {
        network: network.latency,
        wait,
        tail,
        concentrator: concentrator::concentrator_waiting(pair.lambda_icn2, times, source)?,
        max_utilization: network.max_utilization,
        bridge_utilization: concentrator::concentrator_utilization(pair.lambda_icn2, times),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::{organizations, NetworkTechnology, TrafficConfig};

    /// One source cluster's latency on an empty table.
    fn fresh_latency(
        rates: &SystemRates,
        hops: &HopCache,
        source: usize,
        times: &ChannelTimes,
    ) -> Result<InterClusterLatency> {
        let mut table = PairTable::new(rates.rate_classes());
        inter_cluster_latency(rates, hops, source, times, &mut table)
    }

    fn setup(rate: f64) -> (SystemRates, HopCache, ChannelTimes) {
        let sys = organizations::table1_org_b();
        let traffic = TrafficConfig::uniform(32, 256.0, rate).unwrap();
        let hops = HopCache::build(&sys).unwrap();
        let rates = SystemRates::compute(&sys, &traffic, &hops).unwrap();
        let times = ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic);
        (rates, hops, times)
    }

    #[test]
    fn components_add_up() {
        let (rates, hops, times) = setup(1e-4);
        let lat = fresh_latency(&rates, &hops, 0, &times).unwrap();
        assert!((lat.total - (lat.network + lat.source_wait + lat.tail)).abs() < 1e-12);
        assert!(lat.network > 0.0 && lat.tail > 0.0);
        assert!(lat.concentrator_wait > 0.0);
        assert!(lat.max_channel_utilization < 1.0);
    }

    #[test]
    fn inter_latency_exceeds_intra_latency() {
        let (rates, hops, times) = setup(1e-4);
        let inter = fresh_latency(&rates, &hops, 0, &times).unwrap();
        let intra = crate::intra::intra_cluster_latency(
            rates.cluster(0),
            hops.cluster(rates.cluster(0).levels),
            &times,
        )
        .unwrap();
        assert!(inter.total > intra.total, "three networks cost more than one");
    }

    #[test]
    fn latency_grows_with_load() {
        let (r1, h1, t1) = setup(1e-4);
        let (r2, h2, t2) = setup(8e-4);
        let low = fresh_latency(&r1, &h1, 11, &t1).unwrap();
        let high = fresh_latency(&r2, &h2, 11, &t2).unwrap();
        assert!(high.total > low.total);
        assert!(high.concentrator_wait > low.concentrator_wait);
    }

    #[test]
    fn saturation_at_high_load_is_reported() {
        // At λ_g = 5e-3 the Org B concentrators are far past saturation.
        let (rates, hops, times) = setup(5e-3);
        let err = fresh_latency(&rates, &hops, 11, &times);
        assert!(err.is_err());
    }

    #[test]
    fn source_cluster_size_matters() {
        // Messages from a big cluster see more ECN1 contention (larger λ_E1) but the
        // same ICN2; totals must differ between a 16-node and a 64-node source.
        let (rates, hops, times) = setup(4e-4);
        let small = fresh_latency(&rates, &hops, 0, &times).unwrap();
        let big = fresh_latency(&rates, &hops, 11, &times).unwrap();
        assert!((small.total - big.total).abs() > 1e-9);
    }
}
