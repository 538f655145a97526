//! The top-level analytical model: per-cluster mixture and system-wide average
//! (Eqs. 35–36).
//!
//! Every evaluation memoizes its journeys by their complete bitwise inputs:
//! each distinct cluster class and `(source class, destination class)` pair
//! journey is solved once per evaluation instead of once per cluster/pair
//! (Org B: 9 distinct pair journeys behind 240 ordered pairs). The memo keys
//! hold every input bit of a journey and errors are never cached, so reports
//! and saturation errors are exactly those of solving every journey.

use crate::inter::{self, InterClusterLatency, PairJourneyMemo};
use crate::intra::{self, IntraClusterLatency, IntraJourneyMemo};
use crate::options::ModelOptions;
use crate::rates::{HopCache, SystemRates};
use crate::service::ChannelTimes;
use crate::{ModelError, Result};
use mcnet_system::{MultiClusterSystem, TrafficConfig};
use serde::{Deserialize, Serialize};

/// Latency breakdown of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterLatency {
    /// Cluster index.
    pub cluster: usize,
    /// Node count `N_i`.
    pub nodes: usize,
    /// Weight `N_i / N` used by the system-wide average (Eq. 36).
    pub weight: f64,
    /// Outgoing-request probability `P_o^{(i)}` (Eq. 13).
    pub outgoing_probability: f64,
    /// Intra-cluster latency breakdown (`T_I1^{(i)}`, Eq. 25).
    pub intra: IntraClusterLatency,
    /// Inter-cluster latency breakdown (`T_{E1&I2}^{(i)}` and `W_d^{(i)}`, Eqs. 31, 34).
    pub inter: InterClusterLatency,
    /// Mean message latency seen from this cluster,
    /// `ℓ^{(i)} = (1 − P_o) T_I1 + P_o (T_{E1&I2} + W_d)` (Eq. 35).
    pub mean_latency: f64,
}

/// The full latency report of one model evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// The per-node generation rate the report was computed for.
    pub generation_rate: f64,
    /// Per-cluster breakdowns.
    pub clusters: Vec<ClusterLatency>,
    /// System-wide mean message latency `ℓ = Σ_i (N_i/N) ℓ^{(i)}` (Eq. 36).
    pub total_latency: f64,
    /// Worst per-channel utilisation encountered anywhere in the model.
    pub max_channel_utilization: f64,
}

impl LatencyReport {
    /// `true` when every channel utilisation stayed below 1 (the report is only
    /// produced in that case, so this is `true` for every successfully returned
    /// report; it exists for symmetry with simulation reports).
    pub fn is_steady_state(&self) -> bool {
        self.max_channel_utilization < 1.0
    }

    /// The cluster with the highest mean latency (usually the smallest cluster, whose
    /// traffic is almost entirely external).
    pub fn worst_cluster(&self) -> Option<&ClusterLatency> {
        self.clusters.iter().max_by(|a, b| a.mean_latency.total_cmp(&b.mean_latency))
    }

    /// Node-weighted mean of the intra-cluster latencies only.
    pub fn mean_intra_latency(&self) -> f64 {
        self.clusters.iter().map(|c| c.weight * c.intra.total).sum()
    }

    /// Node-weighted mean of the inter-cluster latencies (including concentrators).
    pub fn mean_inter_latency(&self) -> f64 {
        self.clusters.iter().map(|c| c.weight * (c.inter.total + c.inter.concentrator_wait)).sum()
    }
}

/// The analytical model of the paper, bound to one system and one traffic point.
#[derive(Debug, Clone)]
pub struct AnalyticalModel<'a> {
    system: &'a MultiClusterSystem,
    traffic: TrafficConfig,
    options: ModelOptions,
    rates: SystemRates,
    hops: HopCache,
    times: ChannelTimes,
}

impl<'a> AnalyticalModel<'a> {
    /// Builds the model with the default (paper) options.
    pub fn new(system: &'a MultiClusterSystem, traffic: &TrafficConfig) -> Result<Self> {
        Self::with_options(system, traffic, ModelOptions::default())
    }

    /// Builds the model with explicit interpretation options.
    pub fn with_options(
        system: &'a MultiClusterSystem,
        traffic: &TrafficConfig,
        options: ModelOptions,
    ) -> Result<Self> {
        let rates = SystemRates::compute(system, traffic, &options)?;
        let hops = HopCache::build(system, &options)?;
        let times = ChannelTimes::new(system.technology(), traffic);
        Ok(AnalyticalModel { system, traffic: *traffic, options, rates, hops, times })
    }

    /// Builds the model with per-cluster generation-rate scaling (the
    /// processor-heterogeneity extension).
    pub fn with_rate_scaling(
        system: &'a MultiClusterSystem,
        traffic: &TrafficConfig,
        scale: &[f64],
        options: ModelOptions,
    ) -> Result<Self> {
        let rates = SystemRates::compute_scaled(system, traffic, scale, &options)?;
        let hops = HopCache::build(system, &options)?;
        let times = ChannelTimes::new(system.technology(), traffic);
        Ok(AnalyticalModel { system, traffic: *traffic, options, rates, hops, times })
    }

    /// Rebinds the model to a new per-node generation rate without rebuilding
    /// the rate-independent structure (hop distributions, destination mix,
    /// outgoing probabilities). The result of a subsequent
    /// [`AnalyticalModel::evaluate`] is bit-identical to a model freshly built
    /// at that rate; only the construction cost is saved — this is what
    /// `ModelBackend::evaluate_batch` sweeps with.
    pub fn set_rate(&mut self, rate: f64) -> Result<()> {
        let traffic = self.traffic.with_rate(rate).map_err(ModelError::from)?;
        self.traffic = traffic;
        self.times = ChannelTimes::new(self.system.technology(), &traffic);
        self.rates.rebind(traffic.generation_rate);
        Ok(())
    }

    /// The system the model describes.
    pub fn system(&self) -> &MultiClusterSystem {
        self.system
    }

    /// The traffic point the model was built for.
    pub fn traffic(&self) -> &TrafficConfig {
        &self.traffic
    }

    /// The interpretation options in effect.
    pub fn options(&self) -> &ModelOptions {
        &self.options
    }

    /// The precomputed rate quantities.
    pub fn rates(&self) -> &SystemRates {
        &self.rates
    }

    fn cluster_latency_memoized(
        &self,
        cluster: usize,
        intra_memo: &mut IntraJourneyMemo,
        pair_memo: &mut PairJourneyMemo,
    ) -> Result<ClusterLatency> {
        let c = self.rates.cluster(cluster);
        let intra = intra::intra_cluster_latency(
            c,
            self.hops.cluster(c.levels),
            &self.times,
            &self.options,
            intra_memo,
        )?;
        let inter = inter::inter_cluster_latency(
            &self.rates,
            &self.hops,
            cluster,
            &self.times,
            &self.options,
            pair_memo,
        )?;
        let p_o = c.outgoing_probability;
        let mean_latency =
            (1.0 - p_o) * intra.total + p_o * (inter.total + inter.concentrator_wait);
        Ok(ClusterLatency {
            cluster,
            nodes: c.nodes,
            weight: self.system.cluster_weight(cluster)?,
            outgoing_probability: p_o,
            intra,
            inter,
            mean_latency,
        })
    }

    /// Evaluates the full model (Eq. 36). Fails with [`ModelError::Saturated`] when any
    /// queue or channel of the model is saturated at this load.
    pub fn evaluate(&self) -> Result<LatencyReport> {
        let mut intra_memo = IntraJourneyMemo::default();
        let mut pair_memo = PairJourneyMemo::default();
        let mut clusters = Vec::with_capacity(self.system.num_clusters());
        let mut total = 0.0;
        let mut max_util: f64 = 0.0;
        for i in 0..self.system.num_clusters() {
            let cl = self.cluster_latency_memoized(i, &mut intra_memo, &mut pair_memo)?;
            total += cl.weight * cl.mean_latency;
            max_util = max_util
                .max(cl.intra.max_channel_utilization)
                .max(cl.inter.max_channel_utilization);
            clusters.push(cl);
        }
        Ok(LatencyReport {
            generation_rate: self.traffic.generation_rate,
            clusters,
            total_latency: total,
            max_channel_utilization: max_util,
        })
    }

    /// Convenience: the total mean latency, or `None` if the system is saturated at
    /// this load (useful for plotting truncated curves).
    pub fn total_latency(&self) -> Option<f64> {
        self.evaluate().ok().map(|r| r.total_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;

    fn model(system: &MultiClusterSystem, rate: f64) -> LatencyReport {
        let traffic = TrafficConfig::uniform(32, 256.0, rate).unwrap();
        AnalyticalModel::new(system, &traffic).unwrap().evaluate().unwrap()
    }

    #[test]
    fn report_weights_and_totals_are_consistent() {
        let sys = organizations::table1_org_b();
        let report = model(&sys, 2e-4);
        let weight_sum: f64 = report.clusters.iter().map(|c| c.weight).sum();
        assert!((weight_sum - 1.0).abs() < 1e-12);
        let recomputed: f64 = report.clusters.iter().map(|c| c.weight * c.mean_latency).sum();
        assert!((recomputed - report.total_latency).abs() < 1e-12);
        assert!(report.is_steady_state());
        assert!(report.worst_cluster().is_some());
    }

    #[test]
    fn eq35_mixture_is_respected() {
        let sys = organizations::table1_org_a();
        let report = model(&sys, 1e-4);
        for c in &report.clusters {
            let expected = (1.0 - c.outgoing_probability) * c.intra.total
                + c.outgoing_probability * (c.inter.total + c.inter.concentrator_wait);
            assert!((c.mean_latency - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn latency_is_monotone_in_load_until_saturation() {
        let sys = organizations::table1_org_b();
        let mut prev = 0.0;
        for &rate in &[1e-4, 2e-4, 4e-4, 6e-4, 8e-4] {
            let report = model(&sys, rate);
            assert!(report.total_latency > prev, "latency must grow with load");
            prev = report.total_latency;
        }
    }

    #[test]
    fn saturation_is_detected_at_high_load() {
        let sys = organizations::table1_org_b();
        let traffic = TrafficConfig::uniform(32, 256.0, 5e-3).unwrap();
        let result = AnalyticalModel::new(&sys, &traffic).unwrap().evaluate();
        assert!(matches!(result, Err(ModelError::Saturated { .. })));
        let m = AnalyticalModel::new(&sys, &traffic).unwrap();
        assert_eq!(m.total_latency(), None);
    }

    #[test]
    fn larger_messages_increase_latency() {
        let sys = organizations::table1_org_b();
        let small = model(&sys, 1e-4);
        let traffic = TrafficConfig::uniform(64, 256.0, 1e-4).unwrap();
        let large = AnalyticalModel::new(&sys, &traffic).unwrap().evaluate().unwrap();
        assert!(large.total_latency > small.total_latency);
        // Larger flits too.
        let traffic = TrafficConfig::uniform(32, 512.0, 1e-4).unwrap();
        let large_flits = AnalyticalModel::new(&sys, &traffic).unwrap().evaluate().unwrap();
        assert!(large_flits.total_latency > small.total_latency);
    }

    #[test]
    fn external_traffic_dominates_the_mixture() {
        // With heavy cluster-size heterogeneity, P_o is close to 1 everywhere, so the
        // system-wide latency is close to the inter-cluster latency.
        let sys = organizations::table1_org_a();
        let report = model(&sys, 1e-4);
        let inter = report.mean_inter_latency();
        let intra = report.mean_intra_latency();
        assert!(report.total_latency > 0.8 * inter);
        assert!(intra < inter);
    }

    #[test]
    fn cluster_size_shapes_the_latency_mixture() {
        // Smaller clusters send almost everything off-cluster (higher P_o) and, having
        // a shallower ECN1, see a shorter inter-cluster journey; bigger clusters keep
        // more traffic local but pay deeper trees. The two effects produce different
        // per-cluster means and specific orderings of the components.
        let sys = organizations::table1_org_a();
        let report = model(&sys, 1e-4);
        let small = &report.clusters[0]; // 8 nodes, n = 1
        let big = &report.clusters[31]; // 128 nodes, n = 3
        assert!(small.outgoing_probability > big.outgoing_probability);
        assert!(small.intra.total < big.intra.total, "shallower ICN1 is faster");
        assert!(small.inter.total < big.inter.total, "shallower source ECN1 is faster");
        assert!((small.mean_latency - big.mean_latency).abs() > 1e-9);
    }

    #[test]
    fn saturation_search_brackets_the_knee() {
        let sys = organizations::table1_org_b();
        let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let sat = crate::ModelBackend::Tree(sys.clone())
            .saturation_rate(&template, ModelOptions::default(), 1e-2, 1e-6)
            .unwrap();
        assert_eq!(sat, 9.716796875e-4);
        // The curve must still be evaluable slightly below and saturated above.
        let below = TrafficConfig::uniform(32, 256.0, sat * 0.95).unwrap();
        assert!(AnalyticalModel::new(&sys, &below).unwrap().evaluate().is_ok());
        let above = TrafficConfig::uniform(32, 256.0, sat * 1.10).unwrap();
        assert!(AnalyticalModel::new(&sys, &above).unwrap().evaluate().is_err());
        // And it should fall inside the paper's Fig. 4 axis range (0 .. 1e-3).
        assert!(sat > 2e-4 && sat < 2e-3, "saturation rate {sat}");
    }

    #[test]
    fn saturation_search_rejects_bad_upper_bound() {
        let sys = organizations::table1_org_b();
        let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let tree = crate::ModelBackend::Tree(sys);
        assert!(tree.saturation_rate(&template, ModelOptions::default(), 1e-6, 1e-7).is_err());
    }

    #[test]
    fn rate_scaling_changes_the_result() {
        let sys = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(32, 256.0, 2e-4).unwrap();
        let uniform = AnalyticalModel::new(&sys, &traffic).unwrap().evaluate().unwrap();
        let scale = vec![2.0, 2.0, 1.0, 0.5];
        let scaled =
            AnalyticalModel::with_rate_scaling(&sys, &traffic, &scale, ModelOptions::default())
                .unwrap()
                .evaluate()
                .unwrap();
        assert!((uniform.total_latency - scaled.total_latency).abs() > 1e-9);
    }
}
