//! Message and channel rates (paper Eqs. 5–13).
//!
//! All rates are expressed in messages per time unit. For a cluster `i` with `N_i`
//! nodes, outgoing-request probability `P_o^{(i)}` (Eq. 13) and per-node generation
//! rate `λ_g`:
//!
//! ```text
//! λ_I1^{(i)}   = N_i (1 − P_o^{(i)}) λ_g                         (Eq. 5)
//! λ_E1^{(i,v)} = N_i P_o^{(i)} λ_g + N_v P_o^{(v)} λ_g            (Eq. 6)
//! λ_I2^{(i,v)} = (N_i·[N_i P_o^{(i)}] + N_v·[N_v P_o^{(v)}]) λ_g / (N_i + N_v)   (Eq. 7)
//!
//! η_I1^{(i)}   = d_avg^{(i)} λ_I1^{(i)}   / (4 n_i N_i)           (Eq. 10)
//! η_E1^{(i,v)} = d_avg^{(i)} λ_E1^{(i,v)} / (4 n_i N_i)           (Eq. 11)
//! η_I2^{(i,v)} = d_avg^{(c)} λ_I2^{(i,v)} / (4 n_c)               (Eq. 12)
//! ```
//!
//! `d_avg` is the average number of links a message crosses in the respective network
//! (Eqs. 8–9), and the `4·n·N` denominator is the paper's count of channels over which
//! the traffic spreads.

use crate::{ModelError, Result};
use mcnet_system::{MultiClusterSystem, TrafficConfig, TrafficPattern};
use mcnet_topology::distance::HopDistribution;

/// The average destination-cluster distribution of every source cluster — the
/// non-uniform-traffic generalization of the paper's uniform-destination
/// assumption (assumption 2).
///
/// `q(i, v)` is the probability that a message generated by a (uniformly
/// chosen) node of cluster `i` is destined for a node of cluster `v`;
/// `q(i, i)` is the staying probability, so the outgoing-request probability of
/// Eq. (13) generalizes to `P_o^{(i)} = 1 − q(i, i)`. The uniform pattern
/// reproduces Eq. (13) exactly; [`TrafficPattern::Hotspot`] concentrates mass
/// on the hot node's cluster and [`TrafficPattern::LocalFavoring`] on the
/// diagonal. Within every network the model still spreads traffic uniformly
/// over channels (the Eqs. 10–12 denominators) — the mix redistributes traffic
/// *between* clusters, not within a tree.
#[derive(Debug, Clone, PartialEq)]
struct DestinationMix {
    /// `q[i][v]`, row-stochastic.
    q: Vec<Vec<f64>>,
}

impl DestinationMix {
    /// Builds the mix for a system and destination pattern.
    fn for_pattern(system: &MultiClusterSystem, pattern: &TrafficPattern) -> Result<Self> {
        pattern.validate().map_err(ModelError::from)?;
        let c = system.num_clusters();
        let n_total = system.total_nodes() as f64;
        let sizes: Vec<f64> =
            system.iter_clusters().map(|(_, spec)| spec.num_nodes() as f64).collect();
        let q = match *pattern {
            TrafficPattern::Uniform => (0..c)
                .map(|i| {
                    (0..c)
                        .map(|v| {
                            let d = if v == i { 1.0 } else { 0.0 };
                            (sizes[v] - d) / (n_total - 1.0)
                        })
                        .collect()
                })
                .collect(),
            TrafficPattern::Hotspot { hotspot, fraction } => {
                let h = cluster_of_node(system, hotspot)?;
                (0..c)
                    .map(|i| {
                        (0..c)
                            .map(|v| {
                                let dh = if v == h { 1.0 } else { 0.0 };
                                let div = if v == i { 1.0 } else { 0.0 };
                                // A non-hot source sends `fraction` straight to the
                                // hot node and the rest uniformly over the other
                                // N−1 nodes (the hot node included, as in the
                                // simulator's sampling).
                                let non_hot = fraction * dh
                                    + (1.0 - fraction) * (sizes[v] - div) / (n_total - 1.0);
                                if i == h {
                                    // Cluster h averages its N_h−1 non-hot nodes
                                    // with the hot node itself, which sends
                                    // uniformly.
                                    ((sizes[i] - 1.0) * non_hot + (sizes[v] - dh) / (n_total - 1.0))
                                        / sizes[i]
                                } else {
                                    non_hot
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
            TrafficPattern::LocalFavoring { locality } => (0..c)
                .map(|i| {
                    // A single-node cluster cannot keep traffic local (the
                    // simulator falls through to the outside-uniform branch).
                    let stay = if sizes[i] > 1.0 { locality } else { 0.0 };
                    (0..c)
                        .map(|v| {
                            if v == i {
                                stay
                            } else {
                                (1.0 - stay) * sizes[v] / (n_total - sizes[i])
                            }
                        })
                        .collect()
                })
                .collect(),
        };
        Ok(DestinationMix { q })
    }

    /// `P(dest cluster = v | source cluster = i)`.
    fn to(&self, i: usize, v: usize) -> f64 {
        self.q[i][v]
    }

    /// The staying probability `q(i, i)`.
    fn stay(&self, i: usize) -> f64 {
        self.q[i][i]
    }

    /// The destination weights of the Eq. (31)/(34) averages seen from cluster
    /// `i`: `w(v) = q(i, v) / (1 − q(i, i))` for `v ≠ i`, zero on the diagonal
    /// (and everywhere if the cluster sends nothing outside).
    fn outgoing_weights(&self, i: usize) -> Vec<f64> {
        let p_o = 1.0 - self.q[i][i];
        self.q[i]
            .iter()
            .enumerate()
            .map(|(v, &qv)| if v == i || p_o <= 0.0 { 0.0 } else { qv / p_o })
            .collect()
    }
}

/// The cluster containing a global node index.
fn cluster_of_node(system: &MultiClusterSystem, node: usize) -> Result<usize> {
    for i in 0..system.num_clusters() {
        let range = system.node_range(i).map_err(ModelError::from)?;
        if range.contains(&node) {
            return Ok(i);
        }
    }
    Err(ModelError::InvalidConfiguration {
        reason: format!(
            "hot-spot node {node} is out of range for a system of {} nodes",
            system.total_nodes()
        ),
    })
}

/// Per-cluster rate quantities that do not depend on the destination cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRates {
    /// Cluster index.
    pub cluster: usize,
    /// Number of nodes `N_i`.
    pub nodes: usize,
    /// Tree levels `n_i`.
    pub levels: usize,
    /// Outgoing-request probability `P_o^{(i)}` (Eq. 13).
    pub outgoing_probability: f64,
    /// Average message distance within the cluster's trees, `d_avg^{(i)}` (Eq. 8).
    pub average_distance: f64,
    /// Aggregate intra-cluster message rate `λ_I1^{(i)}` (Eq. 5).
    pub lambda_icn1: f64,
    /// Per-channel message rate in ICN1, `η_I1^{(i)}` (Eq. 10).
    pub eta_icn1: f64,
    /// Per-node rate of messages injected into ICN1, `(1 − P_o^{(i)})·λ_g`.
    pub per_node_icn1_rate: f64,
    /// Per-node rate of messages injected into ECN1, `P_o^{(i)}·λ_g`.
    pub per_node_ecn1_rate: f64,
}

/// Rate quantities of one ordered cluster pair `(i, v)` for the inter-cluster journey.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRates {
    /// Source cluster `i`.
    pub source: usize,
    /// Destination cluster `v`.
    pub destination: usize,
    /// Aggregate rate on the ECN1 networks relevant to this pair, `λ_E1^{(i,v)}` (Eq. 6).
    pub lambda_ecn1: f64,
    /// Aggregate rate on ICN2 relevant to this pair, `λ_I2^{(i,v)}` (Eq. 7).
    pub lambda_icn2: f64,
    /// Per-channel rate in the source-side ECN1, `η_E1^{(i,v)}` (Eq. 11).
    pub eta_ecn1: f64,
    /// Per-channel rate in ICN2, `η_I2^{(i,v)}` (Eq. 12).
    pub eta_icn2: f64,
}

/// All rate quantities of a system under a given traffic configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRates {
    clusters: Vec<ClusterRates>,
    /// Average message distance in ICN2 (over the concentrators), `d_avg^{(c)}`.
    pub icn2_average_distance: f64,
    /// ICN2 tree levels `n_c`.
    pub icn2_levels: usize,
    /// The per-node generation rate `λ_g`, equal in every cluster (the paper's
    /// assumption 3).
    generation_rate: f64,
    /// Aggregate external traffic *into* each cluster, `Σ_{u≠v} N_u λ_u q(u,v)`.
    /// `None` on the uniform path, where inflow equals outflow by symmetry and
    /// Eq. (6) is kept in its published (bit-for-bit identical) form.
    external_in: Option<Vec<f64>>,
    /// The destination mix behind the rates; `None` for uniform traffic.
    mix: Option<DestinationMix>,
    /// The rate class of every cluster (see [`SystemRates::rate_class`]).
    class_of: Vec<usize>,
    /// The number of distinct rate classes.
    classes: usize,
}

impl SystemRates {
    /// Computes every per-cluster rate for the given system and traffic. The
    /// average distances (Eqs. 8–9) are read from `hops`, the system's own
    /// [`HopCache`].
    pub fn compute(
        system: &MultiClusterSystem,
        traffic: &TrafficConfig,
        hops: &HopCache,
    ) -> Result<Self> {
        traffic.validate().map_err(ModelError::from)?;
        let icn2_average_distance = hops.icn2().average_distance();

        // The uniform pattern keeps the paper's published formulas verbatim
        // (and bit-for-bit: Eq. 13's P_o rather than the equivalent 1 − q),
        // non-uniform patterns go through the destination mix.
        let mix = if traffic.pattern.is_uniform() {
            None
        } else {
            Some(DestinationMix::for_pattern(system, &traffic.pattern)?)
        };

        let mut clusters = Vec::with_capacity(system.num_clusters());
        for (i, spec) in system.iter_clusters() {
            let p_o = match &mix {
                None => system.outgoing_probability(i)?,
                Some(mix) => 1.0 - mix.stay(i),
            };
            // The rate-dependent fields are filled in by `rebind` below.
            clusters.push(ClusterRates {
                cluster: i,
                nodes: spec.num_nodes(),
                levels: spec.levels,
                outgoing_probability: p_o,
                average_distance: hops.cluster(spec.levels).average_distance(),
                lambda_icn1: 0.0,
                eta_icn1: 0.0,
                per_node_icn1_rate: 0.0,
                per_node_ecn1_rate: 0.0,
            });
        }
        let (class_of, classes) = rate_classes(&clusters, mix.is_some());
        let mut rates = SystemRates {
            clusters,
            icn2_average_distance,
            icn2_levels: system.icn2_levels(),
            generation_rate: 0.0,
            external_in: None,
            mix,
            class_of,
            classes,
        };
        rates.rebind(traffic.generation_rate);
        Ok(rates)
    }

    /// Derives every rate-dependent quantity (Eqs. 5 and 10, the per-node
    /// injection rates and the mix's incoming aggregates) at a new per-node
    /// generation rate, keeping the rate-independent structure (outgoing
    /// probabilities, hop distances, destination mix, rate classes).
    pub fn rebind(&mut self, generation_rate: f64) {
        self.generation_rate = generation_rate;
        for c in &mut self.clusters {
            let p_o = c.outgoing_probability;
            c.lambda_icn1 = c.nodes as f64 * (1.0 - p_o) * generation_rate;
            c.eta_icn1 =
                c.average_distance * c.lambda_icn1 / (4.0 * c.levels as f64 * c.nodes as f64);
            c.per_node_icn1_rate = (1.0 - p_o) * generation_rate;
            c.per_node_ecn1_rate = p_o * generation_rate;
        }
        let clusters = &self.clusters;
        self.external_in = self.mix.as_ref().map(|mix| {
            (0..clusters.len())
                .map(|v| {
                    clusters
                        .iter()
                        .filter(|c| c.cluster != v)
                        .map(|c| c.nodes as f64 * generation_rate * mix.to(c.cluster, v))
                        .sum()
                })
                .collect()
        });
    }

    /// Per-cluster rates.
    pub fn cluster(&self, i: usize) -> &ClusterRates {
        &self.clusters[i]
    }

    /// All per-cluster rates.
    pub fn clusters(&self) -> &[ClusterRates] {
        &self.clusters
    }

    /// The per-node generation rate `λ_g` the rates were computed for.
    pub fn generation_rate(&self) -> f64 {
        self.generation_rate
    }

    /// Rates for the ordered cluster pair `(i, v)` (Eqs. 6–7, 11–12).
    ///
    /// The published Eq. (6) adds the *outgoing* aggregates of both clusters,
    /// which is exact under uniform traffic where each cluster's inflow equals
    /// its outflow. Under a non-uniform destination mix the destination side is
    /// its *incoming* aggregate instead (a hot-spot cluster's ECN1 descent
    /// carries far more than that cluster sends).
    pub fn pair(&self, i: usize, v: usize) -> PairRates {
        let a = &self.clusters[i];
        let b = &self.clusters[v];
        let ni = a.nodes as f64;
        let nv = b.nodes as f64;
        let out_i = ni * a.outgoing_probability * self.generation_rate;
        let in_v = match &self.external_in {
            None => nv * b.outgoing_probability * self.generation_rate,
            Some(external_in) => external_in[v],
        };
        let lambda_ecn1 = out_i + in_v;
        let lambda_icn2 = (ni * out_i + nv * in_v) / (ni + nv);
        let eta_ecn1 = a.average_distance * lambda_ecn1 / (4.0 * a.levels as f64 * ni);
        let eta_icn2 = self.icn2_average_distance * lambda_icn2 / (4.0 * self.icn2_levels as f64);
        PairRates { source: i, destination: v, lambda_ecn1, lambda_icn2, eta_ecn1, eta_icn2 }
    }

    /// The rate class of cluster `i`, in `0..self.rate_classes()`.
    ///
    /// Two clusters share a class when every field of theirs that
    /// [`SystemRates::pair`] and the intra- and inter-cluster latencies read
    /// is bit-equal (node count, tree depth, outgoing probability and average
    /// distance), so their latencies and the rates
    /// of their pairs are bit-identical at every `λ_g` and the model solves
    /// each class, and each ordered pair of classes, once. Under a
    /// non-uniform destination mix a pair also reads the destination's
    /// incoming aggregate, and every cluster is its own class.
    pub(crate) fn rate_class(&self, i: usize) -> usize {
        self.class_of[i]
    }

    /// The number of distinct rate classes.
    pub(crate) fn rate_classes(&self) -> usize {
        self.classes
    }

    /// Per-destination weights of the Eq. (31)/(34) averages seen from cluster
    /// `i`: `None` under uniform traffic (where the paper averages destination
    /// clusters arithmetically and the published form is kept verbatim),
    /// `Some(w)` with `w[v] = q(i,v)/P_o^{(i)}` otherwise.
    pub fn destination_weights(&self, i: usize) -> Option<Vec<f64>> {
        self.mix.as_ref().map(|m| m.outgoing_weights(i))
    }
}

/// Groups clusters into rate classes (see [`SystemRates::rate_class`]),
/// numbered in order of first appearance; returns each cluster's class and the
/// class count.
fn rate_classes(clusters: &[ClusterRates], mixed: bool) -> (Vec<usize>, usize) {
    if mixed {
        return ((0..clusters.len()).collect(), clusters.len());
    }
    let key = |c: &ClusterRates| {
        (c.nodes, c.levels, c.outgoing_probability.to_bits(), c.average_distance.to_bits())
    };
    let mut representatives: Vec<usize> = Vec::new();
    let class_of = clusters
        .iter()
        .map(|c| match representatives.iter().position(|&r| key(&clusters[r]) == key(c)) {
            Some(class) => class,
            None => {
                representatives.push(c.cluster);
                representatives.len() - 1
            }
        })
        .collect();
    (class_of, representatives.len())
}

/// Cache of hop-count distributions keyed by tree level count, shared by the intra- and
/// inter-cluster latency computations so each distinct `n` is computed once.
#[derive(Debug, Clone, PartialEq)]
pub struct HopCache {
    per_levels: std::collections::BTreeMap<usize, HopDistribution>,
    icn2: HopDistribution,
}

impl HopCache {
    /// Builds the cache for every distinct cluster size of the system plus ICN2.
    pub fn build(system: &MultiClusterSystem) -> Result<Self> {
        let m = system.ports();
        let mut per_levels = std::collections::BTreeMap::new();
        for (_, spec) in system.iter_clusters() {
            if let std::collections::btree_map::Entry::Vacant(e) = per_levels.entry(spec.levels) {
                e.insert(HopDistribution::paper(m, spec.levels)?);
            }
        }
        let icn2 = HopDistribution::paper(m, system.icn2_levels())?;
        Ok(HopCache { per_levels, icn2 })
    }

    /// The hop distribution of a cluster with the given tree level count.
    ///
    /// # Panics
    /// Panics if the level count was not part of the system the cache was built for.
    pub fn cluster(&self, levels: usize) -> &HopDistribution {
        self.per_levels
            .get(&levels)
            .expect("hop cache queried for a cluster size absent from the system")
    }

    /// The hop distribution of the inter-cluster network ICN2.
    pub fn icn2(&self) -> &HopDistribution {
        &self.icn2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;

    fn rates_for(system: &MultiClusterSystem, rate: f64) -> SystemRates {
        let traffic = TrafficConfig::uniform(32, 256.0, rate).unwrap();
        SystemRates::compute(system, &traffic, &HopCache::build(system).unwrap()).unwrap()
    }

    #[test]
    fn outgoing_probability_and_weights_org_a() {
        let sys = organizations::table1_org_a();
        let rates = rates_for(&sys, 1e-4);
        // Cluster 0 has 8 nodes out of 1120: P_o = (1120-8)/1119.
        let c0 = rates.cluster(0);
        assert!((c0.outgoing_probability - 1112.0 / 1119.0).abs() < 1e-12);
        // Cluster 31 has 128 nodes: P_o = 992/1119.
        let c31 = rates.cluster(31);
        assert!((c31.outgoing_probability - 992.0 / 1119.0).abs() < 1e-12);
        assert!(c31.outgoing_probability < c0.outgoing_probability);
    }

    #[test]
    fn rates_scale_linearly_with_lambda_g() {
        let sys = organizations::table1_org_b();
        let r1 = rates_for(&sys, 1e-4);
        let r2 = rates_for(&sys, 2e-4);
        for i in 0..sys.num_clusters() {
            assert!((r2.cluster(i).lambda_icn1 - 2.0 * r1.cluster(i).lambda_icn1).abs() < 1e-15);
            assert!((r2.cluster(i).eta_icn1 - 2.0 * r1.cluster(i).eta_icn1).abs() < 1e-15);
        }
        let p1 = r1.pair(0, 15);
        let p2 = r2.pair(0, 15);
        assert!((p2.lambda_ecn1 - 2.0 * p1.lambda_ecn1).abs() < 1e-15);
        assert!((p2.lambda_icn2 - 2.0 * p1.lambda_icn2).abs() < 1e-15);
        assert!((p2.eta_icn2 - 2.0 * p1.eta_icn2).abs() < 1e-15);
    }

    #[test]
    fn eta_icn1_is_independent_of_cluster_size_for_equal_levels() {
        // η_I1 = d_avg (1-P_o) λ_g / (4 n): the N_i factors cancel, so two clusters
        // with the same n but different P_o differ only through P_o.
        let sys = organizations::table1_org_a();
        let rates = rates_for(&sys, 1e-4);
        let a = rates.cluster(0); // n=1
        let expected = a.average_distance * a.per_node_icn1_rate / (4.0 * a.levels as f64);
        assert!((a.eta_icn1 - expected).abs() < 1e-18);
    }

    #[test]
    fn pair_rates_are_symmetric() {
        let sys = organizations::table1_org_b();
        let rates = rates_for(&sys, 1e-4);
        let ab = rates.pair(0, 11);
        let ba = rates.pair(11, 0);
        // λ quantities are symmetric by construction; η_E1 differs because it is
        // normalised by the source cluster's tree.
        assert!((ab.lambda_ecn1 - ba.lambda_ecn1).abs() < 1e-18);
        assert!((ab.lambda_icn2 - ba.lambda_icn2).abs() < 1e-18);
        assert!((ab.eta_icn2 - ba.eta_icn2).abs() < 1e-18);
    }

    #[test]
    fn larger_pairs_load_icn2_more() {
        let sys = organizations::table1_org_a();
        let rates = rates_for(&sys, 1e-4);
        // Pair of two 128-node clusters vs pair of two 8-node clusters.
        let big = rates.pair(28, 31);
        let small = rates.pair(0, 1);
        assert!(big.lambda_icn2 > 10.0 * small.lambda_icn2);
    }

    #[test]
    fn destination_mix_rows_are_stochastic() {
        let sys = organizations::small_test_org();
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Hotspot { hotspot: 0, fraction: 0.3 },
            TrafficPattern::Hotspot { hotspot: sys.total_nodes() - 1, fraction: 1.0 },
            TrafficPattern::LocalFavoring { locality: 0.8 },
        ];
        for pattern in patterns {
            let mix = DestinationMix::for_pattern(&sys, &pattern).unwrap();
            for i in 0..sys.num_clusters() {
                let row: f64 = (0..sys.num_clusters()).map(|v| mix.to(i, v)).sum();
                assert!((row - 1.0).abs() < 1e-12, "{pattern:?}: row {i} sums to {row}");
                let weights: f64 = mix.outgoing_weights(i).iter().sum();
                assert!(
                    (weights - 1.0).abs() < 1e-12 || weights == 0.0,
                    "{pattern:?}: weights of {i} sum to {weights}"
                );
            }
        }
    }

    #[test]
    fn uniform_mix_reproduces_eq13() {
        let sys = organizations::table1_org_a();
        let mix = DestinationMix::for_pattern(&sys, &TrafficPattern::Uniform).unwrap();
        for i in 0..sys.num_clusters() {
            let p_o = sys.outgoing_probability(i).unwrap();
            assert!((1.0 - mix.stay(i) - p_o).abs() < 1e-12);
        }
    }

    #[test]
    fn hotspot_mix_concentrates_on_the_hot_cluster() {
        let sys = organizations::small_test_org();
        // Node 0 lives in cluster 0.
        let mix = DestinationMix::for_pattern(
            &sys,
            &TrafficPattern::Hotspot { hotspot: 0, fraction: 0.5 },
        )
        .unwrap();
        let uniform = DestinationMix::for_pattern(&sys, &TrafficPattern::Uniform).unwrap();
        for i in 1..sys.num_clusters() {
            assert!(mix.to(i, 0) > uniform.to(i, 0), "cluster {i} must send more to cluster 0");
        }
        // A hot-spot outside the node range is rejected.
        let bad = DestinationMix::for_pattern(
            &sys,
            &TrafficPattern::Hotspot { hotspot: sys.total_nodes(), fraction: 0.5 },
        );
        assert!(matches!(bad, Err(ModelError::InvalidConfiguration { .. })));
    }

    #[test]
    fn hotspot_rates_break_the_inflow_outflow_symmetry() {
        let sys = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 0, fraction: 0.4 })
            .unwrap();
        let hops = HopCache::build(&sys).unwrap();
        let rates = SystemRates::compute(&sys, &traffic, &hops).unwrap();
        assert!(rates.mix.is_some());
        // Journeys *into* the hot cluster see more ECN1/ICN2 traffic than
        // journeys out of it toward a cold cluster.
        let into_hot = rates.pair(2, 0);
        let out_of_hot = rates.pair(0, 2);
        assert!(into_hot.lambda_ecn1 > out_of_hot.lambda_ecn1);
        assert!(into_hot.lambda_icn2 > out_of_hot.lambda_icn2);
        // Uniform rates keep the published symmetric form and report no mix.
        let uniform = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let u = SystemRates::compute(&sys, &uniform, &hops).unwrap();
        assert!(u.mix.is_none());
        assert!(u.destination_weights(0).is_none());
        assert!((u.pair(0, 2).lambda_ecn1 - u.pair(2, 0).lambda_ecn1).abs() < 1e-18);
    }

    #[test]
    fn local_favoring_mix_keeps_traffic_on_the_diagonal() {
        let sys = organizations::small_test_org();
        let mix =
            DestinationMix::for_pattern(&sys, &TrafficPattern::LocalFavoring { locality: 0.9 })
                .unwrap();
        for i in 0..sys.num_clusters() {
            assert!((mix.stay(i) - 0.9).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_rate_produces_zero_loads() {
        let sys = organizations::small_test_org();
        let rates = rates_for(&sys, 0.0);
        for c in rates.clusters() {
            assert_eq!(c.lambda_icn1, 0.0);
            assert_eq!(c.eta_icn1, 0.0);
        }
        let p = rates.pair(0, 1);
        assert_eq!(p.lambda_icn2, 0.0);
        assert_eq!(p.eta_ecn1, 0.0);
    }
}
