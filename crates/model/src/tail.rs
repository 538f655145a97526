//! Tail-flit draining time (Eqs. 24 and 32).
//!
//! After the header flit has reached the destination, the remaining flits stream
//! behind it; the paper accounts for the tail flit's journey as one switch-to-switch
//! hop time per intermediate stage plus one node↔switch hop time:
//!
//! ```text
//! R^{(i)}        = Σ_j  P_{j,n_i} [ (K−1)·t_cs + t_cn ],        K = 2j − 1      (Eq. 24)
//! R_{E1&I2}^{(i,v)} = Σ_{j,l,h} P_{j,n_i} P_{l,n_v} P_{h,n_c} [ (K−1)·t_cs + t_cn ],
//!                      K = j + 2h + l − 1                                        (Eq. 32)
//! ```

use crate::service::ChannelTimes;
use mcnet_topology::distance::HopDistribution;

/// Mean tail-flit time for intra-cluster journeys (Eq. 24).
pub fn intra_tail_time(hops: &HopDistribution, times: &ChannelTimes) -> f64 {
    let mut r = 0.0;
    for j in 1..=hops.levels() {
        let stages = 2 * j - 1;
        r += hops.probability(j) * ((stages - 1) as f64 * times.t_cs + times.t_cn);
    }
    r
}

/// Mean tail-flit time for inter-cluster journeys of the pair `(i, v)` (Eq. 32).
pub fn inter_tail_time(
    hops_source: &HopDistribution,
    hops_destination: &HopDistribution,
    hops_icn2: &HopDistribution,
    times: &ChannelTimes,
) -> f64 {
    let mut r = 0.0;
    for j in 1..=hops_source.levels() {
        let pj = hops_source.probability(j);
        for l in 1..=hops_destination.levels() {
            let pl = hops_destination.probability(l);
            for h in 1..=hops_icn2.levels() {
                let ph = hops_icn2.probability(h);
                let stages = j + 2 * h + l - 1;
                r += pj * pl * ph * ((stages - 1) as f64 * times.t_cs + times.t_cn);
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::{NetworkTechnology, TrafficConfig};

    fn times() -> ChannelTimes {
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic)
    }

    #[test]
    fn single_switch_tree_tail_is_one_node_hop() {
        let hops = HopDistribution::paper(8, 1).unwrap();
        let r = intra_tail_time(&hops, &times());
        assert!((r - 0.276).abs() < 1e-12);
    }

    #[test]
    fn intra_tail_is_distance_weighted() {
        let t = times();
        let hops = HopDistribution::paper(8, 3).unwrap();
        let r = intra_tail_time(&hops, &t);
        // By hand: Σ_j P_j [(2j-2) t_cs + t_cn].
        let expected: f64 =
            (1..=3).map(|j| hops.probability(j) * ((2 * j - 2) as f64 * t.t_cs + t.t_cn)).sum();
        assert!((r - expected).abs() < 1e-12);
        // Bounded by the diameter's tail time.
        assert!(r <= 4.0 * t.t_cs + t.t_cn);
        assert!(r >= t.t_cn);
    }

    #[test]
    fn inter_tail_exceeds_intra_tail() {
        let t = times();
        let h3 = HopDistribution::paper(8, 3).unwrap();
        let h2 = HopDistribution::paper(8, 2).unwrap();
        let intra = intra_tail_time(&h3, &t);
        let inter = inter_tail_time(&h3, &h3, &h2, &t);
        assert!(inter > intra, "crossing three networks takes longer than one");
    }

    #[test]
    fn inter_tail_grows_with_destination_cluster_size() {
        let t = times();
        let h_src = HopDistribution::paper(8, 2).unwrap();
        let h_icn2 = HopDistribution::paper(8, 2).unwrap();
        let small = inter_tail_time(&h_src, &HopDistribution::paper(8, 1).unwrap(), &h_icn2, &t);
        let large = inter_tail_time(&h_src, &HopDistribution::paper(8, 3).unwrap(), &h_icn2, &t);
        assert!(large > small);
    }

    #[test]
    fn larger_flits_take_longer() {
        let traffic = TrafficConfig::uniform(32, 512.0, 1e-4).unwrap();
        let t512 = ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic);
        let hops = HopDistribution::paper(8, 3).unwrap();
        assert!(intra_tail_time(&hops, &t512) > intra_tail_time(&hops, &times()));
    }
}
