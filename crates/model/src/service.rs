//! Mean channel service times: the backward stage recursion of Eqs. (14)–(18)/(28)–(29).
//!
//! A message that crosses `2j` links passes through `K = 2j − 1` switches ("stages").
//! The analysis starts at the destination and walks backwards: the final stage can
//! always deliver (service `M·t_cn`), while every earlier stage serves the message for
//! `M·t_cs` *plus* the time spent waiting to acquire a channel at each later stage.
//! The waiting time at stage `s` is `W_s = ½·S_s·P_B` with blocking probability
//! `P_B = η_s·S_s` from the birth–death chain (Eqs. 16–17), so
//!
//! ```text
//! S_{K−1} = M·t_cn
//! S_k     = M·t_cs + Σ_{s=k+1}^{K−1} ½·η_s·S_s²          for k < K−1
//! ```
//!
//! and the network latency of the `2j`-link journey is `S_0`.
//!
//! For inter-cluster journeys (Eqs. 28–29) the same recursion runs over
//! `K = j + 2h + l − 1` stages whose channel rates switch from the ECN1 rate to the
//! ICN2 rate in the middle of the path.

use crate::{ModelError, Result, SaturatedComponent};
use mcnet_system::{NetworkTechnology, TrafficConfig};
use mcnet_topology::distance::HopDistribution;
use serde::{Deserialize, Serialize};

/// Per-message channel occupation times derived from the network technology and the
/// message geometry (Eqs. 14–15 scaled by the message length `M`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelTimes {
    /// Per-flit node↔switch time `t_cn`.
    pub t_cn: f64,
    /// Per-flit switch↔switch time `t_cs`.
    pub t_cs: f64,
    /// Message length in flits, `M`.
    pub message_flits: f64,
}

impl ChannelTimes {
    /// Derives the channel times from technology constants and message geometry.
    pub fn new(technology: &NetworkTechnology, traffic: &TrafficConfig) -> Self {
        ChannelTimes {
            t_cn: technology.node_channel_time(traffic.flit_bytes),
            t_cs: technology.switch_channel_time(traffic.flit_bytes),
            message_flits: traffic.message_flits as f64,
        }
    }

    /// Message transfer time over a node↔switch channel, `M·t_cn`.
    #[inline]
    pub fn message_node_time(&self) -> f64 {
        self.message_flits * self.t_cn
    }

    /// Message transfer time over a switch↔switch channel, `M·t_cs`.
    #[inline]
    pub fn message_switch_time(&self) -> f64 {
        self.message_flits * self.t_cs
    }
}

/// Result of one stage recursion: the latency seen at the first stage and the largest
/// per-channel utilisation encountered along the way.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageOutcome {
    /// `S_0`, the mean service time at the first stage (the network latency of the
    /// journey).
    pub latency: f64,
    /// `max_k η_k·S_k`: if this reaches 1 the blocking model has left its validity
    /// region (the channel is saturated).
    pub max_utilization: f64,
}

/// Runs the backward recursion of Eq. (18) over the given per-stage channel rates.
///
/// `etas[k]` is the message rate of the channel acquired at stage `k`; the last stage
/// serves in `message_node_time`, every other stage in `message_switch_time`.
///
/// Returns an error if `etas` is empty.
pub fn stage_recursion(etas: &[f64], times: &ChannelTimes) -> Result<StageOutcome> {
    if etas.is_empty() {
        return Err(ModelError::InvalidConfiguration {
            reason: "a journey must have at least one stage".into(),
        });
    }
    let m_tcn = times.message_node_time();
    let m_tcs = times.message_switch_time();
    let last = etas.len() - 1;

    // Final stage: the destination always accepts the message.
    let mut service = m_tcn;
    let mut max_utilization = (etas[last] * service).max(0.0);
    let mut downstream_wait = 0.5 * service * (etas[last] * service).min(1.0);
    let mut latency = service;

    for k in (0..last).rev() {
        service = m_tcs + downstream_wait;
        let utilization = etas[k] * service;
        max_utilization = max_utilization.max(utilization);
        downstream_wait += 0.5 * service * utilization.min(1.0);
        latency = service;
    }
    Ok(StageOutcome { latency, max_utilization })
}

/// Network latency of an intra-cluster `2j`-link journey: every stage sees the same
/// ICN1 channel rate.
fn intra_journey_latency(j: usize, eta_icn1: f64, times: &ChannelTimes) -> Result<StageOutcome> {
    if j == 0 {
        return Err(ModelError::InvalidConfiguration {
            reason: "journeys cross at least 2 links (j >= 1)".into(),
        });
    }
    let stages = 2 * j - 1;
    let etas = vec![eta_icn1; stages];
    stage_recursion(&etas, times)
}

/// Network latency of an inter-cluster journey that ascends `j` links in the source
/// ECN1, crosses `2h` links in ICN2 and descends `l` links in the destination ECN1
/// (Eqs. 28–29): stages `j .. j+2h−1` see the ICN2 channel rate, the rest the ECN1
/// rate.
fn inter_journey_latency(
    j: usize,
    l: usize,
    h: usize,
    eta_ecn1: f64,
    eta_icn2: f64,
    times: &ChannelTimes,
) -> Result<StageOutcome> {
    if j == 0 || l == 0 || h == 0 {
        return Err(ModelError::InvalidConfiguration {
            reason: "inter-cluster journeys need j, l, h >= 1".into(),
        });
    }
    let stages = j + 2 * h + l - 1;
    let mut etas = vec![eta_ecn1; stages];
    for eta in etas.iter_mut().take(j + 2 * h - 1).skip(j) {
        *eta = eta_icn2;
    }
    stage_recursion(&etas, times)
}

/// Mean intra-cluster network latency `S^{(i)} = Σ_j P_{j,n_i}·S_{0,j}` (Eq. 3),
/// together with the worst per-channel utilisation over all journey lengths.
pub fn mean_intra_network_latency(
    hops: &HopDistribution,
    eta_icn1: f64,
    times: &ChannelTimes,
) -> Result<StageOutcome> {
    let mut mean = 0.0;
    let mut max_utilization: f64 = 0.0;
    for j in 1..=hops.levels() {
        let outcome = intra_journey_latency(j, eta_icn1, times)?;
        mean += hops.probability(j) * outcome.latency;
        max_utilization = max_utilization.max(outcome.max_utilization);
    }
    Ok(StageOutcome { latency: mean, max_utilization })
}

/// Mean inter-cluster network latency for the pair `(i, v)`,
/// `S_{E1&I2}^{(i,v)} = Σ_{j,l,h} P_{j,n_i} P_{l,n_v} P_{h,n_c} · S_{0,(j,l,h)}`
/// (Eqs. 26–27).
pub fn mean_inter_network_latency(
    hops_source: &HopDistribution,
    hops_destination: &HopDistribution,
    hops_icn2: &HopDistribution,
    eta_ecn1: f64,
    eta_icn2: f64,
    times: &ChannelTimes,
) -> Result<StageOutcome> {
    let mut mean = 0.0;
    let mut max_utilization: f64 = 0.0;
    for j in 1..=hops_source.levels() {
        let pj = hops_source.probability(j);
        for l in 1..=hops_destination.levels() {
            let pl = hops_destination.probability(l);
            for h in 1..=hops_icn2.levels() {
                let ph = hops_icn2.probability(h);
                let outcome = inter_journey_latency(j, l, h, eta_ecn1, eta_icn2, times)?;
                mean += pj * pl * ph * outcome.latency;
                max_utilization = max_utilization.max(outcome.max_utilization);
            }
        }
    }
    Ok(StageOutcome { latency: mean, max_utilization })
}

/// Converts a channel over-utilisation detected by the recursion into a
/// [`ModelError::Saturated`] if it has crossed 1.
pub fn check_channel_utilization(outcome: &StageOutcome, cluster: Option<usize>) -> Result<()> {
    if outcome.max_utilization >= 1.0 {
        Err(ModelError::Saturated {
            component: SaturatedComponent::Channel,
            utilization: outcome.max_utilization,
            cluster,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::NetworkTechnology;

    fn times(m: usize, lm: f64) -> ChannelTimes {
        let traffic = TrafficConfig::uniform(m, lm, 1e-4).unwrap();
        ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic)
    }

    #[test]
    fn channel_times_match_paper_constants() {
        let t = times(32, 256.0);
        assert!((t.t_cn - 0.276).abs() < 1e-12);
        assert!((t.t_cs - 0.522).abs() < 1e-12);
        assert!((t.message_node_time() - 8.832).abs() < 1e-10);
        assert!((t.message_switch_time() - 16.704).abs() < 1e-10);
    }

    #[test]
    fn zero_load_recursion_is_pure_transfer_time() {
        let t = times(32, 256.0);
        // With η = 0 there is no blocking: S_0 = M·t_cs for K >= 2, M·t_cn for K = 1.
        let single = intra_journey_latency(1, 0.0, &t).unwrap();
        assert!((single.latency - t.message_node_time()).abs() < 1e-12);
        assert_eq!(single.max_utilization, 0.0);
        let multi = intra_journey_latency(3, 0.0, &t).unwrap();
        assert!((multi.latency - t.message_switch_time()).abs() < 1e-12);
    }

    #[test]
    fn latency_increases_with_load_and_distance() {
        let t = times(32, 256.0);
        let low = intra_journey_latency(3, 1e-4, &t).unwrap();
        let high = intra_journey_latency(3, 5e-3, &t).unwrap();
        assert!(high.latency > low.latency);
        assert!(high.max_utilization > low.max_utilization);
        let short = intra_journey_latency(2, 5e-3, &t).unwrap();
        assert!(high.latency > short.latency);
    }

    #[test]
    fn recursion_matches_hand_computation() {
        // Two stages, η constant: S_1 = a, W_1 = 0.5 η a², S_0 = b + W_1,
        // with a = M t_cn and b = M t_cs.
        let t = times(32, 256.0);
        let eta = 2e-3;
        let a = t.message_node_time();
        let b = t.message_switch_time();
        let expected = b + 0.5 * eta * a * a;
        let got = intra_journey_latency(1 + 1, eta, &t).unwrap(); // j=2 => K=3? no: j=2 -> K=3
                                                                  // j = 2 gives K = 3 stages; compute the three-stage value explicitly instead.
        let s2 = a;
        let w2 = 0.5 * eta * s2 * s2;
        let s1 = b + w2;
        let w1 = 0.5 * eta * s1 * s1;
        let s0 = b + w2 + w1;
        assert!((got.latency - s0).abs() < 1e-12);
        assert!(expected < s0, "three stages accumulate more waiting than two");
    }

    #[test]
    fn inter_journey_uses_icn2_rate_in_the_middle() {
        let t = times(32, 256.0);
        // Saturating the ICN2 rate must raise latency even when the ECN1 rate is 0.
        let quiet = inter_journey_latency(2, 2, 1, 0.0, 0.0, &t).unwrap();
        let busy = inter_journey_latency(2, 2, 1, 0.0, 5e-3, &t).unwrap();
        assert!(busy.latency > quiet.latency);
        // And vice versa.
        let busy_ecn = inter_journey_latency(2, 2, 1, 5e-3, 0.0, &t).unwrap();
        assert!(busy_ecn.latency > quiet.latency);
    }

    #[test]
    fn stage_counts_follow_the_paper() {
        // An inter-cluster journey with j=2, h=1, l=2 has K = 2+2+2-1 = 5 stages; at
        // zero load its latency is M·t_cs (plus nothing), independent of K, so compare
        // through a small load instead: longer journeys must not be cheaper.
        let t = times(32, 256.0);
        let eta = 1e-3;
        let short = inter_journey_latency(1, 1, 1, eta, eta, &t).unwrap();
        let long = inter_journey_latency(3, 3, 2, eta, eta, &t).unwrap();
        assert!(long.latency >= short.latency);
    }

    #[test]
    fn mean_network_latency_is_probability_weighted() {
        let t = times(32, 256.0);
        let hops = HopDistribution::paper(8, 3);
        let mean = mean_intra_network_latency(&hops, 0.0, &t).unwrap();
        // At zero load every j >= 2 journey costs M·t_cs and j = 1 costs M·t_cn.
        let expected = hops.probability(1) * t.message_node_time()
            + (1.0 - hops.probability(1)) * t.message_switch_time();
        assert!((mean.latency - expected).abs() < 1e-12);
    }

    #[test]
    fn mean_inter_latency_combines_three_distributions() {
        let t = times(32, 256.0);
        let hi = HopDistribution::paper(8, 2);
        let hv = HopDistribution::paper(8, 3);
        let hc = HopDistribution::paper(8, 2);
        let out = mean_inter_network_latency(&hi, &hv, &hc, 1e-4, 1e-4, &t).unwrap();
        assert!(out.latency > t.message_switch_time());
        assert!(out.max_utilization < 1.0);
    }

    #[test]
    fn saturation_is_detected() {
        let t = times(32, 256.0);
        let out = intra_journey_latency(3, 1.0, &t).unwrap();
        assert!(out.max_utilization >= 1.0);
        assert!(check_channel_utilization(&out, Some(2)).is_err());
        let ok = intra_journey_latency(3, 1e-4, &t).unwrap();
        assert!(check_channel_utilization(&ok, None).is_ok());
    }

    #[test]
    fn degenerate_parameters_rejected() {
        let t = times(32, 256.0);
        assert!(stage_recursion(&[], &t).is_err());
        assert!(intra_journey_latency(0, 0.0, &t).is_err());
        assert!(inter_journey_latency(0, 1, 1, 0.0, 0.0, &t).is_err());
        assert!(inter_journey_latency(1, 0, 1, 0.0, 0.0, &t).is_err());
        assert!(inter_journey_latency(1, 1, 0, 0.0, 0.0, &t).is_err());
    }
}
