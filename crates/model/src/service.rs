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
//!
//! The recursion only ever looks downstream, so two journeys that end the same
//! way share every state of their common suffix. `StageWalk` carries that
//! state one stage at a time, and each journey family is solved in one backward
//! pass: the intra-cluster journeys extend one walk by two stages per `j`, the
//! inter-cluster ones extend a descent walk over `l`, then ICN2 walks over `h`,
//! then ascent walks over `j` (the torus model does the same per hop count).
//! Every operation and its order are those of solving each journey alone, so
//! the results are bit-identical to it, and no journey allocates.

use crate::{ModelError, Result, SaturatedComponent};
use mcnet_system::{NetworkTechnology, TrafficConfig};
use mcnet_topology::distance::HopDistribution;

/// Per-message channel occupation times derived from the network technology and the
/// message geometry (Eqs. 14–15 scaled by the message length `M`).
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageOutcome {
    /// `S_0`, the mean service time at the first stage (the network latency of the
    /// journey).
    pub latency: f64,
    /// `max_k η_k·S_k`: if this reaches 1 the blocking model has left its validity
    /// region (the channel is saturated).
    pub max_utilization: f64,
}

/// The backward recursion of Eq. (18), walked from the destination towards the
/// source one stage at a time.
///
/// The state after the walk has covered the last `K` stages of a journey is
/// exactly the state of the `K`-stage journey that ends that way, so journeys
/// sharing their final stages share one walk: [`StageWalk::outcome`] reads the
/// current journey's `S_0`, and [`StageWalk::extend`] turns it into the journey
/// one stage longer at the front. Every operation is the one the per-journey
/// recursion performs, in the same order, so each outcome is bit-identical to
/// solving its journey alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageWalk {
    /// `S_k` of the earliest stage walked so far.
    pub(crate) service: f64,
    /// `Σ_{s ≥ k} W_s`, the waiting time a header acquiring the earliest
    /// stage walked so far will add downstream of the stage before it.
    pub(crate) downstream_wait: f64,
    /// `max η_s·S_s` over the stages walked so far.
    pub(crate) max_utilization: f64,
}

impl StageWalk {
    /// The final stage, acquired at rate `eta`: the destination always accepts
    /// the message, so its service is `M·t_cn`.
    pub(crate) fn deliver(eta: f64, times: &ChannelTimes) -> Self {
        let service = times.message_node_time();
        StageWalk {
            service,
            downstream_wait: 0.5 * service * (eta * service).min(1.0),
            max_utilization: (eta * service).max(0.0),
        }
    }

    /// Prepends one switch stage acquired at rate `eta`; `m_tcs` is
    /// [`ChannelTimes::message_switch_time`].
    #[inline]
    pub(crate) fn extend(&mut self, eta: f64, m_tcs: f64) {
        self.service = m_tcs + self.downstream_wait;
        let utilization = eta * self.service;
        self.max_utilization = self.max_utilization.max(utilization);
        self.downstream_wait += 0.5 * self.service * utilization.min(1.0);
    }

    /// The latency and worst utilisation of the journey walked so far.
    #[inline]
    pub(crate) fn outcome(&self) -> StageOutcome {
        StageOutcome { latency: self.service, max_utilization: self.max_utilization }
    }
}

/// Mean intra-cluster network latency `S^{(i)} = Σ_j P_{j,n_i}·S_{0,j}` (Eq. 3),
/// together with the worst per-channel utilisation over all journey lengths.
///
/// Every stage of a `2j`-link journey sees the ICN1 rate, so the `j + 1` journey
/// is the `j` journey two stages longer: one walk serves every `j`.
pub fn mean_intra_network_latency(
    hops: &HopDistribution,
    eta_icn1: f64,
    times: &ChannelTimes,
) -> StageOutcome {
    let m_tcs = times.message_switch_time();
    let mut walk = StageWalk::deliver(eta_icn1, times);
    let mut mean = 0.0;
    let mut max_utilization: f64 = 0.0;
    for (idx, &pj) in hops.probabilities().iter().enumerate() {
        if idx > 0 {
            walk.extend(eta_icn1, m_tcs);
            walk.extend(eta_icn1, m_tcs);
        }
        let outcome = walk.outcome();
        mean += pj * outcome.latency;
        max_utilization = max_utilization.max(outcome.max_utilization);
    }
    StageOutcome { latency: mean, max_utilization }
}

/// Mean inter-cluster network latency for the pair `(i, v)`,
/// `S_{E1&I2}^{(i,v)} = Σ_{j,l,h} P_{j,n_i} P_{l,n_v} P_{h,n_c} · S_{0,(j,l,h)}`
/// (Eqs. 26–29).
///
/// The `(j, l, h)` journey ascends `j` links in the source ECN1, crosses `2h`
/// links in ICN2 and descends `l` links in the destination ECN1, so its
/// `j + 2h + l − 1` stages see, from the destination backwards, `l` ECN1
/// stages, `2h − 1` ICN2 stages and `j` ECN1 stages. One walk descends over
/// `l`; each of its states is extended over `h` into `walks`, one state per
/// `(l, h)`, and every such state gains one ascent stage per `j`, read as the
/// terms of Eq. 26 are summed in `j → l → h` order. `walks` is scratch space
/// whose contents on entry are ignored; it is reused so that no journey
/// allocates.
pub(crate) fn mean_inter_network_latency(
    hops_source: &HopDistribution,
    hops_destination: &HopDistribution,
    hops_icn2: &HopDistribution,
    eta_ecn1: f64,
    eta_icn2: f64,
    times: &ChannelTimes,
    walks: &mut Vec<StageWalk>,
) -> StageOutcome {
    let m_tcs = times.message_switch_time();
    walks.clear();
    let mut descent = StageWalk::deliver(eta_ecn1, times);
    for l in 0..hops_destination.levels() {
        if l > 0 {
            descent.extend(eta_ecn1, m_tcs);
        }
        let mut icn2 = descent;
        for h in 0..hops_icn2.levels() {
            if h > 0 {
                icn2.extend(eta_icn2, m_tcs);
            }
            icn2.extend(eta_icn2, m_tcs);
            walks.push(icn2);
        }
    }

    let mut mean = 0.0;
    let mut max_utilization: f64 = 0.0;
    for &pj in hops_source.probabilities() {
        let mut ascents = walks.iter_mut();
        for &pl in hops_destination.probabilities() {
            for &ph in hops_icn2.probabilities() {
                let ascent = ascents.next().expect("one walk per (l, h)");
                ascent.extend(eta_ecn1, m_tcs);
                let outcome = ascent.outcome();
                mean += pj * pl * ph * outcome.latency;
                max_utilization = max_utilization.max(outcome.max_utilization);
            }
        }
    }
    StageOutcome { latency: mean, max_utilization }
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

    /// The Eq. (18) recursion over one journey's explicit per-stage rates, as
    /// it was solved before journeys shared their walks: the oracle the shared
    /// passes must match bit for bit.
    fn reference(etas: &[f64], times: &ChannelTimes) -> StageOutcome {
        let m_tcs = times.message_switch_time();
        let last = etas.len() - 1;
        let mut service = times.message_node_time();
        let mut max_utilization = (etas[last] * service).max(0.0);
        let mut downstream_wait = 0.5 * service * (etas[last] * service).min(1.0);
        for k in (0..last).rev() {
            service = m_tcs + downstream_wait;
            let utilization = etas[k] * service;
            max_utilization = max_utilization.max(utilization);
            downstream_wait += 0.5 * service * utilization.min(1.0);
        }
        StageOutcome { latency: service, max_utilization }
    }

    /// The per-stage rates of the `(j, l, h)` inter-cluster journey.
    fn inter_etas(j: usize, l: usize, h: usize, eta_ecn1: f64, eta_icn2: f64) -> Vec<f64> {
        let mut etas = vec![eta_ecn1; j + 2 * h + l - 1];
        etas[j..j + 2 * h - 1].fill(eta_icn2);
        etas
    }

    /// One `2j`-link intra-cluster journey, walked alone.
    fn intra_journey(j: usize, eta: f64, t: &ChannelTimes) -> StageOutcome {
        let mut walk = StageWalk::deliver(eta, t);
        for _ in 1..2 * j - 1 {
            walk.extend(eta, t.message_switch_time());
        }
        walk.outcome()
    }

    /// One `(j, l, h)` inter-cluster journey, walked alone.
    fn inter_journey(
        j: usize,
        l: usize,
        h: usize,
        eta_ecn1: f64,
        eta_icn2: f64,
        t: &ChannelTimes,
    ) -> StageOutcome {
        let etas = inter_etas(j, l, h, eta_ecn1, eta_icn2);
        let mut walk = StageWalk::deliver(etas[etas.len() - 1], t);
        for &eta in etas[..etas.len() - 1].iter().rev() {
            walk.extend(eta, t.message_switch_time());
        }
        walk.outcome()
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
        let single = intra_journey(1, 0.0, &t);
        assert!((single.latency - t.message_node_time()).abs() < 1e-12);
        assert_eq!(single.max_utilization, 0.0);
        let multi = intra_journey(3, 0.0, &t);
        assert!((multi.latency - t.message_switch_time()).abs() < 1e-12);
    }

    #[test]
    fn latency_increases_with_load_and_distance() {
        let t = times(32, 256.0);
        let low = intra_journey(3, 1e-4, &t);
        let high = intra_journey(3, 5e-3, &t);
        assert!(high.latency > low.latency);
        assert!(high.max_utilization > low.max_utilization);
        let short = intra_journey(2, 5e-3, &t);
        assert!(high.latency > short.latency);
    }

    #[test]
    fn recursion_matches_hand_computation() {
        // j = 2 gives K = 3 stages at a constant η: S_2 = a, W_2 = ½ η a²,
        // S_1 = b + W_2, W_1 = ½ η S_1², S_0 = b + W_2 + W_1, with a = M t_cn
        // and b = M t_cs.
        let t = times(32, 256.0);
        let eta = 2e-3;
        let a = t.message_node_time();
        let b = t.message_switch_time();
        let got = intra_journey(2, eta, &t);
        let s2 = a;
        let w2 = 0.5 * eta * s2 * s2;
        let s1 = b + w2;
        let w1 = 0.5 * eta * s1 * s1;
        let s0 = b + w2 + w1;
        assert!((got.latency - s0).abs() < 1e-12);
        assert!(b + 0.5 * eta * a * a < s0, "three stages accumulate more waiting than two");
    }

    #[test]
    fn inter_journey_uses_icn2_rate_in_the_middle() {
        let t = times(32, 256.0);
        // Saturating the ICN2 rate must raise latency even when the ECN1 rate is 0.
        let quiet = inter_journey(2, 2, 1, 0.0, 0.0, &t);
        let busy = inter_journey(2, 2, 1, 0.0, 5e-3, &t);
        assert!(busy.latency > quiet.latency);
        // And vice versa.
        let busy_ecn = inter_journey(2, 2, 1, 5e-3, 0.0, &t);
        assert!(busy_ecn.latency > quiet.latency);
    }

    #[test]
    fn stage_counts_follow_the_paper() {
        // An inter-cluster journey with j=2, h=1, l=2 has K = 2+2+2-1 = 5 stages; at
        // zero load its latency is M·t_cs (plus nothing), independent of K, so compare
        // through a small load instead: longer journeys must not be cheaper.
        let t = times(32, 256.0);
        let eta = 1e-3;
        assert_eq!(inter_etas(2, 2, 1, 0.0, 1.0), [0.0, 0.0, 1.0, 0.0, 0.0]);
        let short = inter_journey(1, 1, 1, eta, eta, &t);
        let long = inter_journey(3, 3, 2, eta, eta, &t);
        assert!(long.latency >= short.latency);
    }

    #[test]
    fn shared_walks_match_the_per_journey_recursion() {
        // Two port counts, uneven depths and rates from idle to saturated: every
        // mean and utilisation must carry the per-journey recursion's bits.
        let t = times(32, 256.0);
        for m in [8, 4] {
            let hops = |n| HopDistribution::paper(m, n).unwrap();
            for &(eta_ecn1, eta_icn2) in &[(0.0, 0.0), (1e-4, 3e-4), (4e-3, 1e-3), (0.2, 0.05)] {
                for n in 1..=4 {
                    let h = hops(n);
                    let walked = mean_intra_network_latency(&h, eta_ecn1, &t);
                    let (mut mean, mut max) = (0.0, 0.0f64);
                    for j in 1..=n {
                        let outcome = reference(&vec![eta_ecn1; 2 * j - 1], &t);
                        mean += h.probability(j) * outcome.latency;
                        max = max.max(outcome.max_utilization);
                    }
                    assert_eq!(walked, StageOutcome { latency: mean, max_utilization: max });
                }
                let mut walks = Vec::new();
                for (ni, nv, nc) in [(1, 1, 1), (2, 3, 2), (3, 1, 4), (4, 2, 3)] {
                    let (hi, hv, hc) = (hops(ni), hops(nv), hops(nc));
                    let walked = mean_inter_network_latency(
                        &hi, &hv, &hc, eta_ecn1, eta_icn2, &t, &mut walks,
                    );
                    let (mut mean, mut max) = (0.0, 0.0f64);
                    for j in 1..=ni {
                        for l in 1..=nv {
                            for h in 1..=nc {
                                let etas = inter_etas(j, l, h, eta_ecn1, eta_icn2);
                                let outcome = reference(&etas, &t);
                                let p = hi.probability(j) * hv.probability(l) * hc.probability(h);
                                mean += p * outcome.latency;
                                max = max.max(outcome.max_utilization);
                            }
                        }
                    }
                    assert_eq!(walked, StageOutcome { latency: mean, max_utilization: max });
                    assert_eq!(walks.len(), nv * nc, "one walk per (l, h)");
                }
            }
        }
    }

    #[test]
    fn mean_network_latency_is_probability_weighted() {
        let t = times(32, 256.0);
        let hops = HopDistribution::paper(8, 3).unwrap();
        let mean = mean_intra_network_latency(&hops, 0.0, &t);
        // At zero load every j >= 2 journey costs M·t_cs and j = 1 costs M·t_cn.
        let expected = hops.probability(1) * t.message_node_time()
            + (1.0 - hops.probability(1)) * t.message_switch_time();
        assert!((mean.latency - expected).abs() < 1e-12);
    }

    #[test]
    fn mean_inter_latency_combines_three_distributions() {
        let t = times(32, 256.0);
        let hi = HopDistribution::paper(8, 2).unwrap();
        let hv = HopDistribution::paper(8, 3).unwrap();
        let hc = HopDistribution::paper(8, 2).unwrap();
        let out = mean_inter_network_latency(&hi, &hv, &hc, 1e-4, 1e-4, &t, &mut Vec::new());
        assert!(out.latency > t.message_switch_time());
        assert!(out.max_utilization < 1.0);
    }

    #[test]
    fn saturation_is_detected() {
        let t = times(32, 256.0);
        let out = intra_journey(3, 1.0, &t);
        assert!(out.max_utilization >= 1.0);
        assert!(check_channel_utilization(&out, Some(2)).is_err());
        let ok = intra_journey(3, 1e-4, &t);
        assert!(check_channel_utilization(&ok, None).is_ok());
    }
}
