//! Concentrator/dispatcher waiting time (Eqs. 33–34).
//!
//! The concentrator/dispatcher units bridge a cluster's ECN1 to the global ICN2. The
//! paper models each direction as a simple single-server queue with Poisson arrivals at
//! the pairwise ICN2 rate `λ_I2^{(i,v)}` and a *deterministic* service time of one full
//! message over a switch channel, `M·t_cs` (the message length is fixed, "so there is
//! no variance in the service time"):
//!
//! ```text
//! W_s^{(i,v)} = λ_I2^{(i,v)} (M·t_cs)² / (2·(1 − λ_I2^{(i,v)} M·t_cs))     (Eq. 33)
//! W_d^{(i)}   = 1/(C−1) Σ_{v≠i} 2·W_s^{(i,v)}                              (Eq. 34)
//! ```
//!
//! The factor 2 accounts for the concentrate buffer (ECN1 → ICN2) and the dispatch
//! buffer (ICN2 → ECN1), which see the same rate and service time.
//!
//! Eq. (33) is the zero-variance case of the Pollaczek–Khinchine wait the source queue
//! uses (`mg1::waiting_time`): with `C² = 0` it reads `ρ·x̄ / (2·(1 − ρ))`.

use crate::service::ChannelTimes;
use crate::{mg1, ModelError, Result, SaturatedComponent};

/// Mean waiting time of one concentrator (or dispatcher) buffer for the ordered pair
/// `(i, v)` — the M/D/1 waiting time of Eq. (33).
pub fn concentrator_waiting(lambda_icn2: f64, times: &ChannelTimes, cluster: usize) -> Result<f64> {
    mg1::waiting_time(lambda_icn2, times.message_switch_time(), 0.0)?.map_err(|utilization| {
        ModelError::Saturated {
            component: SaturatedComponent::Concentrator,
            utilization,
            cluster: Some(cluster),
        }
    })
}

/// Utilisation of one concentrator (or dispatcher) buffer for the ordered pair
/// `(i, v)`, `ρ = λ_I2^{(i,v)}·M·t_cs` — the load of Eq. (33)'s M/D/1 queue.
pub fn concentrator_utilization(lambda_icn2: f64, times: &ChannelTimes) -> f64 {
    lambda_icn2 * times.message_switch_time()
}

/// Mean concentrator/dispatcher waiting time seen by external messages of cluster `i`
/// (Eq. 34): twice the destination-averaged per-direction wait — the factor 2 accounts
/// for the concentrate buffer (ECN1 → ICN2) and the dispatch buffer (ICN2 → ECN1),
/// which see the same rate and service time.
///
/// `weighted_sum` is `Σ_v w_v · W_s^{(i,v)}` over the destination clusters and `norm`
/// the weight normalizer: `C − 1` for the paper's arithmetic destination average
/// (uniform traffic, where every `w_v` is 1), `1` for a probability-weighted
/// non-uniform destination mix. This is the single home of Eq. 34's doubling rule;
/// `inter::inter_cluster_latency` supplies both aggregation flavours.
pub fn mean_concentrator_waiting(weighted_sum: f64, norm: f64) -> f64 {
    2.0 * weighted_sum / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::{NetworkTechnology, TrafficConfig};

    fn times(flits: usize, bytes: f64) -> ChannelTimes {
        let traffic = TrafficConfig::uniform(flits, bytes, 1e-4).unwrap();
        ChannelTimes::new(&NetworkTechnology::paper_default(), &traffic)
    }

    #[test]
    fn zero_rate_no_waiting() {
        let w = concentrator_waiting(0.0, &times(32, 256.0), 0).unwrap();
        assert_eq!(w, 0.0);
    }

    #[test]
    fn matches_md1_closed_form() {
        let t = times(32, 256.0);
        let lambda = 0.02;
        let service = t.message_switch_time();
        let rho = lambda * service;
        let expected = rho * service / (2.0 * (1.0 - rho));
        assert!((concentrator_waiting(lambda, &t, 0).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn is_the_shared_wait_without_variance() {
        let t = times(32, 256.0);
        let service = t.message_switch_time();
        let saturation = 1.0 / service;
        for lambda in [0.0, 0.5 * saturation, 0.99 * saturation] {
            let w = concentrator_waiting(lambda, &t, 3).unwrap();
            let shared = mg1::waiting_time(lambda, service, 0.0).unwrap().unwrap();
            assert_eq!(w.to_bits(), shared.to_bits(), "λ = {lambda}");
            // Eq. 33 as written, `λ·x̄·x̄ / (2·(1 − ρ))`, has the same bits.
            let rho = concentrator_utilization(lambda, &t);
            assert_eq!(w.to_bits(), (lambda * service * service / (2.0 * (1.0 - rho))).to_bits());
        }
        for lambda in [1.01 * saturation, 1.5 * saturation] {
            let rho = mg1::waiting_time(lambda, service, 0.0).unwrap().unwrap_err();
            assert_eq!(
                concentrator_waiting(lambda, &t, 3),
                Err(ModelError::Saturated {
                    component: SaturatedComponent::Concentrator,
                    utilization: rho,
                    cluster: Some(3),
                })
            );
        }
    }

    #[test]
    fn saturation_point_scales_with_message_size() {
        // M = 32, L_m = 256: service 16.704 ⇒ saturation at λ ≈ 0.0599.
        // M = 64 doubles the service time and halves the saturation rate.
        let t32 = times(32, 256.0);
        let t64 = times(64, 256.0);
        assert!(concentrator_waiting(0.055, &t32, 0).is_ok());
        assert!(concentrator_waiting(0.055, &t64, 0).is_err());
        assert!(concentrator_waiting(0.025, &t64, 0).is_ok());
    }

    #[test]
    fn saturation_error_carries_cluster() {
        let t = times(32, 256.0);
        let err = concentrator_waiting(1.0, &t, 7).unwrap_err();
        assert!(matches!(
            err,
            ModelError::Saturated {
                component: SaturatedComponent::Concentrator,
                cluster: Some(7),
                ..
            }
        ));
    }

    #[test]
    fn mean_doubles_the_per_direction_wait() {
        // Uniform flavour: arithmetic mean over C−1 destinations, doubled.
        let w = mean_concentrator_waiting(1.0 + 2.0 + 3.0, 3.0);
        assert!((w - 4.0).abs() < 1e-12); // 2 * mean(1,2,3) = 4
                                          // Weighted flavour: the weights already sum to one.
        let w = mean_concentrator_waiting(0.25 * 2.0 + 0.75 * 4.0, 1.0);
        assert!((w - 7.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_rate_rejected() {
        let t = times(32, 256.0);
        assert!(concentrator_waiting(-1.0, &t, 0).is_err());
        assert!(concentrator_waiting(f64::NAN, &t, 0).is_err());
    }
}
