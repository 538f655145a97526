//! Source-queue waiting time (Eqs. 19–23 and 30).
//!
//! The injection channel of a node is modelled as an M/G/1 queue whose service time is
//! the network latency `S` of the message it is injecting (blocking inside the network
//! keeps the channel busy, which is why the service-time distribution is "general").
//! The first two moments of that service time come from the Draper–Ghosh approximation
//! (Eq. 22): mean `S`, standard deviation `S − M·t_cn`, clamped at zero. The wait
//! itself is the Pollaczek–Khinchine formula the concentrator shares, `mg1::waiting_time`.

use crate::{check_nonnegative, mg1, ModelError, Result, SaturatedComponent};

/// Which network's injection channel the queue feeds (only used for error reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceQueueKind {
    /// Injection into the intra-cluster network ICN1.
    Intra,
    /// Injection into the inter-cluster access network ECN1.
    Inter,
    /// Injection into a direct-network fabric (the k-ary n-cube model), where a
    /// node has a single injection channel shared by all destinations.
    Injection,
}

/// Inputs of a source-queue computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceQueueInput {
    /// Which injection channel this is.
    pub kind: SourceQueueKind,
    /// Per-node arrival rate of messages using this channel.
    pub per_node_rate: f64,
    /// Mean network latency `S` (the service time of the queue).
    pub network_latency: f64,
    /// Minimum possible network latency, `M·t_cn`, used by the variance approximation.
    pub minimum_latency: f64,
    /// Cluster index (for error reporting); `None` on fabrics without clusters
    /// (the torus).
    pub cluster: Option<usize>,
}

/// Computes the mean source-queue waiting time `W` (Eq. 23 / Eq. 30) with the
/// Draper–Ghosh service-time variance of Eq. (22).
pub fn waiting_time(input: &SourceQueueInput) -> Result<f64> {
    let minimum = check_nonnegative("minimum_latency", input.minimum_latency)?;
    let sigma = (input.network_latency - minimum).max(0.0);
    mg1::waiting_time(input.per_node_rate, input.network_latency, sigma * sigma)?.map_err(
        |utilization| ModelError::Saturated {
            component: match input.kind {
                SourceQueueKind::Intra => SaturatedComponent::IntraSourceQueue,
                SourceQueueKind::Inter => SaturatedComponent::InterSourceQueue,
                SourceQueueKind::Injection => SaturatedComponent::InjectionQueue,
            },
            utilization,
            cluster: input.cluster,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(per_node: f64, latency: f64) -> SourceQueueInput {
        SourceQueueInput {
            kind: SourceQueueKind::Intra,
            per_node_rate: per_node,
            network_latency: latency,
            minimum_latency: 8.832,
            cluster: Some(0),
        }
    }

    #[test]
    fn zero_rate_means_zero_waiting() {
        let w = waiting_time(&input(0.0, 100.0)).unwrap();
        assert_eq!(w, 0.0);
    }

    #[test]
    fn matches_pollaczek_khinchine_by_hand() {
        // λ = 1e-3, S = 100, min = 8.832: σ = 91.168, C² = σ²/S², ρ = 0.1.
        let lambda = 1e-3;
        let s = 100.0;
        let sigma: f64 = s - 8.832;
        let rho = lambda * s;
        let expected = rho * s * (1.0 + sigma * sigma / (s * s)) / (2.0 * (1.0 - rho));
        let w = waiting_time(&input(lambda, s)).unwrap();
        assert!((w - expected).abs() < 1e-9);
    }

    #[test]
    fn draper_ghosh_sigma_is_clamped() {
        // A latency at or below its minimum leaves no variance: the wait is the
        // deterministic-service (M/D/1) one, bit for bit.
        for latency in [8.832, 5.0] {
            let deterministic = mg1::waiting_time(1e-3, latency, 0.0).unwrap().unwrap();
            assert_eq!(
                waiting_time(&input(1e-3, latency)).unwrap().to_bits(),
                deterministic.to_bits()
            );
        }
        // The minimum latency must be a valid non-negative time.
        for minimum in [-1.0, f64::NAN] {
            let inp = SourceQueueInput { minimum_latency: minimum, ..input(1e-3, 100.0) };
            assert!(matches!(waiting_time(&inp), Err(ModelError::InvalidConfiguration { .. })));
        }
    }

    #[test]
    fn saturation_reports_component_and_cluster() {
        let mut inp = input(0.02, 100.0); // ρ = 2
        inp.cluster = Some(5);
        let err = waiting_time(&inp).unwrap_err();
        match err {
            ModelError::Saturated { component, cluster, utilization } => {
                assert_eq!(component, SaturatedComponent::IntraSourceQueue);
                assert_eq!(cluster, Some(5));
                assert!(utilization >= 1.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
        inp.kind = SourceQueueKind::Inter;
        let err = waiting_time(&inp).unwrap_err();
        assert!(matches!(
            err,
            ModelError::Saturated { component: SaturatedComponent::InterSourceQueue, .. }
        ));
    }

    #[test]
    fn invalid_inputs_are_reported() {
        let inp = input(-1.0, 100.0);
        assert!(matches!(waiting_time(&inp), Err(ModelError::InvalidConfiguration { .. })));
        for latency in [-5.0, f64::NAN, f64::INFINITY] {
            let inp = input(1e-3, latency);
            assert!(matches!(waiting_time(&inp), Err(ModelError::InvalidConfiguration { .. })));
        }
    }
}
