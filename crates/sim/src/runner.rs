//! Simulation configuration, result reporting and (parallel) replication running.

use crate::engine::Simulation;
use crate::message::MessageClass;
use crate::stats::ClassSummary;
use crate::{Result, SimError};
use mcnet_queueing::stats::RunningStats;
use mcnet_system::TrafficConfig;

/// Measurement protocol of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Messages discarded as warm-up (the paper uses 10,000).
    pub warmup_messages: u64,
    /// Messages whose latency is measured (the paper uses 100,000).
    pub measured_messages: u64,
    /// Additional messages generated as drain traffic so the measured messages finish
    /// under load (the paper uses 10,000).
    pub drain_messages: u64,
    /// RNG seed.
    pub seed: u64,
    /// Hard bound on the number of simulation events (guards against accidentally
    /// simulating a configuration that is deep into saturation).
    pub max_events: u64,
}

impl SimConfig {
    /// The paper's measurement protocol: 10k warm-up, 100k measured, 10k drain.
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            warmup_messages: 10_000,
            measured_messages: 100_000,
            drain_messages: 10_000,
            seed,
            max_events: 1_000_000_000,
        }
    }

    /// A reduced protocol (1k/10k/1k) for sweeps where full runs are unnecessarily
    /// expensive; statistical noise grows accordingly.
    pub fn reduced(seed: u64) -> Self {
        SimConfig {
            warmup_messages: 1_000,
            measured_messages: 10_000,
            drain_messages: 1_000,
            seed,
            max_events: 200_000_000,
        }
    }

    /// A very small protocol for unit tests and examples.
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            warmup_messages: 200,
            measured_messages: 2_000,
            drain_messages: 200,
            seed,
            max_events: 50_000_000,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.measured_messages == 0 {
            return Err(SimError::InvalidConfiguration {
                reason: "measured_messages must be positive".into(),
            });
        }
        if self.max_events == 0 {
            return Err(SimError::InvalidConfiguration {
                reason: "max_events must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The per-node generation rate of the run.
    pub generation_rate: f64,
    /// Mean message latency over the measured messages.
    pub mean_latency: f64,
    /// Standard deviation of the measured latencies.
    pub latency_std_dev: f64,
    /// Standard error of the mean latency.
    pub latency_std_error: f64,
    /// Largest measured latency.
    pub max_latency: f64,
    /// Approximate 99th-percentile latency.
    pub p99_latency: Option<f64>,
    /// Intra-cluster class summary.
    pub intra: ClassSummary,
    /// Inter-cluster class summary.
    pub inter: ClassSummary,
    /// Number of measured messages delivered.
    pub measured_messages: u64,
    /// Number of messages generated in total (all phases).
    pub generated_messages: u64,
    /// Number of messages delivered in total (all phases). Equals
    /// `generated_messages` on a fault-free run; under fault injection,
    /// `delivered_messages + dropped_messages == generated_messages` at the end
    /// of a completed run.
    pub delivered_messages: u64,
    /// Retransmissions scheduled after fault aborts (zero without faults).
    pub retransmits: u64,
    /// Messages dropped after exhausting their retry budget (zero without
    /// faults).
    pub dropped_messages: u64,
    /// Mean of latency-per-attempt over the measured deliveries; equals
    /// `mean_latency` on a fault-free run.
    pub mean_attempt_latency: f64,
    /// The routing policy of the run, in spec spelling (`"deterministic"`,
    /// `"adaptive_torus"`, `"randomized_updown"`).
    pub routing: String,
    /// Headers that took a minimal hop other than the dimension-order one
    /// (adaptive torus), or messages whose randomized tree path differed from
    /// the deterministic one. Zero under deterministic routing.
    pub adaptive_misroutes: u64,
    /// Headers that found every adaptive candidate busy and fell back on the
    /// dateline escape class. Zero under deterministic routing (and on trees,
    /// which have no escape class).
    pub escape_fallbacks: u64,
    /// Order-stable FNV-1a digest of the delivered-message stream
    /// `(generation index, class, delivery-time bits)`. Two runs with equal
    /// digests delivered the same messages at bit-identical times in the same
    /// order — the replay/equivalence handle for goldens and CI.
    pub digest: u64,
    /// Windowed delivery/drop/latency series showing the degradation dip and
    /// recovery around fault windows. Empty on fault-free runs.
    pub time_series: Vec<crate::stats::LatencyWindow>,
    /// Fraction of channel acquisitions that had to wait.
    pub contention_ratio: f64,
    /// Largest time-average utilisation over all network channels.
    pub max_channel_utilization: f64,
    /// Mean time-average utilisation of the concentrator/dispatcher bridges,
    /// or `None` on fabrics without bridges (the torus). Bridge-less runs used
    /// to report `0.0` — a misleading "bridges exist and are idle"; the absence
    /// of the resource is now explicit (same bug class as `halfwidth_95`).
    pub mean_bridge_utilization: Option<f64>,
    /// Largest time-average utilisation of any concentrator/dispatcher bridge,
    /// or `None` on fabrics without bridges.
    pub max_bridge_utilization: Option<f64>,
    /// Total simulated time.
    pub simulated_time: f64,
    /// Number of events processed (future-event-list events plus batched
    /// arrivals, so the count stays comparable across engine generations).
    pub events: u64,
    /// Events processed per generated message — the engine-efficiency number
    /// the hot-path work drives down (see PERFORMANCE.md). Regressions in
    /// event accounting show up here directly instead of hiding inside
    /// wall-clock noise.
    pub events_per_message: f64,
    /// RNG seed of the run.
    pub seed: u64,
}

/// Drives a built (or freshly reset) simulation to completion and extracts
/// its report. Takes the simulation by `&mut` so callers can
/// [`reset`](Simulation::reset) and re-run it without reallocating.
pub(crate) fn report_from(
    sim: &mut Simulation,
    traffic: &TrafficConfig,
    config: &SimConfig,
) -> Result<SimReport> {
    sim.run()?;
    let (_, max_channel_utilization) = sim.network_utilization();
    let has_bridges = matches!(sim.backend(), crate::backend::FabricBackend::Tree(_));
    let (mean_bridge_utilization, max_bridge_utilization) = sim.bridge_utilization();
    let routing = sim.backend().routing_policy();
    let stats = sim.stats();
    Ok(SimReport {
        generation_rate: traffic.generation_rate,
        mean_latency: stats.mean_latency(),
        latency_std_dev: stats.latency_std_dev(),
        latency_std_error: stats.latency_std_error(),
        max_latency: stats.max_latency(),
        p99_latency: stats.latency_quantile(0.99),
        intra: stats.class_summary(MessageClass::Intra),
        inter: stats.class_summary(MessageClass::Inter),
        measured_messages: stats.delivered_measured(),
        generated_messages: stats.generated(),
        delivered_messages: stats.delivered(),
        retransmits: stats.retransmits(),
        dropped_messages: stats.dropped(),
        mean_attempt_latency: stats.mean_attempt_latency(),
        routing: routing.spec_name().to_string(),
        adaptive_misroutes: stats.adaptive_misroutes(),
        escape_fallbacks: stats.escape_fallbacks(),
        digest: stats.digest(),
        time_series: stats.time_series(),
        contention_ratio: sim.pool().contention_ratio(),
        max_channel_utilization,
        mean_bridge_utilization: has_bridges.then_some(mean_bridge_utilization),
        max_bridge_utilization: has_bridges.then_some(max_bridge_utilization),
        simulated_time: sim.now(),
        events: sim.events_processed(),
        events_per_message: if stats.generated() > 0 {
            sim.events_processed() as f64 / stats.generated() as f64
        } else {
            0.0
        },
        seed: config.seed,
    })
}

/// Aggregate of several independent replications of the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedReport {
    /// Per-replication reports.
    pub replications: Vec<SimReport>,
    /// Mean of the per-replication mean latencies.
    pub mean_latency: f64,
    /// 95% confidence-interval half-width over the replication means, or `None`
    /// when it cannot be estimated (fewer than two replications). A single
    /// replication used to be reported as a half-width of `0.0` — false perfect
    /// confidence; the absence of an estimate is now explicit.
    pub halfwidth_95: Option<f64>,
}

/// The shared replication driver: fans per-replication configs over the
/// worker pool and aggregates in replication order, for any backend's
/// single-run function. Each worker thread carries one engine cache slot from
/// `slots`, so a run function built on
/// [`Scenario::run_point_reusing`](crate::scenario::Scenario::run_point_reusing)
/// resets one engine per worker instead of allocating one per replication.
/// The caches survive the call, so a driver running many
/// replication sets back to back (a replicated sweep, a campaign column)
/// builds exactly `max_workers()` engines over its whole lifetime instead of
/// one set per batch. `N` replications on `W` workers build at most `W`
/// engines — and zero new ones once the pool is warm.
pub(crate) fn replicate_pooled<F>(
    config: &SimConfig,
    replications: usize,
    slots: &mut Vec<Option<Simulation>>,
    run: F,
) -> Result<ReplicatedReport>
where
    F: Fn(&mut Option<Simulation>, SimConfig) -> Result<SimReport> + Sync,
{
    if replications == 0 {
        return Err(SimError::InvalidConfiguration {
            reason: "at least one replication is required".into(),
        });
    }
    let results = mcnet_system::parallel::parallel_map_reusing(
        (0..replications).collect(),
        slots,
        |slot, _, r| run(slot, SimConfig { seed: config.seed.wrapping_add(r as u64), ..*config }),
    );

    let mut replication_reports = Vec::with_capacity(replications);
    for r in results {
        replication_reports.push(r?);
    }
    Ok(aggregate_replications(replication_reports))
}

/// Aggregates per-replication reports (in replication order) into a
/// [`ReplicatedReport`] — the one aggregation both the pool-fanned
/// [`replicate_pooled`] and the sequential
/// [`Scenario::execute_reusing`](crate::scenario::Scenario::execute_reusing)
/// path share, so a campaign cell and a standalone `replicate` produce
/// bit-identical aggregates from the same per-replication reports.
pub(crate) fn aggregate_replications(replication_reports: Vec<SimReport>) -> ReplicatedReport {
    let mut stats = RunningStats::new();
    for r in &replication_reports {
        stats.push(r.mean_latency);
    }
    let halfwidth = mcnet_queueing::stats::confidence_interval_halfwidth(&stats, 0.95);
    ReplicatedReport {
        mean_latency: stats.mean(),
        halfwidth_95: halfwidth.is_finite().then_some(halfwidth),
        replications: replication_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use mcnet_system::organizations;

    fn tree_scenario(config: SimConfig) -> Scenario {
        Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .config(config)
            .build()
            .unwrap()
    }

    fn torus_scenario(config: SimConfig) -> Scenario {
        Scenario::builder()
            .torus(mcnet_system::TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .config(config)
            .build()
            .unwrap()
    }

    #[test]
    fn config_presets_are_valid() {
        assert!(SimConfig::paper(1).validate().is_ok());
        assert!(SimConfig::reduced(1).validate().is_ok());
        assert!(SimConfig::quick(1).validate().is_ok());
        let bad = SimConfig { measured_messages: 0, ..SimConfig::quick(1) };
        assert!(bad.validate().is_err());
        let bad = SimConfig { max_events: 0, ..SimConfig::quick(1) };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        let report = tree_scenario(SimConfig::quick(5)).run().unwrap();
        assert_eq!(report.measured_messages, 2_000);
        assert_eq!(report.generated_messages, 2_400);
        assert!(report.mean_latency > 0.0);
        assert!(report.max_latency >= report.mean_latency);
        assert!(report.simulated_time > 0.0);
        assert!(report.events > 0);
        // Every message costs at least generation + header + tail.
        assert!(report.events_per_message >= 3.0, "{}", report.events_per_message);
        assert!(
            (report.events_per_message - report.events as f64 / report.generated_messages as f64)
                .abs()
                < 1e-12
        );
        assert!(report.intra.count + report.inter.count == report.measured_messages);
        assert!(report.p99_latency.unwrap_or(f64::MAX) >= report.mean_latency * 0.5);
        // Fault-free runs: everything generated is delivered, nothing retries
        // or drops, per-attempt latency collapses onto the plain mean, the
        // time series stays empty — and the digest is a real fold, not the
        // untouched FNV offset basis.
        assert_eq!(report.delivered_messages, report.generated_messages);
        assert_eq!(report.retransmits, 0);
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(report.mean_attempt_latency.to_bits(), report.mean_latency.to_bits());
        assert!(report.time_series.is_empty());
        assert_ne!(report.digest, 0xcbf2_9ce4_8422_2325);
        // Utilisations are proper fractions and the bridges see real load at this rate.
        assert!((0.0..=1.0).contains(&report.max_channel_utilization));
        let mean_bridge = report.mean_bridge_utilization.expect("tree fabrics have bridges");
        let max_bridge = report.max_bridge_utilization.expect("tree fabrics have bridges");
        assert!((0.0..=1.0).contains(&max_bridge));
        assert!(mean_bridge > 0.0);
        assert!(max_bridge >= mean_bridge);
    }

    #[test]
    fn replications_run_in_parallel_and_aggregate() {
        let scenario = tree_scenario(SimConfig::quick(100));
        let agg = scenario.replicate(3).unwrap();
        assert_eq!(agg.replications.len(), 3);
        // Different seeds give different (but close) means.
        let means: Vec<f64> = agg.replications.iter().map(|r| r.mean_latency).collect();
        assert!(means.iter().any(|&m| (m - means[0]).abs() > 0.0));
        let avg = means.iter().sum::<f64>() / means.len() as f64;
        assert!((agg.mean_latency - avg).abs() < 1e-12);
        assert!(agg.halfwidth_95.expect("3 replications give a CI") >= 0.0);
        assert!(tree_scenario(SimConfig::quick(1)).replicate(0).is_err());
    }

    #[test]
    fn single_replication_reports_no_confidence_interval() {
        // One replication used to report halfwidth 0.0 — false perfect
        // confidence. It must now be explicit about having no estimate.
        let scenario = tree_scenario(SimConfig::quick(5));
        let one = scenario.replicate(1).unwrap();
        assert_eq!(one.replications.len(), 1);
        assert_eq!(one.halfwidth_95, None);
        let two = scenario.replicate(2).unwrap();
        assert!(two.halfwidth_95.is_some());
    }

    #[test]
    fn torus_simulation_produces_a_full_report() {
        let report = torus_scenario(SimConfig::quick(5)).run().unwrap();
        assert_eq!(report.measured_messages, 2_000);
        assert_eq!(report.generated_messages, 2_400);
        assert!(report.mean_latency > 0.0);
        assert!(report.max_latency >= report.mean_latency);
        assert!(report.intra.count + report.inter.count == report.measured_messages);
        // No bridges exist on the torus: the report says so instead of faking
        // an idle utilisation of 0.0.
        assert_eq!(report.mean_bridge_utilization, None);
        assert_eq!(report.max_bridge_utilization, None);
        assert!((0.0..=1.0).contains(&report.max_channel_utilization));
        assert!(report.events > 0);
    }

    #[test]
    fn torus_replications_share_the_replication_contract() {
        let scenario = torus_scenario(SimConfig::quick(100));
        let agg = scenario.replicate(3).unwrap();
        assert_eq!(agg.replications.len(), 3);
        // Replication 0 equals the standalone run with the same seed.
        let standalone = scenario.run().unwrap();
        assert_eq!(agg.replications[0].mean_latency.to_bits(), standalone.mean_latency.to_bits());
        assert!(agg.halfwidth_95.is_some());
        assert!(scenario.replicate(0).is_err());
    }
}
