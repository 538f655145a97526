//! The declarative scenario layer: one entry point for every simulation run.
//!
//! Historically each fabric backend and each driver shape multiplied the
//! entry-point surface (`run_simulation` vs `run_torus_simulation`,
//! `run_replications` vs `run_torus_replications`, plus a hand-rolled sweep
//! loop in every experiment bin). A [`Scenario`] collapses that N×M×K space
//! into data: a fabric ([`Fabric::Tree`] or [`Fabric::Torus`]), a
//! [`TrafficConfig`], a [`SimConfig`] and a replication count, composed through
//! [`ScenarioBuilder`] and executed through [`Scenario::run`],
//! [`Scenario::replicate`] and [`Scenario::sweep_outcomes`]. The outputs and the
//! seed/aggregation contracts the legacy `run_*` functions had are preserved
//! **bit-identically**, pinned against frozen golden digests in
//! `tests/scenario_api.rs`; the wrappers themselves are gone.
//!
//! [`ScenarioSpec`] is the serializable plain-data mirror: fabric geometry
//! parameters, traffic pattern, protocol preset, seed and replication count,
//! read from and written to JSON through the offline [`crate::json`] layer
//! (`specs/*.json` at the workspace root holds exemplars; the `scenario` bin in
//! `mcnet-experiments` executes any of them).
//!
//! ```
//! use mcnet_sim::scenario::Scenario;
//! use mcnet_system::{organizations, TrafficConfig};
//! use mcnet_sim::SimConfig;
//!
//! let report = Scenario::builder()
//!     .tree(organizations::small_test_org())
//!     .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
//!     .config(SimConfig::quick(42))
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.mean_latency > 0.0);
//! ```

use crate::engine::Simulation;
use crate::fault::FaultPlan;
use crate::json::{object, Json};
use crate::policy::RoutingPolicy;
use crate::runner::{replicate_pooled, report_from, ReplicatedReport, SimConfig, SimReport};
use crate::traffic_source::TrafficSourceSpec;
use crate::{Result, SimError};
use mcnet_model::{ModelBackend, ModelOptions, ModelReport};
use mcnet_system::sweep::materialize_rates;
use mcnet_system::{organizations, MultiClusterSystem, TorusSystem, TrafficConfig, TrafficPattern};

/// A network fabric a scenario runs over — the configuration-layer counterpart
/// of the engine's `FabricBackend`, and the very type the analytical model
/// evaluates, so model and simulation are always built from one description.
pub use mcnet_model::ModelBackend as Fabric;

/// A fully-specified simulation scenario: fabric + traffic + measurement
/// protocol + replication plan. Build one with [`Scenario::builder`] or from a
/// serialized [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    fabric: Fabric,
    traffic: TrafficConfig,
    source: TrafficSourceSpec,
    config: SimConfig,
    replications: usize,
    faults: Option<FaultPlan>,
    routing: RoutingPolicy,
}

impl Scenario {
    /// Starts composing a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The scenario's name (used to key benchmark and report entries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fabric the scenario runs over.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The traffic configuration.
    pub fn traffic(&self) -> &TrafficConfig {
        &self.traffic
    }

    /// The arrival-process shape every node draws from
    /// ([`TrafficSourceSpec::Poisson`] unless the builder or spec said
    /// otherwise).
    pub fn source(&self) -> &TrafficSourceSpec {
        &self.source
    }

    /// The measurement protocol.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The planned replication count ([`Scenario::execute`] honours it;
    /// [`Scenario::replicate`] takes an explicit override).
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The fault-injection plan, if any. Every run and replication of the
    /// scenario applies it; the analytical mode ([`Scenario::evaluate`])
    /// ignores it — the model has no fault semantics.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The routing policy every run of the scenario uses
    /// ([`RoutingPolicy::Deterministic`] unless the builder or spec said
    /// otherwise).
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// Returns the scenario re-seeded at `seed`, everything else unchanged.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Runs the scenario once. Bit-identical to the legacy
    /// `run_simulation` / `run_torus_simulation` at the same inputs.
    pub fn run(&self) -> Result<SimReport> {
        self.run_point_reusing(&mut None, &self.traffic, &self.config)
    }

    /// Runs `n` independent replications (seeds `seed`, `seed+1`, …) on the
    /// bounded worker pool and aggregates them in replication order —
    /// bit-identical to the legacy `run_replications` /
    /// `run_torus_replications` contract.
    pub fn replicate(&self, n: usize) -> Result<ReplicatedReport> {
        replicate_pooled(&self.config, n, &mut Vec::new(), |slot, cfg| {
            self.run_point_reusing(slot, &self.traffic, &cfg)
        })
    }

    /// Runs the scenario as planned: [`Scenario::run`] when `replications` is
    /// one, [`Scenario::replicate`] otherwise.
    pub fn execute(&self) -> Result<ScenarioOutcome> {
        if self.replications == 1 {
            Ok(ScenarioOutcome::Single(Box::new(self.run()?)))
        } else {
            Ok(ScenarioOutcome::Replicated(self.replicate(self.replications)?))
        }
    }

    /// [`Scenario::execute`] against a caller-held engine cache, for drivers
    /// (campaigns) that are themselves already fanned over the worker pool:
    /// replications run *sequentially* on the calling thread — a nested
    /// `parallel_map` would run inline there anyway — and every run resets
    /// the cached engine in place instead of allocating a fresh one.
    ///
    /// Bit-identical to [`Scenario::execute`]: replication `r` uses seed
    /// `seed + r` and the aggregate is computed in replication order, exactly
    /// the [`Scenario::replicate`] contract. The slot may hold an engine of
    /// any scenario: one built from another fabric or routing policy is
    /// rebuilt, not reset.
    pub fn execute_reusing(&self, slot: &mut Option<Simulation>) -> Result<ScenarioOutcome> {
        if self.replications == 1 {
            return Ok(ScenarioOutcome::Single(Box::new(self.run_point_reusing(
                slot,
                &self.traffic,
                &self.config,
            )?)));
        }
        let mut reports = Vec::with_capacity(self.replications);
        for r in 0..self.replications {
            let config = SimConfig { seed: self.config.seed.wrapping_add(r as u64), ..self.config };
            reports.push(self.run_point_reusing(slot, &self.traffic, &config)?);
        }
        Ok(ScenarioOutcome::Replicated(crate::runner::aggregate_replications(reports)))
    }

    /// Sweeps the generation rate over `rates`, one single run per point, and
    /// returns each point's own `Result` so callers can treat deep saturation
    /// ([`SimError::EventBudgetExhausted`]) as a missing point instead of
    /// failing the whole sweep. The outer `Result` only reports invalid rate
    /// grids ([`SimError::InvalidSpec`] for an empty, non-finite or
    /// non-positive grid — a silent empty report used to be the failure mode).
    ///
    /// The points are independent, so they fan over the bounded worker pool;
    /// point `i` uses seed `seed + i` and results aggregate in sweep order, so
    /// the output is bit-identical regardless of thread interleaving (the same
    /// contract the figure sweeps have always had). The rate grid is
    /// materialized through [`mcnet_system::sweep::materialize_rates`], keeping
    /// the scenario's geometry and destination pattern at every point.
    pub fn sweep_outcomes(&self, rates: &[f64]) -> Result<Vec<Result<SimReport>>> {
        let configs = self.materialize_grid(rates)?;
        Ok(mcnet_system::parallel::parallel_map_reusing(
            configs,
            &mut Vec::new(),
            |slot, i, traffic| {
                let config =
                    SimConfig { seed: self.config.seed.wrapping_add(i as u64), ..self.config };
                self.run_point_reusing(slot, &traffic, &config)
            },
        ))
    }

    /// Sweeps the generation rate over `rates` with `n` replications per point.
    ///
    /// Points run sequentially on purpose: each replication set already fans
    /// over the bounded worker pool, and a `parallel_map` nested in a point
    /// would run inline on that point's thread. Every point replicates from
    /// the same base seed (seeds `seed … seed+n-1`), the backend-comparison
    /// contract.
    ///
    /// One engine pool is threaded through the *whole* sweep: the per-worker
    /// engines warmed by the first point are reset — not reallocated — for
    /// every following point, so a sweep of `P` points × `n` replications on
    /// `W` workers builds exactly `min(W, n)` engines, total.
    pub fn sweep_replicated(
        &self,
        rates: &[f64],
        n: usize,
    ) -> Result<Vec<Result<ReplicatedReport>>> {
        let configs = self.materialize_grid(rates)?;
        let mut slots: Vec<Option<Simulation>> = Vec::new();
        Ok(configs
            .into_iter()
            .map(|traffic| {
                replicate_pooled(&self.config, n, &mut slots, |slot, cfg| {
                    self.run_point_reusing(slot, &traffic, &cfg)
                })
            })
            .collect())
    }

    /// The analytical model bound to this scenario's fabric: a copy of
    /// [`Scenario::fabric`], which already is the model's backend type.
    pub fn model_backend(&self) -> ModelBackend {
        self.fabric.clone()
    }

    /// Evaluates the scenario **analytically**: the same fabric and traffic
    /// point, sent through `mcnet-model` instead of the discrete-event engine.
    /// One scenario (or serialized spec) thereby drives model *or* simulation;
    /// the `scenario` bin's `--model` flag and the `model_vs_sim` validation
    /// sweep in `mcnet-experiments` are the spec-driven faces of this method.
    ///
    /// Saturation surfaces as the typed [`SimError::ModelSaturated`] — the
    /// analytical counterpart of a simulation exhausting its event budget.
    ///
    /// The model runs at its default interpretation options, except that the
    /// scenario's routing policy sets the torus-routing knob, so an adaptive
    /// spec evaluates through the adaptive-load model.
    pub fn evaluate(&self) -> Result<ModelReport> {
        Ok(self.fabric.evaluate(&self.model_traffic()?, self.model_options())?)
    }

    /// The traffic point the analytical model evaluates: the configured point
    /// with the generation rate replaced by the traffic source's long-run
    /// **effective rate** (see [`TrafficSourceSpec::effective_rate`]). The
    /// model itself is Poisson-only, so a bursty or trace-driven source is
    /// approximated by its mean load — the `model_vs_sim` burstiness table in
    /// `mcnet-experiments` quantifies how far that approximation drifts. A
    /// Poisson source returns the configured traffic untouched, keeping the
    /// analytical path bit-identical to the pre-source-subsystem layer.
    fn model_traffic(&self) -> Result<TrafficConfig> {
        let rate =
            self.source.effective_rate(self.traffic.generation_rate, self.fabric.total_nodes())?;
        if rate == self.traffic.generation_rate {
            return Ok(self.traffic);
        }
        Ok(self.traffic.with_rate(rate)?)
    }

    /// The rate-axis scale factor between the configured and the effective
    /// rate: callers sweep and search on the *configured* axis, the model
    /// evaluates on the *effective* one. `1.0` for Poisson and ON-OFF sources.
    fn model_rate_scale(&self) -> Result<f64> {
        let rate = self.traffic.generation_rate;
        Ok(self.source.effective_rate(rate, self.fabric.total_nodes())? / rate)
    }

    /// The model's default options with the scenario's routing policy mapped
    /// onto its knobs. Randomized up*/down* routing needs no mapping: it
    /// redistributes load across symmetric channels of the same networks,
    /// which the tree model's network-mean rates already describe.
    fn model_options(&self) -> ModelOptions {
        let base = ModelOptions::default();
        match self.routing {
            RoutingPolicy::AdaptiveTorus { adaptive_vcs } => {
                base.with_adaptive_torus(adaptive_vcs as usize)
            }
            RoutingPolicy::Deterministic | RoutingPolicy::RandomizedUpDown => base,
        }
    }

    /// The analytical saturation rate of the scenario's fabric and traffic
    /// under the scenario's routing policy: adaptive specs probe the
    /// adaptive-load model, whose extra virtual-channel capacity saturates
    /// later than dimension order, so validation sweeps scale their rate grid
    /// to the policy actually being simulated.
    pub fn find_saturation_rate(&self, tolerance: f64) -> Result<f64> {
        let saturation =
            self.fabric.find_saturation_rate(&self.traffic, self.model_options(), tolerance)?;
        // The search runs on the model's (effective-rate) axis; report the
        // *configured* rate whose effective load saturates, so sweeps built
        // from fractions of this value stay on the caller's axis. The scale
        // is 1.0 for Poisson and ON-OFF sources, keeping them bit-identical.
        Ok(saturation / self.model_rate_scale()?)
    }

    /// Evaluates the model over a rate grid (the analytical counterpart of
    /// [`Scenario::sweep_outcomes`]): per-point results so saturated points can
    /// be treated as missing, an [`SimError::InvalidSpec`] outer error for a
    /// degenerate grid.
    pub fn evaluate_sweep(&self, rates: &[f64]) -> Result<Vec<Result<ModelReport>>> {
        // Validates the grid exactly as the simulation sweep does.
        self.materialize_grid(rates)?;
        // Batched evaluation: the load/saturation structure is built once and
        // every rate point rebinds over it — bit-identical to a pointwise
        // `evaluate` loop (see `evaluate_batch`), several times faster. The
        // grid is mapped onto the model's effective-rate axis first; the scale
        // is 1.0 (no mapping) for Poisson and ON-OFF sources.
        let scale = self.model_rate_scale()?;
        let effective: Vec<f64>;
        let model_rates = if scale == 1.0 {
            rates
        } else {
            effective = rates.iter().map(|r| r * scale).collect();
            &effective
        };
        let reports =
            self.fabric.evaluate_batch(&self.traffic, model_rates, self.model_options())?;
        Ok(reports.into_iter().map(|r| r.map_err(SimError::from)).collect())
    }

    /// Validates and materializes a sweep's rate grid. An empty grid used to
    /// produce an empty report with no diagnostic; it is now a typed spec
    /// error, as are non-finite and non-positive rates.
    fn materialize_grid(&self, rates: &[f64]) -> Result<Vec<TrafficConfig>> {
        if rates.is_empty() {
            return Err(SimError::InvalidSpec {
                reason: "sweep rate grid is empty (a sweep needs at least one rate)".into(),
            });
        }
        if let Some(bad) = rates.iter().find(|r| !r.is_finite() || **r <= 0.0) {
            return Err(SimError::InvalidSpec {
                reason: format!("sweep rate grid contains a non-positive or non-finite rate {bad}"),
            });
        }
        materialize_rates(&self.traffic, rates).map_err(|e| SimError::InvalidSpec {
            reason: format!("sweep rate grid could not be materialized: {e}"),
        })
    }

    /// Builds the engine for one run — the fabric dispatch behind
    /// [`Scenario::run_point_reusing`].
    fn build_sim(&self, traffic: &TrafficConfig, config: &SimConfig) -> Result<Simulation> {
        let faults = self.faults.as_ref();
        match &self.fabric {
            Fabric::Tree(system) => {
                Simulation::new_full(system, traffic, config, faults, self.routing, &self.source)
            }
            Fabric::Torus(torus) => Simulation::new_torus_full(
                torus,
                traffic,
                config,
                faults,
                self.routing,
                &self.source,
            ),
        }
    }

    /// One simulation run at an explicit traffic point and protocol — the
    /// primitive every public entry point reduces to — against an engine
    /// cache: a cached engine built from this scenario's fabric and routing
    /// policy is [`reset`](Simulation::reset) in place (reusing all of its
    /// grown allocations); a missing or incompatible one — another fabric or
    /// policy, or a changed message geometry — is built fresh and cached. A
    /// fresh and a reset engine give bit-identical reports by the reset
    /// contract, so the cache only changes how much the run allocates, and a
    /// slot may be fed runs of any scenario.
    pub(crate) fn run_point_reusing(
        &self,
        slot: &mut Option<Simulation>,
        traffic: &TrafficConfig,
        config: &SimConfig,
    ) -> Result<SimReport> {
        if let Some(sim) = slot {
            if sim.backend().is_built_from(&self.fabric, self.routing)
                && sim.reset(traffic, &self.source, config, self.faults.as_ref()).is_ok()
            {
                let report = report_from(sim, traffic, config);
                if report.is_err() {
                    // A run that died mid-flight (exhausted event budget)
                    // leaves live in-flight state; drop the engine rather
                    // than reset around it.
                    *slot = None;
                }
                return report;
            }
            // Another fabric or policy, or a changed message geometry:
            // rebuild below.
            *slot = None;
        }
        let mut sim = self.build_sim(traffic, config)?;
        let report = report_from(&mut sim, traffic, config)?;
        *slot = Some(sim);
        Ok(report)
    }
}

/// What [`Scenario::execute`] produced: a single run or a replicated aggregate.
/// The single report is boxed: `SimReport` carries the degradation time
/// series, so inline it would dwarf the replicated variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// One simulation run (`replications == 1`).
    Single(Box<SimReport>),
    /// An aggregate over independent replications.
    Replicated(ReplicatedReport),
}

impl ScenarioOutcome {
    /// The headline mean latency of the outcome.
    pub fn mean_latency(&self) -> f64 {
        match self {
            ScenarioOutcome::Single(r) => r.mean_latency,
            ScenarioOutcome::Replicated(r) => r.mean_latency,
        }
    }

    /// Renders the outcome as a JSON tree (every report field included).
    pub fn to_json(&self) -> Json {
        match self {
            ScenarioOutcome::Single(r) => {
                object([("kind", Json::String("single".into())), ("report", sim_report_json(r))])
            }
            ScenarioOutcome::Replicated(r) => object([
                ("kind", Json::String("replicated".into())),
                ("report", replicated_report_json(r)),
            ]),
        }
    }
}

/// Composable builder for [`Scenario`]. Fabric and traffic are mandatory; the
/// protocol defaults to [`SimConfig::quick`] with seed 0 and the replication
/// plan to a single run.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    name: Option<String>,
    fabric: Option<Fabric>,
    traffic: Option<TrafficConfig>,
    source: Option<TrafficSourceSpec>,
    config: Option<SimConfig>,
    replications: Option<usize>,
    faults: Option<FaultPlan>,
    routing: Option<RoutingPolicy>,
}

impl ScenarioBuilder {
    /// Names the scenario (defaults to the fabric summary).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Runs over the given fabric.
    pub fn fabric(mut self, fabric: Fabric) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Runs over a multi-cluster tree fabric.
    pub fn tree(self, system: MultiClusterSystem) -> Self {
        self.fabric(Fabric::Tree(system))
    }

    /// Runs over a k-ary n-cube (torus) fabric.
    pub fn torus(self, torus: TorusSystem) -> Self {
        self.fabric(Fabric::Torus(torus))
    }

    /// Sets the traffic configuration.
    pub fn traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Sets the traffic-source shape (defaults to
    /// [`TrafficSourceSpec::Poisson`], the paper's arrival process). The spec
    /// is validated against the fabric at [`build`](Self::build).
    pub fn source(mut self, source: TrafficSourceSpec) -> Self {
        self.source = Some(source);
        self
    }

    /// Sets the measurement protocol.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the planned replication count (≥ 1).
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = Some(replications);
        self
    }

    /// Injects a fault plan: timed link/switch outages with degraded-mode
    /// delivery (abort, backoff retransmission, bounded retries). The plan is
    /// validated against the fabric at [`build`](Self::build).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the routing policy (defaults to [`RoutingPolicy::Deterministic`]).
    /// The policy must match the fabric — [`RoutingPolicy::AdaptiveTorus`]
    /// needs a torus of at most 8 dimensions,
    /// [`RoutingPolicy::RandomizedUpDown`] a tree — which is
    /// checked at [`build`](Self::build).
    pub fn routing(mut self, policy: RoutingPolicy) -> Self {
        self.routing = Some(policy);
        self
    }

    /// Validates and assembles the scenario.
    pub fn build(self) -> Result<Scenario> {
        let fabric = self.fabric.ok_or_else(|| SimError::InvalidConfiguration {
            reason: "a scenario needs a fabric (tree or torus)".into(),
        })?;
        let traffic = self.traffic.ok_or_else(|| SimError::InvalidConfiguration {
            reason: "a scenario needs a traffic configuration".into(),
        })?;
        let config = self.config.unwrap_or_else(|| SimConfig::quick(0));
        let replications = self.replications.unwrap_or(1);
        let name = self.name.unwrap_or_else(|| fabric.summary());
        let routing = self.routing.unwrap_or_default();
        let source = self.source.unwrap_or_default();
        let scenario = Scenario {
            name,
            fabric,
            traffic,
            source,
            config,
            replications,
            faults: self.faults,
            routing,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

impl Scenario {
    /// Validates the assembled scenario: traffic and protocol parameters,
    /// a strictly positive generation rate (a rate of zero generates no
    /// messages, so the measurement phase could never complete), at least one
    /// replication, and a hot-spot node that exists on the fabric.
    fn validate(&self) -> Result<()> {
        self.traffic.validate()?;
        self.config.validate()?;
        if self.traffic.generation_rate <= 0.0 {
            return Err(SimError::InvalidConfiguration {
                reason: "scenario generation_rate must be positive".into(),
            });
        }
        if self.replications == 0 {
            return Err(SimError::InvalidConfiguration {
                reason: "scenario replications must be at least 1".into(),
            });
        }
        if let TrafficPattern::Hotspot { hotspot, .. } = self.traffic.pattern {
            if hotspot >= self.fabric.total_nodes() {
                return Err(SimError::InvalidConfiguration {
                    reason: format!(
                        "hotspot node {hotspot} is out of range for a fabric of {} nodes",
                        self.fabric.total_nodes()
                    ),
                });
            }
        }
        self.source.validate()?;
        if let TrafficSourceSpec::HeterogeneousRates { multipliers, .. } = &self.source {
            if multipliers.len() != self.fabric.total_nodes() {
                return Err(SimError::InvalidConfiguration {
                    reason: format!(
                        "heterogeneous source has {} multipliers for a fabric of {} nodes",
                        multipliers.len(),
                        self.fabric.total_nodes()
                    ),
                });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
            plan.validate_against(&self.fabric)?;
        }
        self.routing.validate_for(match &self.fabric {
            Fabric::Tree(_) => None,
            Fabric::Torus(torus) => Some(torus),
        })
    }
}

/// The measurement-protocol presets a serialized spec can name (the explicit
/// message counts stay an in-code concern of [`SimConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// [`SimConfig::quick`]: 200/2k/200 messages.
    Quick,
    /// [`SimConfig::reduced`]: 1k/10k/1k messages.
    Reduced,
    /// [`SimConfig::paper`]: the paper's 10k/100k/10k protocol.
    Paper,
}

impl Protocol {
    /// The corresponding simulation protocol.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Protocol::Quick => SimConfig::quick(seed),
            Protocol::Reduced => SimConfig::reduced(seed),
            Protocol::Paper => SimConfig::paper(seed),
        }
    }

    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Quick => "quick",
            Protocol::Reduced => "reduced",
            Protocol::Paper => "paper",
        }
    }
}

impl std::str::FromStr for Protocol {
    type Err = SimError;

    /// Parses the spec-file spelling (`"quick"`, `"reduced"`, `"paper"`).
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "quick" => Ok(Protocol::Quick),
            "reduced" => Ok(Protocol::Reduced),
            "paper" => Ok(Protocol::Paper),
            other => Err(spec_error(format!(
                "unknown protocol {other:?} (expected \"quick\", \"reduced\" or \"paper\")"
            ))),
        }
    }
}

/// Serializable fabric geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricSpec {
    /// A named predefined organization from
    /// [`mcnet_system::organizations`]: `"table1_org_a"`, `"table1_org_b"`,
    /// `"small_test"` or `"medium"`.
    Org {
        /// The organization name.
        name: String,
    },
    /// An explicit heterogeneous tree: `(count, ports, levels)` cluster groups.
    Tree {
        /// Cluster groups, each repeated `count` times.
        groups: Vec<(usize, usize, usize)>,
    },
    /// A k-ary n-cube torus.
    Torus {
        /// Radix `k` (nodes per dimension).
        radix: usize,
        /// Dimension count `n`.
        dimensions: usize,
    },
}

impl FabricSpec {
    /// Materializes the fabric.
    pub fn build(&self) -> Result<Fabric> {
        match self {
            FabricSpec::Org { name } => Ok(Fabric::Tree(match name.as_str() {
                "table1_org_a" => organizations::table1_org_a(),
                "table1_org_b" => organizations::table1_org_b(),
                "small_test" => organizations::small_test_org(),
                "medium" => organizations::medium_org(),
                other => {
                    return Err(spec_error(format!(
                        "unknown organization {other:?} (expected \"table1_org_a\", \
                         \"table1_org_b\", \"small_test\" or \"medium\")"
                    )))
                }
            })),
            FabricSpec::Tree { groups } => {
                if groups.is_empty() {
                    return Err(spec_error("tree fabric needs at least one cluster group"));
                }
                let clusters = organizations::cluster_groups(groups)?;
                Ok(Fabric::Tree(MultiClusterSystem::new(clusters)?))
            }
            FabricSpec::Torus { radix, dimensions } => {
                Ok(Fabric::Torus(TorusSystem::new(*radix, *dimensions)?))
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            FabricSpec::Org { name } => {
                object([("kind", Json::String("org".into())), ("name", Json::String(name.clone()))])
            }
            FabricSpec::Tree { groups } => object([
                ("kind", Json::String("tree".into())),
                (
                    "groups",
                    Json::Array(
                        groups
                            .iter()
                            .map(|&(count, ports, levels)| {
                                Json::Array(vec![
                                    Json::from_u64(count as u64),
                                    Json::from_u64(ports as u64),
                                    Json::from_u64(levels as u64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            FabricSpec::Torus { radix, dimensions } => object([
                ("kind", Json::String("torus".into())),
                ("radix", Json::from_u64(*radix as u64)),
                ("dimensions", Json::from_u64(*dimensions as u64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self> {
        let obj = v.as_object().ok_or_else(|| spec_error("\"fabric\" must be an object"))?;
        match get_str(v, "fabric.kind", "kind")? {
            "org" => {
                reject_unknown_keys(v, "\"fabric\"", &["kind", "name"])?;
                Ok(FabricSpec::Org { name: get_str(v, "fabric.name", "name")?.to_string() })
            }
            "tree" => {
                reject_unknown_keys(v, "\"fabric\"", &["kind", "groups"])?;
                let groups = obj
                    .get("groups")
                    .and_then(Json::as_array)
                    .ok_or_else(|| spec_error("tree fabric needs a \"groups\" array"))?;
                let mut out = Vec::with_capacity(groups.len());
                for g in groups {
                    let triple = g.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                        spec_error("each tree group must be a [count, ports, levels] triple")
                    })?;
                    let mut nums = [0usize; 3];
                    for (slot, item) in nums.iter_mut().zip(triple) {
                        *slot = item.as_usize().ok_or_else(|| {
                            spec_error("tree group entries must be non-negative integers")
                        })?;
                    }
                    out.push((nums[0], nums[1], nums[2]));
                }
                Ok(FabricSpec::Tree { groups: out })
            }
            "torus" => {
                reject_unknown_keys(v, "\"fabric\"", &["kind", "radix", "dimensions"])?;
                Ok(FabricSpec::Torus {
                    radix: get_usize(v, "fabric.radix", "radix")?,
                    dimensions: get_usize(v, "fabric.dimensions", "dimensions")?,
                })
            }
            other => Err(spec_error(format!(
                "unknown fabric kind {other:?} (expected \"org\", \"tree\" or \"torus\")"
            ))),
        }
    }
}

/// The serializable plain-data mirror of a [`Scenario`]: everything needed to
/// reproduce a run, with the measurement protocol named by preset. Stored as
/// JSON under `specs/`; see [`ScenarioSpec::from_json`] for the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (keys report and benchmark entries).
    pub name: String,
    /// Fabric geometry.
    pub fabric: FabricSpec,
    /// Message geometry, load and destination pattern.
    pub traffic: TrafficConfig,
    /// Arrival-process shape ([`TrafficSourceSpec::Poisson`] serializes
    /// without a `"source"` key inside `"traffic"`, so every pre-source spec
    /// file parses — and serializes — unchanged; bursty arrivals are opt-in).
    pub source: TrafficSourceSpec,
    /// Measurement-protocol preset.
    pub protocol: Protocol,
    /// Base RNG seed.
    pub seed: u64,
    /// Replication count (≥ 1; 1 means a single run).
    pub replications: usize,
    /// Optional fault-injection plan (timed outages + retry policy). `None`
    /// runs fault-free and serializes without a `"faults"` key.
    pub faults: Option<FaultPlan>,
    /// Routing policy. [`RoutingPolicy::Deterministic`] serializes without a
    /// `"routing"` key, so every pre-policy spec file parses unchanged — and
    /// adaptive routing is strictly opt-in.
    pub routing: RoutingPolicy,
}

impl ScenarioSpec {
    /// Materializes and validates the scenario described by the spec.
    pub fn build(&self) -> Result<Scenario> {
        let mut builder = Scenario::builder()
            .name(self.name.clone())
            .fabric(self.fabric.build()?)
            .traffic(self.traffic)
            .source(self.source.clone())
            .config(self.protocol.sim_config(self.seed))
            .replications(self.replications)
            .routing(self.routing);
        if let Some(plan) = &self.faults {
            builder = builder.faults(plan.clone());
        }
        builder.build()
    }

    /// Returns the spec with the protocol preset replaced (used by CI to run
    /// paper-protocol exemplars at quick protocol).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Serializes the spec as pretty-printed JSON (the `specs/*.json` format).
    pub fn to_json(&self) -> String {
        let pattern = match self.traffic.pattern {
            TrafficPattern::Uniform => object([("kind", Json::String("uniform".into()))]),
            TrafficPattern::Hotspot { hotspot, fraction } => object([
                ("kind", Json::String("hotspot".into())),
                ("hotspot", Json::from_u64(hotspot as u64)),
                ("fraction", Json::Number(fraction)),
            ]),
            TrafficPattern::LocalFavoring { locality } => object([
                ("kind", Json::String("local_favoring".into())),
                ("locality", Json::Number(locality)),
            ]),
        };
        let mut traffic_fields = vec![
            ("message_flits", Json::from_u64(self.traffic.message_flits as u64)),
            ("flit_bytes", Json::Number(self.traffic.flit_bytes)),
            ("generation_rate", Json::Number(self.traffic.generation_rate)),
            ("pattern", pattern),
        ];
        if !self.source.is_poisson() {
            traffic_fields.push(("source", self.source.to_json()));
        }
        let mut fields = vec![
            ("name", Json::String(self.name.clone())),
            ("fabric", self.fabric.to_json()),
            (
                "traffic",
                Json::Object(traffic_fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ),
            ("protocol", Json::String(self.protocol.as_str().into())),
            ("seed", seed_to_json(self.seed)),
            ("replications", Json::from_u64(self.replications as u64)),
        ];
        if let Some(plan) = &self.faults {
            fields.push(("faults", plan.to_json()));
        }
        if !self.routing.is_deterministic() {
            fields.push(("routing", routing_to_json(self.routing)));
        }
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_pretty()
    }

    /// Reads and parses a spec file ([`ScenarioSpec::from_json`]), then
    /// re-anchors any relative trace-file path in `traffic.source` against the
    /// spec file's own directory. This is the loader the spec-running binaries
    /// and the campaign engine use, so a committed spec can reference a
    /// committed trace (say `"path": "traces/torus_16node.csv"` next to it
    /// under `specs/`) and resolve it from any working directory.
    pub fn from_json_file(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| spec_error(format!("cannot read spec file {}: {e}", path.display())))?;
        let mut spec = Self::from_json(&text)?;
        if let Some(base) = path.parent() {
            spec.source.anchor_trace_path(base);
        }
        Ok(spec)
    }

    /// Parses a spec from its JSON form. The schema:
    ///
    /// ```json
    /// {
    ///   "name": "paper_tree_org_b",
    ///   "fabric": {"kind": "org", "name": "table1_org_b"},
    ///   "traffic": {
    ///     "message_flits": 32,
    ///     "flit_bytes": 256.0,
    ///     "generation_rate": 3.0e-4,
    ///     "pattern": {"kind": "uniform"}
    ///   },
    ///   "protocol": "paper",
    ///   "seed": 2006,
    ///   "replications": 3
    /// }
    /// ```
    ///
    /// `fabric.kind` is `"org"` (`name`), `"tree"` (`groups` of
    /// `[count, ports, levels]` triples) or `"torus"` (`radix`, `dimensions`);
    /// `pattern.kind` is `"uniform"`, `"hotspot"` (`hotspot`, `fraction`) or
    /// `"local_favoring"` (`locality`); `seed` is a JSON number, or a decimal
    /// string for values above 2⁵³ (which a JSON number cannot carry exactly).
    /// An optional `traffic.source` object selects the arrival process (see
    /// [`TrafficSourceSpec::from_json`] for its schema; omitted means Poisson,
    /// the paper's process). An optional `"faults"` object adds a
    /// fault-injection plan (see [`FaultPlan::from_json`] for its schema).
    /// Unknown fields anywhere in the spec are rejected — a misspelled key
    /// must not silently fall back to a default. Otherwise parsing only checks
    /// shape; value validation happens in [`ScenarioSpec::build`] so a spec
    /// with, say, a zero rate parses fine but fails to build with a typed
    /// error.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = Json::parse(text).map_err(|e| spec_error(e.to_string()))?;
        let obj = doc.as_object().ok_or_else(|| spec_error("spec must be a JSON object"))?;
        reject_unknown_keys(
            &doc,
            "the spec",
            &["name", "fabric", "traffic", "protocol", "seed", "replications", "faults", "routing"],
        )?;
        let traffic_json =
            obj.get("traffic").ok_or_else(|| spec_error("spec needs a \"traffic\" object"))?;
        reject_unknown_keys(
            traffic_json,
            "\"traffic\"",
            &["message_flits", "flit_bytes", "generation_rate", "pattern", "source"],
        )?;
        let pattern = match traffic_json.as_object().and_then(|t| t.get("pattern")) {
            None => TrafficPattern::Uniform,
            Some(p) => match get_str(p, "pattern.kind", "kind")? {
                "uniform" => {
                    reject_unknown_keys(p, "\"pattern\"", &["kind"])?;
                    TrafficPattern::Uniform
                }
                "hotspot" => {
                    reject_unknown_keys(p, "\"pattern\"", &["kind", "hotspot", "fraction"])?;
                    TrafficPattern::Hotspot {
                        hotspot: get_usize(p, "pattern.hotspot", "hotspot")?,
                        fraction: get_f64(p, "pattern.fraction", "fraction")?,
                    }
                }
                "local_favoring" => {
                    reject_unknown_keys(p, "\"pattern\"", &["kind", "locality"])?;
                    TrafficPattern::LocalFavoring {
                        locality: get_f64(p, "pattern.locality", "locality")?,
                    }
                }
                other => {
                    return Err(spec_error(format!(
                        "unknown pattern kind {other:?} (expected \"uniform\", \"hotspot\" or \
                         \"local_favoring\")"
                    )))
                }
            },
        };
        let traffic = TrafficConfig {
            message_flits: get_usize(traffic_json, "traffic.message_flits", "message_flits")?,
            flit_bytes: get_f64(traffic_json, "traffic.flit_bytes", "flit_bytes")?,
            generation_rate: get_f64(traffic_json, "traffic.generation_rate", "generation_rate")?,
            pattern,
        };
        let source = match traffic_json.as_object().and_then(|t| t.get("source")) {
            None => TrafficSourceSpec::Poisson,
            Some(s) => TrafficSourceSpec::from_json(s)?,
        };
        Ok(ScenarioSpec {
            name: get_str(&doc, "name", "name")?.to_string(),
            fabric: FabricSpec::from_json(
                obj.get("fabric").ok_or_else(|| spec_error("spec needs a \"fabric\" object"))?,
            )?,
            traffic,
            source,
            protocol: get_str(&doc, "protocol", "protocol")?.parse()?,
            seed: obj.get("seed").and_then(seed_from_json).ok_or_else(|| {
                spec_error("spec needs an integer \"seed\" (or a decimal string above 2^53)")
            })?,
            replications: obj
                .get("replications")
                .map_or(Some(1), Json::as_usize)
                .ok_or_else(|| spec_error("\"replications\" must be a non-negative integer"))?,
            faults: obj.get("faults").map(FaultPlan::from_json).transpose()?,
            routing: obj.get("routing").map(routing_from_json).transpose()?.unwrap_or_default(),
        })
    }
}

/// Serializes a non-deterministic routing policy as the spec's `"routing"`
/// object: `{"policy": "adaptive_torus", "adaptive_vcs": N}` or
/// `{"policy": "randomized_updown"}`. Deterministic policies never reach this
/// (the spec omits the key entirely).
fn routing_to_json(policy: RoutingPolicy) -> Json {
    match policy {
        RoutingPolicy::Deterministic => {
            object([("policy", Json::String(policy.spec_name().into()))])
        }
        RoutingPolicy::AdaptiveTorus { adaptive_vcs } => object([
            ("policy", Json::String(policy.spec_name().into())),
            ("adaptive_vcs", Json::from_u64(adaptive_vcs as u64)),
        ]),
        RoutingPolicy::RandomizedUpDown => {
            object([("policy", Json::String(policy.spec_name().into()))])
        }
    }
}

/// Parses the spec's `"routing"` object. Unknown policies and stray keys are
/// typed spec errors; `adaptive_vcs` belongs only to `"adaptive_torus"` (where
/// it defaults to [`crate::policy::DEFAULT_ADAPTIVE_VCS`]).
fn routing_from_json(v: &Json) -> Result<RoutingPolicy> {
    let obj = v.as_object().ok_or_else(|| spec_error("\"routing\" must be an object"))?;
    match get_str(v, "routing.policy", "policy")? {
        "deterministic" => {
            reject_unknown_keys(v, "\"routing\"", &["policy"])?;
            Ok(RoutingPolicy::Deterministic)
        }
        "adaptive_torus" => {
            reject_unknown_keys(v, "\"routing\"", &["policy", "adaptive_vcs"])?;
            let adaptive_vcs = match obj.get("adaptive_vcs") {
                None => crate::policy::DEFAULT_ADAPTIVE_VCS,
                Some(n) => n
                    .as_u64()
                    .filter(|&n| n >= 1 && n <= RoutingPolicy::MAX_ADAPTIVE_VCS as u64)
                    .ok_or_else(|| {
                        spec_error(format!(
                            "\"routing.adaptive_vcs\" must be an integer in 1..={}",
                            RoutingPolicy::MAX_ADAPTIVE_VCS
                        ))
                    })? as u8,
            };
            Ok(RoutingPolicy::AdaptiveTorus { adaptive_vcs })
        }
        "randomized_updown" => {
            reject_unknown_keys(v, "\"routing\"", &["policy"])?;
            Ok(RoutingPolicy::RandomizedUpDown)
        }
        other => Err(spec_error(format!(
            "unknown routing policy {other:?} (expected \"deterministic\", \"adaptive_torus\" or \
             \"randomized_updown\")"
        ))),
    }
}

pub(crate) fn spec_error(reason: impl Into<String>) -> SimError {
    SimError::InvalidSpec { reason: reason.into() }
}

/// Rejects unrecognised keys anywhere in a spec object — a misspelled nested
/// key (say `"patern"`) must fail loudly, not silently fall back to a default
/// and run the wrong workload. Non-objects pass through; the typed accessors
/// report those.
pub(crate) fn reject_unknown_keys(v: &Json, context: &str, allowed: &[&str]) -> Result<()> {
    if let Some(obj) = v.as_object() {
        for key in obj.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(spec_error(format!(
                    "unknown field {key:?} in {context} (expected one of {allowed:?})"
                )));
            }
        }
    }
    Ok(())
}

/// Encodes a full-range u64 seed: a JSON number when it fits the f64-exact
/// range, a decimal string above 2⁵³ (JSON numbers would silently round there,
/// breaking run reproducibility). Anything that prints a seed — the spec, the
/// report, the `scenario` bin — must use this, never `Json::from_u64`.
pub fn seed_to_json(seed: u64) -> Json {
    if seed <= (1 << 53) {
        Json::from_u64(seed)
    } else {
        Json::String(seed.to_string())
    }
}

/// Decodes either seed encoding.
pub(crate) fn seed_from_json(v: &Json) -> Option<u64> {
    v.as_u64().or_else(|| v.as_str().and_then(|s| s.parse().ok()))
}

pub(crate) fn get_str<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a str> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_str)
        .ok_or_else(|| spec_error(format!("spec needs a string field {path:?}")))
}

pub(crate) fn get_f64(v: &Json, path: &str, key: &str) -> Result<f64> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| spec_error(format!("spec needs a number field {path:?}")))
}

pub(crate) fn get_usize(v: &Json, path: &str, key: &str) -> Result<usize> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Json::as_usize)
        .ok_or_else(|| spec_error(format!("spec needs a non-negative integer field {path:?}")))
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Number)
}

fn class_summary_json(c: &crate::stats::ClassSummary) -> Json {
    object([
        ("count", Json::from_u64(c.count)),
        ("mean", Json::Number(c.mean)),
        ("std_dev", Json::Number(c.std_dev)),
    ])
}

/// Renders one [`SimReport`] as a JSON tree (all fields; `None` becomes
/// `null`). Kept in this module so the report schema and the spec schema
/// evolve together.
pub fn sim_report_json(r: &SimReport) -> Json {
    object([
        ("generation_rate", Json::Number(r.generation_rate)),
        ("mean_latency", Json::Number(r.mean_latency)),
        ("latency_std_dev", Json::Number(r.latency_std_dev)),
        ("latency_std_error", Json::Number(r.latency_std_error)),
        ("max_latency", Json::Number(r.max_latency)),
        ("p99_latency", opt_f64(r.p99_latency)),
        ("intra", class_summary_json(&r.intra)),
        ("inter", class_summary_json(&r.inter)),
        ("measured_messages", Json::from_u64(r.measured_messages)),
        ("generated_messages", Json::from_u64(r.generated_messages)),
        ("delivered_messages", Json::from_u64(r.delivered_messages)),
        ("retransmits", Json::from_u64(r.retransmits)),
        ("dropped_messages", Json::from_u64(r.dropped_messages)),
        ("mean_attempt_latency", Json::Number(r.mean_attempt_latency)),
        ("routing", Json::String(r.routing.clone())),
        ("adaptive_misroutes", Json::from_u64(r.adaptive_misroutes)),
        ("escape_fallbacks", Json::from_u64(r.escape_fallbacks)),
        // 16-hex-digit string: a u64 digest does not survive a JSON number.
        ("digest", Json::String(format!("{:016x}", r.digest))),
        (
            "time_series",
            Json::Array(
                r.time_series
                    .iter()
                    .map(|w| {
                        object([
                            ("start", Json::Number(w.start)),
                            ("delivered", Json::from_u64(w.delivered)),
                            ("dropped", Json::from_u64(w.dropped)),
                            ("mean_latency", opt_f64(w.mean_latency)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("contention_ratio", Json::Number(r.contention_ratio)),
        ("max_channel_utilization", Json::Number(r.max_channel_utilization)),
        ("mean_bridge_utilization", opt_f64(r.mean_bridge_utilization)),
        ("max_bridge_utilization", opt_f64(r.max_bridge_utilization)),
        ("simulated_time", Json::Number(r.simulated_time)),
        ("events", Json::from_u64(r.events)),
        ("events_per_message", Json::Number(r.events_per_message)),
        ("seed", seed_to_json(r.seed)),
    ])
}

/// Renders a [`ReplicatedReport`] as a JSON tree.
fn replicated_report_json(r: &ReplicatedReport) -> Json {
    object([
        ("mean_latency", Json::Number(r.mean_latency)),
        ("halfwidth_95", opt_f64(r.halfwidth_95)),
        ("replications", Json::Array(r.replications.iter().map(sim_report_json).collect())),
    ])
}

/// Renders a [`ModelReport`] (the [`Scenario::evaluate`] output) as a JSON
/// tree: the unified headline numbers plus the backend-specific breakdown.
pub fn model_report_json(r: &ModelReport) -> Json {
    let detail = match &r.detail {
        mcnet_model::ModelDetail::Tree(t) => object([
            ("kind", Json::String("tree".into())),
            ("clusters", Json::from_u64(t.clusters.len() as u64)),
        ]),
        mcnet_model::ModelDetail::Torus(t) => object([
            ("kind", Json::String("torus".into())),
            ("source_wait", Json::Number(t.source_wait)),
            ("network", Json::Number(t.network)),
            ("tail", Json::Number(t.tail)),
            ("average_hops", Json::Number(t.average_hops)),
            ("hotspot_total", opt_f64(t.hotspot_total)),
            ("background_total", opt_f64(t.background_total)),
        ]),
    };
    object([
        ("generation_rate", Json::Number(r.generation_rate)),
        ("mean_latency", Json::Number(r.mean_latency)),
        ("intra_latency", Json::Number(r.intra_latency)),
        ("inter_latency", Json::Number(r.inter_latency)),
        ("max_channel_utilization", Json::Number(r.max_channel_utilization)),
        ("max_bridge_utilization", opt_f64(r.max_bridge_utilization)),
        ("detail", detail),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tree_scenario(seed: u64) -> Scenario {
        Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .config(SimConfig::quick(seed))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_fabric_and_traffic() {
        let missing_fabric =
            Scenario::builder().traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap()).build();
        assert!(matches!(missing_fabric, Err(SimError::InvalidConfiguration { .. })));
        let missing_traffic = Scenario::builder().tree(organizations::small_test_org()).build();
        assert!(matches!(missing_traffic, Err(SimError::InvalidConfiguration { .. })));
    }

    #[test]
    fn builder_rejects_degenerate_scenarios() {
        let zero_rate = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 0.0).unwrap())
            .build();
        assert!(matches!(zero_rate, Err(SimError::InvalidConfiguration { .. })));
        let zero_reps = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .replications(0)
            .build();
        assert!(matches!(zero_reps, Err(SimError::InvalidConfiguration { .. })));
        let bad_hotspot = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(
                TrafficConfig::uniform(8, 256.0, 1e-3)
                    .unwrap()
                    .with_pattern(TrafficPattern::Hotspot { hotspot: 16, fraction: 0.2 })
                    .unwrap(),
            )
            .build();
        assert!(matches!(bad_hotspot, Err(SimError::InvalidConfiguration { .. })));
    }

    #[test]
    fn defaults_and_accessors() {
        let s = quick_tree_scenario(7);
        assert_eq!(s.replications(), 1);
        assert_eq!(s.name(), s.fabric().summary());
        assert_eq!(s.config().seed, 7);
        assert_eq!(s.clone().with_seed(9).config().seed, 9);
        let named = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .name("my_torus")
            .build()
            .unwrap();
        assert_eq!(named.name(), "my_torus");
    }

    #[test]
    fn execute_honours_the_replication_plan() {
        let single = quick_tree_scenario(5).execute().unwrap();
        assert!(matches!(single, ScenarioOutcome::Single(_)));
        let replicated = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .config(SimConfig::quick(5))
            .replications(2)
            .build()
            .unwrap()
            .execute()
            .unwrap();
        match &replicated {
            ScenarioOutcome::Replicated(r) => assert_eq!(r.replications.len(), 2),
            other => panic!("expected replicated outcome, got {other:?}"),
        }
        assert!(replicated.mean_latency() > 0.0);
        // The outcome JSON parses back and carries the headline number.
        let json = replicated.to_json().to_pretty();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.as_object().unwrap()["kind"].as_str(), Some("replicated"));
    }

    #[test]
    fn execute_reusing_is_bit_identical_to_execute() {
        // One cached engine serves a single run, a replicated aggregate and a
        // different-rate single run back to back — each outcome equal to the
        // fresh-engine `execute` of the same scenario.
        let mut slot = None;
        let single = quick_tree_scenario(5);
        assert_eq!(single.execute_reusing(&mut slot).unwrap(), single.execute().unwrap());
        assert!(slot.is_some(), "the engine must stay cached for the next cell");

        let replicated = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 2e-3).unwrap())
            .config(SimConfig::quick(41))
            .replications(3)
            .build()
            .unwrap();
        assert_eq!(replicated.execute_reusing(&mut slot).unwrap(), replicated.execute().unwrap());

        let single_again = quick_tree_scenario(77);
        assert_eq!(
            single_again.execute_reusing(&mut slot).unwrap(),
            single_again.execute().unwrap()
        );
    }

    #[test]
    fn a_reused_slot_never_runs_another_fabric_or_policy() {
        // Every scenario shares one message geometry, so `Simulation::reset`
        // alone would accept each cached engine; the slot must still rebuild
        // whenever the fabric or the routing policy changes.
        let torus = |routing| {
            Scenario::builder()
                .torus(TorusSystem::new(4, 2).unwrap())
                .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
                .config(SimConfig::quick(9))
                .routing(routing)
                .build()
                .unwrap()
        };
        let tree = |routing| {
            Scenario::builder()
                .tree(organizations::small_test_org())
                .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
                .config(SimConfig::quick(9))
                .routing(routing)
                .build()
                .unwrap()
        };
        let adaptive = RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 };
        // torus → tree → torus, deterministic → randomized tree and back,
        // then deterministic → adaptive torus and back.
        let sequence = [
            torus(RoutingPolicy::Deterministic),
            tree(RoutingPolicy::Deterministic),
            torus(RoutingPolicy::Deterministic),
            tree(RoutingPolicy::Deterministic),
            tree(RoutingPolicy::RandomizedUpDown),
            tree(RoutingPolicy::Deterministic),
            torus(adaptive),
            torus(RoutingPolicy::Deterministic),
        ];
        let mut slot = None;
        for (step, scenario) in sequence.iter().enumerate() {
            let reused = scenario.execute_reusing(&mut slot).unwrap();
            assert_eq!(reused, scenario.execute().unwrap(), "step {step}: {}", scenario.name());
            let engine = slot.as_ref().expect("a completed run keeps its engine");
            assert!(engine.backend().is_built_from(scenario.fabric(), scenario.routing()));
        }
    }

    #[test]
    fn sweep_matches_point_runs_bit_for_bit() {
        let s = quick_tree_scenario(100);
        let rates = [5e-4, 1e-3, 2e-3];
        let swept = s.sweep_outcomes(&rates).unwrap();
        assert_eq!(swept.len(), 3);
        for (i, (report, &rate)) in swept.into_iter().zip(&rates).enumerate() {
            // Point i of a sweep == a standalone run at rate_i with seed+i.
            let standalone = Scenario::builder()
                .tree(organizations::small_test_org())
                .traffic(s.traffic().with_rate(rate).unwrap())
                .config(SimConfig::quick(100 + i as u64))
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(report.unwrap(), standalone);
        }
    }

    #[test]
    fn degenerate_rate_grids_are_typed_spec_errors() {
        // An empty grid used to silently produce an empty report; it and every
        // non-finite / non-positive grid are now SimError::InvalidSpec.
        let s = quick_tree_scenario(1);
        for bad in [&[][..], &[f64::NAN][..], &[f64::INFINITY][..], &[1e-3, -1e-3][..], &[0.0][..]]
        {
            assert!(
                matches!(s.sweep_outcomes(bad), Err(SimError::InvalidSpec { .. })),
                "grid {bad:?} must be rejected as an invalid spec"
            );
            assert!(matches!(s.sweep_replicated(bad, 2), Err(SimError::InvalidSpec { .. })));
            assert!(matches!(s.evaluate_sweep(bad), Err(SimError::InvalidSpec { .. })));
        }
        // A valid grid still sweeps.
        assert_eq!(s.sweep_outcomes(&[1e-3]).unwrap().len(), 1);
    }

    #[test]
    fn evaluate_runs_the_analytical_model_on_both_fabrics() {
        // The scenario's analytical mode returns the same numbers as building
        // the model backend by hand, for the tree and the torus alike.
        let tree = quick_tree_scenario(3);
        let report = tree.evaluate().unwrap();
        assert_eq!(report.backend_kind(), "tree");
        let direct = tree
            .model_backend()
            .evaluate(tree.traffic(), mcnet_model::ModelOptions::default())
            .unwrap();
        assert_eq!(report, direct);
        assert!(report.mean_latency > 0.0);
        let doc = Json::parse(&model_report_json(&report).to_pretty()).unwrap();
        let bridge = doc.as_object().unwrap()["max_bridge_utilization"].as_f64();
        assert_eq!(bridge, report.max_bridge_utilization);
        assert!(bridge.is_some_and(|rho| rho > 0.0 && rho < 1.0));

        let torus = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(16, 256.0, 1e-3).unwrap())
            .build()
            .unwrap();
        let report = torus.evaluate().unwrap();
        assert_eq!(report.backend_kind(), "torus");
        assert!(report.intra_latency < report.inter_latency);
        // The JSON rendering parses back and carries the headline number.
        let doc = Json::parse(&model_report_json(&report).to_pretty()).unwrap();
        assert_eq!(doc.as_object().unwrap()["mean_latency"].as_f64(), Some(report.mean_latency));
        assert_eq!(doc.as_object().unwrap()["max_bridge_utilization"], Json::Null);

        // Saturation is a typed error, mirroring EventBudgetExhausted.
        let saturated = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(16, 256.0, 0.5).unwrap())
            .build()
            .unwrap()
            .evaluate();
        assert!(matches!(saturated, Err(SimError::ModelSaturated { .. })), "{saturated:?}");
    }

    #[test]
    fn evaluate_sweep_mirrors_the_simulation_sweep_contract() {
        let s = quick_tree_scenario(5);
        let rates = [2e-4, 4e-4];
        let reports = s.evaluate_sweep(&rates).unwrap();
        assert_eq!(reports.len(), 2);
        for (report, &rate) in reports.iter().zip(&rates) {
            let report = report.as_ref().unwrap();
            assert_eq!(report.generation_rate, rate);
        }
        // A spec round-trips into the same analytical result: one spec, two
        // worlds.
        let spec = ScenarioSpec {
            name: "eval".into(),
            fabric: FabricSpec::Torus { radix: 4, dimensions: 2 },
            traffic: TrafficConfig::uniform(16, 256.0, 1e-3).unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Quick,
            seed: 1,
            replications: 1,
            faults: None,
            routing: RoutingPolicy::Deterministic,
        };
        let from_spec = ScenarioSpec::from_json(&spec.to_json()).unwrap().build().unwrap();
        assert_eq!(from_spec.evaluate().unwrap(), spec.build().unwrap().evaluate().unwrap());
    }

    #[test]
    fn replicated_sweep_shares_the_backend_contract() {
        let s = quick_tree_scenario(40);
        let outcomes = s.sweep_replicated(&[1e-3, 2e-3], 2).unwrap();
        assert_eq!(outcomes.len(), 2);
        for (outcome, rate) in outcomes.iter().zip([1e-3, 2e-3]) {
            let agg = outcome.as_ref().unwrap();
            assert_eq!(agg.replications.len(), 2);
            assert!(agg.halfwidth_95.is_some());
            assert_eq!(agg.replications[0].generation_rate, rate);
            // Same base seed at every point (the backend-comparison contract).
            assert_eq!(agg.replications[0].seed, 40);
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            name: "round_trip".into(),
            fabric: FabricSpec::Tree { groups: vec![(2, 4, 1), (1, 4, 2)] },
            traffic: TrafficConfig {
                message_flits: 16,
                flit_bytes: 512.0,
                generation_rate: 2.5e-4,
                pattern: TrafficPattern::Hotspot { hotspot: 3, fraction: 0.15 },
            },
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Reduced,
            seed: 99,
            replications: 4,
            faults: None,
            routing: RoutingPolicy::Deterministic,
        };
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        // And the spec builds into a runnable scenario.
        let scenario = back.build().unwrap();
        assert_eq!(scenario.name(), "round_trip");
        assert_eq!(scenario.replications(), 4);
        assert_eq!(scenario.config().measured_messages, 10_000);
    }

    #[test]
    fn org_and_torus_specs_build() {
        for (name, fabric) in
            [("table1_org_a", 1120), ("table1_org_b", 544), ("small_test", 32), ("medium", 128)]
        {
            let spec = FabricSpec::Org { name: name.into() };
            assert_eq!(spec.build().unwrap().total_nodes(), fabric);
        }
        assert!(FabricSpec::Org { name: "nope".into() }.build().is_err());
        let torus = FabricSpec::Torus { radix: 8, dimensions: 2 }.build().unwrap();
        assert_eq!(torus.total_nodes(), 64);
    }

    #[test]
    fn invalid_specs_fail_with_typed_errors() {
        // Zero generation rate parses but fails to build.
        let zero_rate = r#"{
            "name": "bad", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2},
            "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 0.0},
            "protocol": "quick", "seed": 1, "replications": 1
        }"#;
        let spec = ScenarioSpec::from_json(zero_rate).unwrap();
        assert!(matches!(spec.build(), Err(SimError::InvalidConfiguration { .. })));
        // Empty geometry is rejected.
        let empty_tree = r#"{
            "name": "bad", "fabric": {"kind": "tree", "groups": []},
            "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3},
            "protocol": "quick", "seed": 1, "replications": 1
        }"#;
        let spec = ScenarioSpec::from_json(empty_tree).unwrap();
        assert!(matches!(spec.build(), Err(SimError::InvalidSpec { .. })));
        // Shape errors are typed, not panics.
        for bad in [
            "not json",
            "[]",
            r#"{"name": "x"}"#,
            r#"{"name": "x", "fabric": {"kind": "warp"}, "traffic": {"message_flits": 8,
                "flit_bytes": 256.0, "generation_rate": 1e-3}, "protocol": "quick", "seed": 1}"#,
            r#"{"name": "x", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2},
                "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3},
                "protocol": "warp", "seed": 1}"#,
            r#"{"name": "x", "unknown_field": 1, "fabric": {"kind": "torus", "radix": 4,
                "dimensions": 2}, "traffic": {"message_flits": 8, "flit_bytes": 256.0,
                "generation_rate": 1e-3}, "protocol": "quick", "seed": 1}"#,
        ] {
            assert!(
                matches!(ScenarioSpec::from_json(bad), Err(SimError::InvalidSpec { .. })),
                "{bad:?} must be rejected with a typed spec error"
            );
        }
    }

    #[test]
    fn misspelled_nested_keys_are_rejected() {
        // A typo'd "pattern" key must not silently degrade to uniform traffic.
        for bad in [
            r#"{"name": "x", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2},
                "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3,
                "patern": {"kind": "hotspot", "hotspot": 0, "fraction": 0.6}},
                "protocol": "quick", "seed": 1}"#,
            r#"{"name": "x", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2,
                "radiks": 8},
                "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3},
                "protocol": "quick", "seed": 1}"#,
            r#"{"name": "x", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2},
                "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3,
                "pattern": {"kind": "hotspot", "hotspot": 0, "fraction": 0.6, "fractional": 1}},
                "protocol": "quick", "seed": 1}"#,
        ] {
            assert!(
                matches!(ScenarioSpec::from_json(bad), Err(SimError::InvalidSpec { .. })),
                "nested unknown key must be rejected: {bad}"
            );
        }
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_losslessly() {
        // A JSON number would round such seeds; they travel as decimal strings.
        let spec = ScenarioSpec {
            name: "big_seed".into(),
            fabric: FabricSpec::Torus { radix: 4, dimensions: 2 },
            traffic: TrafficConfig::uniform(8, 256.0, 1e-3).unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Quick,
            seed: u64::MAX - 12345,
            replications: 1,
            faults: None,
            routing: RoutingPolicy::Deterministic,
        };
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX - 12345);
        // And report serialization doesn't panic on a full-range seed either.
        let outcome = back.build().unwrap().execute().unwrap();
        let doc = Json::parse(&outcome.to_json().to_pretty()).unwrap();
        let report = &doc.as_object().unwrap()["report"];
        assert_eq!(
            report.as_object().unwrap()["seed"].as_str(),
            Some(format!("{}", u64::MAX - 12345).as_str())
        );
    }

    #[test]
    fn fault_plans_ride_the_spec_round_trip_and_gate_on_the_fabric() {
        use crate::fault::{BridgeUnit, FaultAction, FaultEvent, FaultTarget};
        let target = FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator };
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 500.0, target, action: FaultAction::Down },
            FaultEvent { at: 2000.0, target, action: FaultAction::Up },
        ]);
        let spec = ScenarioSpec {
            name: "faulted".into(),
            fabric: FabricSpec::Org { name: "small_test".into() },
            traffic: TrafficConfig::uniform(8, 256.0, 1e-3).unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Quick,
            seed: 7,
            replications: 1,
            faults: Some(plan.clone()),
            routing: RoutingPolicy::Deterministic,
        };
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let scenario = back.build().unwrap();
        assert_eq!(scenario.faults(), Some(&plan));
        // A fault-free spec keeps serializing without any "faults" key.
        let clean = ScenarioSpec { faults: None, ..spec.clone() };
        assert!(!clean.to_json().contains("faults"));
        // Fabric-dependent validation runs at build: a bridge fault cannot
        // target a torus, and the error is a typed spec error.
        let mismatched =
            ScenarioSpec { fabric: FabricSpec::Torus { radix: 4, dimensions: 2 }, ..spec };
        assert!(matches!(mismatched.build(), Err(SimError::InvalidSpec { .. })));
        // A faulted run degrades but completes, and reports the fault surface.
        let report = scenario.run().unwrap();
        assert_eq!(report.delivered_messages + report.dropped_messages, report.generated_messages);
        assert!(report.retransmits > 0);
        assert!(!report.time_series.is_empty());
        let json = Json::parse(&sim_report_json(&report).to_pretty()).unwrap();
        let obj = json.as_object().unwrap();
        assert_eq!(obj["digest"].as_str(), Some(format!("{:016x}", report.digest).as_str()));
        assert_eq!(obj["retransmits"].as_u64(), Some(report.retransmits));
        assert!(obj["time_series"].as_array().is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn routing_policies_ride_the_spec_round_trip() {
        let spec = ScenarioSpec {
            name: "adaptive".into(),
            fabric: FabricSpec::Torus { radix: 8, dimensions: 2 },
            traffic: TrafficConfig::uniform(8, 256.0, 1e-3).unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Quick,
            seed: 7,
            replications: 1,
            faults: None,
            routing: RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 },
        };
        let text = spec.to_json();
        assert!(text.contains("adaptive_torus"));
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(
            back.build().unwrap().routing(),
            RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 }
        );
        // Deterministic specs serialize without a "routing" key, so every
        // pre-policy spec file keeps parsing — adaptive routing is opt-in.
        let det = ScenarioSpec { routing: RoutingPolicy::Deterministic, ..spec };
        assert!(!det.to_json().contains("routing"));
        assert_eq!(ScenarioSpec::from_json(&det.to_json()).unwrap(), det);
        // An omitted adaptive_vcs takes the default.
        let defaulted = r#"{
            "name": "x", "fabric": {"kind": "torus", "radix": 4, "dimensions": 2},
            "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3},
            "protocol": "quick", "seed": 1, "replications": 1,
            "routing": {"policy": "adaptive_torus"}
        }"#;
        assert_eq!(
            ScenarioSpec::from_json(defaulted).unwrap().routing,
            RoutingPolicy::AdaptiveTorus { adaptive_vcs: crate::policy::DEFAULT_ADAPTIVE_VCS }
        );
    }

    #[test]
    fn invalid_routing_specs_fail_with_typed_errors() {
        let base = |routing: &str| {
            format!(
                r#"{{
                "name": "x", "fabric": {{"kind": "torus", "radix": 4, "dimensions": 2}},
                "traffic": {{"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3}},
                "protocol": "quick", "seed": 1, "replications": 1,
                "routing": {routing}
            }}"#
            )
        };
        // Unknown policy names, out-of-range VC counts and stray keys are all
        // typed parse errors, not silent defaults.
        for bad in [
            r#"{"policy": "warp_speed"}"#,
            r#"{"policy": "adaptive_torus", "adaptive_vcs": 0}"#,
            r#"{"policy": "adaptive_torus", "adaptive_vcs": 99}"#,
            r#"{"policy": "adaptive_torus", "adaptive_vc": 1}"#,
            r#"{"policy": "randomized_updown", "adaptive_vcs": 1}"#,
            r#""adaptive_torus""#,
        ] {
            assert!(
                matches!(ScenarioSpec::from_json(&base(bad)), Err(SimError::InvalidSpec { .. })),
                "routing {bad} must be rejected"
            );
        }
        // Policy/fabric mismatches are build-time configuration errors.
        let mismatch = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .routing(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 })
            .build();
        assert!(matches!(mismatch, Err(SimError::InvalidConfiguration { .. })));
        let mismatch = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .routing(RoutingPolicy::RandomizedUpDown)
            .build();
        assert!(matches!(mismatch, Err(SimError::InvalidConfiguration { .. })));
    }

    #[test]
    fn scenario_runs_report_their_routing_policy() {
        let adaptive = Scenario::builder()
            .torus(TorusSystem::new(4, 2).unwrap())
            .traffic(TrafficConfig::uniform(8, 256.0, 2e-3).unwrap())
            .config(SimConfig::quick(9))
            .routing(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(adaptive.routing, "adaptive_torus");
        assert_eq!(adaptive.delivered_messages, adaptive.generated_messages);

        let randomized = Scenario::builder()
            .tree(organizations::small_test_org())
            .traffic(TrafficConfig::uniform(8, 256.0, 1e-3).unwrap())
            .config(SimConfig::quick(9))
            .routing(RoutingPolicy::RandomizedUpDown)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(randomized.routing, "randomized_updown");
        assert!(randomized.adaptive_misroutes > 0);
        assert_eq!(randomized.escape_fallbacks, 0);

        let det = quick_tree_scenario(9).run().unwrap();
        assert_eq!(det.routing, "deterministic");
        assert_eq!(det.adaptive_misroutes, 0);
        assert_eq!(det.escape_fallbacks, 0);
        // The report JSON carries the policy fields.
        let doc = Json::parse(&sim_report_json(&adaptive).to_pretty()).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["routing"].as_str(), Some("adaptive_torus"));
        assert_eq!(obj["adaptive_misroutes"].as_u64(), Some(adaptive.adaptive_misroutes));
        assert_eq!(obj["escape_fallbacks"].as_u64(), Some(adaptive.escape_fallbacks));
    }

    #[test]
    fn adaptive_scenarios_evaluate_through_the_adaptive_model() {
        let build = |routing: RoutingPolicy| {
            Scenario::builder()
                .torus(TorusSystem::new(8, 2).unwrap())
                .traffic(TrafficConfig::uniform(16, 256.0, 1e-3).unwrap())
                .routing(routing)
                .build()
                .unwrap()
        };
        let adaptive = build(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 }).evaluate().unwrap();
        let det = build(RoutingPolicy::Deterministic).evaluate().unwrap();
        let mcnet_model::ModelDetail::Torus(detail) = adaptive.detail else {
            panic!("torus scenario must produce a torus detail");
        };
        assert!(detail.escape_fraction.is_some(), "adaptive knob must reach the model");
        let mcnet_model::ModelDetail::Torus(detail) = det.detail else {
            panic!("torus scenario must produce a torus detail");
        };
        assert_eq!(detail.escape_fraction, None);
        assert!(
            adaptive.mean_latency < det.mean_latency,
            "adaptive VCs relieve blocking in the model too"
        );
    }

    #[test]
    fn with_protocol_overrides_the_preset() {
        let spec = ScenarioSpec {
            name: "x".into(),
            fabric: FabricSpec::Torus { radix: 4, dimensions: 2 },
            traffic: TrafficConfig::uniform(8, 256.0, 1e-3).unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: Protocol::Paper,
            seed: 1,
            replications: 1,
            faults: None,
            routing: RoutingPolicy::Deterministic,
        };
        let quick = spec.with_protocol(Protocol::Quick).build().unwrap();
        assert_eq!(quick.config().measured_messages, 2_000);
    }
}
