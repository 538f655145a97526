//! Drives simulation engines directly through the engine layer's public API
//! (`Simulation::new_full`/`new_torus_full`, `reset`, `run`), so every run is
//! timed on its own and its engine counters stay readable.

use std::time::Instant;

use mcnet_sim::engine::Simulation;
use mcnet_sim::{Fabric, Scenario, SimConfig, SimError};
use mcnet_system::parallel::parallel_map_reusing;
use mcnet_system::TrafficConfig;

use crate::measure::{thread_cpu_s, Fold};
use crate::trace::Tracer;

/// What one run left behind.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    Done(RunRecord),
    /// The event budget ran out: an expected outcome deep in saturation,
    /// pinned like a digest.
    Exhausted {
        delivered: u64,
        total_s: f64,
    },
    /// Anything else is a failure.
    Error(String),
}

#[derive(Debug, Clone)]
pub struct RunRecord {
    pub digest: u64,
    pub mean_latency: f64,
    pub latency_std_error: f64,
    pub generated: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub retransmits: u64,
    pub events: u64,
    /// CPU seconds inside `Simulation::run`.
    pub run_s: f64,
    /// CPU seconds for the whole run: reset (or build) plus run.
    pub total_s: f64,
    pub peak_in_flight: usize,
    pub contention_ratio: f64,
    pub max_utilization: f64,
    pub waiter_nodes: usize,
    pub interned_pairs: usize,
    pub arena_channels: usize,
    pub peak_scratch: usize,
}

/// Builds an engine for `scenario`'s fabric, routing, source and faults at
/// one traffic point.
pub fn build_engine(
    scenario: &Scenario,
    traffic: &TrafficConfig,
    config: &SimConfig,
    tr: &Tracer,
) -> Result<Simulation, SimError> {
    let _span = tr.span("engine.new");
    match scenario.fabric() {
        Fabric::Tree(system) => Simulation::new_full(
            system,
            traffic,
            config,
            scenario.faults(),
            scenario.routing(),
            scenario.source(),
        ),
        Fabric::Torus(torus) => Simulation::new_torus_full(
            torus,
            traffic,
            config,
            scenario.faults(),
            scenario.routing(),
            scenario.source(),
        ),
    }
}

/// One run on a cached engine: reset it in place when there is one, build
/// it otherwise. An aborted run leaves in-flight state behind, so its engine
/// is dropped rather than reset.
pub fn run_one(
    slot: &mut Option<Simulation>,
    scenario: &Scenario,
    traffic: &TrafficConfig,
    config: &SimConfig,
    tr: &Tracer,
) -> RunOutcome {
    let start = thread_cpu_s();
    if let Some(sim) = slot.as_mut() {
        let _span = tr.span("engine.reset");
        if sim.reset(traffic, scenario.source(), config, scenario.faults()).is_err() {
            *slot = None;
        }
    }
    if slot.is_none() {
        match build_engine(scenario, traffic, config, tr) {
            Ok(sim) => *slot = Some(sim),
            Err(e) => return RunOutcome::Error(e.to_string()),
        }
    }
    let sim = slot.as_mut().expect("engine built above");
    let run_start = thread_cpu_s();
    let result = {
        let _span = tr.span("engine.run");
        sim.run()
    };
    let run_s = thread_cpu_s() - run_start;
    match result {
        Ok(()) => {}
        Err(SimError::EventBudgetExhausted { delivered, .. }) => {
            *slot = None;
            return RunOutcome::Exhausted { delivered, total_s: thread_cpu_s() - start };
        }
        Err(e) => {
            *slot = None;
            return RunOutcome::Error(e.to_string());
        }
    }
    let stats = sim.stats();
    let routes = sim.routes();
    let record = RunRecord {
        digest: stats.digest(),
        mean_latency: stats.mean_latency(),
        latency_std_error: stats.latency_std_error(),
        generated: stats.generated(),
        delivered: stats.delivered(),
        dropped: stats.dropped(),
        retransmits: stats.retransmits(),
        events: sim.events_processed(),
        run_s,
        total_s: thread_cpu_s() - start,
        peak_in_flight: sim.peak_in_flight(),
        contention_ratio: sim.pool().contention_ratio(),
        max_utilization: sim.network_utilization().1,
        waiter_nodes: sim.pool().waiter_nodes_allocated(),
        interned_pairs: routes.materialized_entries(),
        arena_channels: routes.arena_len(),
        peak_scratch: routes.peak_scratch_routes(),
    };
    if record.delivered + record.dropped != record.generated {
        return RunOutcome::Error(format!(
            "message conservation broken: {} delivered + {} dropped != {} generated",
            record.delivered, record.dropped, record.generated
        ));
    }
    RunOutcome::Done(record)
}

/// `reps` replications of one point (seeds `seed … seed+reps-1`) over the
/// worker pool, each worker resetting its own cached engine — the shape of
/// `Scenario::sweep_replicated`. Outcomes come back in replication order.
pub fn replicate(
    slots: &mut Vec<Option<Simulation>>,
    scenario: &Scenario,
    traffic: &TrafficConfig,
    base: &SimConfig,
    reps: usize,
    tr: &Tracer,
) -> Vec<RunOutcome> {
    let _pool = tr.span("parallel.pool");
    let parent = tr.current();
    parallel_map_reusing((0..reps).collect(), slots, |slot, _, r| {
        let _task = tr.child_of("parallel.task", parent);
        let config = SimConfig { seed: base.seed.wrapping_add(r as u64), ..*base };
        run_one(slot, scenario, traffic, &config, tr)
    })
}

/// Builds one engine per pool worker for `reps`-way replication.
pub fn engine_pool(
    scenario: &Scenario,
    traffic: &TrafficConfig,
    config: &SimConfig,
    reps: usize,
    tr: &Tracer,
) -> Result<Vec<Option<Simulation>>, SimError> {
    let workers = mcnet_system::parallel::max_workers().min(reps).max(1);
    (0..workers).map(|_| build_engine(scenario, traffic, config, tr).map(Some)).collect()
}

/// Everything a workload's runs add up to.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub runs: u64,
    pub run_ms: Vec<f64>,
    pub run_s: f64,
    pub delivered: u64,
    pub generated: u64,
    pub events: u64,
    pub dropped: u64,
    pub retransmits: u64,
    pub exhausted: u64,
    pub errors: Vec<String>,
    pub peak_in_flight: usize,
    pub contention: Vec<f64>,
    pub max_utilization: f64,
    pub waiter_nodes: usize,
    pub interned_pairs: usize,
    pub arena_channels: usize,
    pub peak_scratch: usize,
}

impl Tally {
    /// Adds one outcome and folds its digest into `fold`: a finished run
    /// folds its delivery digest, an exhausted one a marker and its delivered
    /// count, so the expected outcome is pinned too.
    pub fn add(&mut self, outcome: &RunOutcome, fold: &mut Fold) {
        self.runs += 1;
        match outcome {
            RunOutcome::Done(r) => {
                fold.push(r.digest);
                self.run_ms.push(r.total_s * 1e3);
                self.run_s += r.run_s;
                self.delivered += r.delivered;
                self.generated += r.generated;
                self.events += r.events;
                self.dropped += r.dropped;
                self.retransmits += r.retransmits;
                self.peak_in_flight = self.peak_in_flight.max(r.peak_in_flight);
                self.contention.push(r.contention_ratio);
                self.max_utilization = self.max_utilization.max(r.max_utilization);
                self.waiter_nodes = self.waiter_nodes.max(r.waiter_nodes);
                self.interned_pairs = self.interned_pairs.max(r.interned_pairs);
                self.arena_channels = self.arena_channels.max(r.arena_channels);
                self.peak_scratch = self.peak_scratch.max(r.peak_scratch);
            }
            RunOutcome::Exhausted { delivered, total_s } => {
                fold.push(0xE);
                fold.push(*delivered);
                self.run_ms.push(total_s * 1e3);
                self.exhausted += 1;
            }
            RunOutcome::Error(e) => self.errors.push(e.clone()),
        }
    }
}

/// Mean of the replication means and the standard error across them, when
/// every replication finished (the per-point rule of `figures`).
pub fn point_estimate(outcomes: &[RunOutcome]) -> Option<(f64, f64)> {
    let means: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| match o {
            RunOutcome::Done(r) => Some((r.mean_latency, r.latency_std_error)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let n = means.len() as f64;
    let mean = means.iter().map(|m| m.0).sum::<f64>() / n;
    let err = if means.len() >= 2 {
        let var = means.iter().map(|m| (m.0 - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (var / n).sqrt()
    } else {
        means[0].1
    };
    Some((mean, err))
}

/// Serial over pooled host time for the same `reps` replications of one
/// point: the pool's speed-up on this host. Both sides' engines are built
/// before timing, so neither pays for construction.
pub fn pool_speedup(
    scenario: &Scenario,
    traffic: &TrafficConfig,
    config: &SimConfig,
    reps: usize,
    tr: &Tracer,
) -> Result<f64, String> {
    let mut serial = Some(build_engine(scenario, traffic, config, tr).map_err(|e| e.to_string())?);
    let mut pooled = engine_pool(scenario, traffic, config, reps, tr).map_err(|e| e.to_string())?;
    let mut check = (Fold::default(), Fold::default());
    let start = Instant::now();
    for r in 0..reps {
        let cfg = SimConfig { seed: config.seed.wrapping_add(r as u64), ..*config };
        let _span = tr.span("parallel.serial");
        if let RunOutcome::Done(rec) = run_one(&mut serial, scenario, traffic, &cfg, tr) {
            check.0.push(rec.digest);
        }
    }
    let serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for o in replicate(&mut pooled, scenario, traffic, config, reps, tr) {
        if let RunOutcome::Done(rec) = o {
            check.1.push(rec.digest);
        }
    }
    let pooled_s = start.elapsed().as_secs_f64();
    if check.0 != check.1 {
        return Err("pooled replications differ from the same replications run serially".into());
    }
    Ok(serial_s / pooled_s)
}
