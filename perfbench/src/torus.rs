//! `torus_adaptive_faults`: a 16-ary 2-cube at the paper protocol with
//! minimal-adaptive routing, an ON-OFF source and a timed link outage inside
//! the measured phase, at a few rates anchored to fractions of the model's
//! saturation rate, with replications over a reused engine pool.

use mcnet_experiments::comparison::accuracy_report;
use mcnet_experiments::{FigurePanel, FigureSeries, SeriesPoint};
use mcnet_sim::engine::Simulation;
use mcnet_sim::scenario::seed_to_json;
use mcnet_sim::{Scenario, ScenarioSpec, SimConfig};
use mcnet_system::TrafficConfig;

use crate::drive::{engine_pool, point_estimate, replicate, Tally};
use crate::measure::Fold;
use crate::probes::Target;
use crate::trace::Tracer;
use crate::workload::{expand_own_grid, mix, model_pool, steady_error_pct, IterSummary, Workload};

const REPS: usize = 4;
const RADIX: usize = 16;
const DIMENSIONS: usize = 2;
/// Load points as fractions of the model's saturation rate.
const FRACTIONS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
const STEADY_FRACTION: f64 = 0.7;
/// The link goes down after this many generated messages and comes back up
/// after the second count: both inside the paper protocol's measured phase
/// (messages 10,000 to 110,000).
const DOWN_AFTER: f64 = 35_000.0;
const UP_AFTER: f64 = 60_000.0;

pub struct TorusFaults {
    seed: u64,
    base_text: String,
    points: Vec<Scenario>,
    slots: Vec<Option<Simulation>>,
}

fn spec_text(seed: u64, rate: f64, faults: &str) -> String {
    format!(
        r#"{{"name": "torus16_adaptive_onoff", "fabric": {{"kind": "torus", "radix": {RADIX}, "dimensions": {DIMENSIONS}}},
  "traffic": {{"message_flits": 16, "flit_bytes": 256.0, "generation_rate": {rate:?},
              "pattern": {{"kind": "uniform"}}, "source": {{"kind": "on_off", "duty": 0.5}}}},
  "protocol": "paper", "seed": {}, "replications": {REPS},
  "routing": {{"policy": "adaptive_torus", "adaptive_vcs": 2}}{faults}}}"#,
        seed_to_json(seed).to_compact()
    )
}

/// The outage of one directed dimension-0 link, timed in the measured phase
/// of a run at `rate`. The seed places it on a link that does not wrap
/// around its ring, so every seed cuts a link of the same kind.
fn faults_text(seed: u64, rate: f64) -> String {
    let nodes = RADIX.pow(DIMENSIONS as u32) as f64;
    let down = DOWN_AFTER / (nodes * rate);
    let up = UP_AFTER / (nodes * rate);
    let x = mix(seed) % (RADIX as u64 - 1);
    let y = mix(seed ^ 1) % RADIX as u64;
    let node = y * RADIX as u64 + x;
    let target = format!(r#"{{"kind": "torus_link", "node": {node}, "dim": 0, "dir": "plus"}}"#);
    format!(
        r#", "faults": {{"max_attempts": 6, "retry_base": 300.0, "window": {:?}, "events": [
    {{"at": {down:?}, "action": "down", "target": {target}}},
    {{"at": {up:?}, "action": "up", "target": {target}}}]}}"#,
        (up - down) / 10.0
    )
}

fn parse_and_build(text: &str, tr: &Tracer) -> Result<Scenario, String> {
    let spec = {
        let _span = tr.span("scenario.spec_parse");
        ScenarioSpec::from_json(text).map_err(|e| e.to_string())?
    };
    let _span = tr.span("scenario.build");
    spec.build().map_err(|e| e.to_string())
}

impl Workload for TorusFaults {
    const NAME: &'static str = "torus_adaptive_faults";
    const TAIL_RUNS: u64 = 100;
    const ANCHORS: &'static [&'static str] =
        &["specs/torus_adaptive.json", "specs/torus_ring_cut_adaptive.json"];

    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let base_text = spec_text(seed, 1.0e-4, "");
        let base = parse_and_build(&base_text, tr)?;
        let saturation = {
            let _span = tr.span("model.saturation_search");
            base.find_saturation_rate(0.01).map_err(|e| e.to_string())?
        };
        let points = FRACTIONS
            .iter()
            .map(|f| {
                let rate = f * saturation;
                parse_and_build(&spec_text(seed, rate, &faults_text(seed, rate)), tr)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let first = &points[0];
        let slots = engine_pool(first, first.traffic(), first.config(), REPS, tr)
            .map_err(|e| e.to_string())?;
        Ok(TorusFaults { seed, base_text, points, slots })
    }

    fn iterate(&mut self, tr: &Tracer, tally: &mut Tally) -> Result<IterSummary, String> {
        let mut fold = Fold::default();
        let mut points = Vec::with_capacity(self.points.len());
        for scenario in &self.points {
            let analysis = {
                let _span = tr.span("model.evaluate");
                scenario.evaluate().ok().map(|r| r.mean_latency)
            };
            let outcomes = replicate(
                &mut self.slots,
                scenario,
                scenario.traffic(),
                scenario.config(),
                REPS,
                tr,
            );
            for o in &outcomes {
                tally.add(o, &mut fold);
            }
            let simulation = point_estimate(&outcomes);
            points.push(SeriesPoint {
                rate: scenario.traffic().generation_rate,
                analysis,
                simulation: simulation.map(|p| p.0),
                sim_std_error: simulation.map(|p| p.1),
            });
        }
        let panel = FigurePanel {
            title: "16-ary 2-cube, adaptive, ON-OFF, link outage".into(),
            system: String::new(),
            series: vec![FigureSeries {
                label: "M=16".into(),
                message_flits: 16,
                flit_bytes: 256.0,
                points,
            }],
        };
        let errors: Vec<f64> = accuracy_report(&panel, STEADY_FRACTION)
            .points
            .into_iter()
            .filter(|p| p.steady_state)
            .map(|p| p.relative_error)
            .collect();
        Ok(IterSummary { digest: fold.0, model_error_pct: steady_error_pct(&errors) })
    }

    fn model_pass(&self, tr: &Tracer) -> usize {
        // The few points repeat so a pass outweighs the pool's start-up.
        let points: Vec<&Scenario> = (0..8).flat_map(|_| &self.points).collect();
        model_pool(&points, tr, "model.evaluate", |scenario| {
            let _ = std::hint::black_box(scenario.evaluate());
            1
        })
    }

    fn targets(&self) -> Vec<Target> {
        let s = &self.points[0];
        vec![Target::new(s.fabric().clone(), *s.traffic(), s.routing())]
    }

    fn speedup_point(&self) -> (&Scenario, TrafficConfig, SimConfig) {
        let s = &self.points[1];
        (s, *s.traffic(), *s.config())
    }

    fn campaign_layer(&self, tr: &Tracer) -> Result<(usize, f64), String> {
        let rates: Vec<String> =
            self.points.iter().map(|s| format!("{:?}", s.traffic().generation_rate)).collect();
        let grid = format!(
            r#"{{"name": "torus_grid", "base": {}, "axes": {{"rate": [{}], "seed": [{}, {}]}}}}"#,
            self.base_text,
            rates.join(", "),
            seed_to_json(self.seed).to_compact(),
            seed_to_json(self.seed.wrapping_add(1)).to_compact()
        );
        expand_own_grid(&grid, tr)
    }
}
