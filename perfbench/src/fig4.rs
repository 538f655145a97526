//! `fig4_paper`: the paper's Fig. 4 on organization B (both panels, M = 32
//! and 64, Lm = 256 and 512) at the paper protocol, with replications over a
//! reused engine pool and the model evaluated at every point — the calls
//! `figures::figure4_replicated` makes, driven one run at a time.

use mcnet_experiments::comparison::accuracy_report;
use mcnet_experiments::{EvaluationEffort, FigurePanel, FigureSeries, SeriesPoint};
use mcnet_model::{ModelBackend, ModelOptions};
use mcnet_sim::engine::Simulation;
use mcnet_sim::scenario::seed_to_json;
use mcnet_sim::{Scenario, ScenarioSpec, SimConfig};
use mcnet_system::sweep::{materialize_rates, FigureSweep};
use mcnet_system::TrafficConfig;

use crate::drive::{engine_pool, point_estimate, replicate, Tally};
use crate::measure::Fold;
use crate::probes::Target;
use crate::trace::Tracer;
use crate::workload::{expand_own_grid, model_pool, steady_error_pct, IterSummary, Workload};

/// Replications per point.
const REPS: usize = 2;
/// `accuracy_report`'s steady-state fraction of the model's saturation rate.
const STEADY_FRACTION: f64 = 0.7;

struct Series {
    panel: usize,
    sweep: FigureSweep,
    scenario: Scenario,
    model: ModelBackend,
    configs: Vec<TrafficConfig>,
    slots: Vec<Option<Simulation>>,
}

pub struct Fig4 {
    seed: u64,
    effort: EvaluationEffort,
    series: Vec<Series>,
}

/// The figure's four curves: (panel, sweep).
fn sweeps(effort: EvaluationEffort) -> [(usize, FigureSweep); 4] {
    let p = effort.sweep_points();
    [
        (0, FigureSweep::fig4_m32(256.0).with_points(p)),
        (0, FigureSweep::fig4_m32(512.0).with_points(p)),
        (1, FigureSweep::fig4_m64(256.0).with_points(p)),
        (1, FigureSweep::fig4_m64(512.0).with_points(p)),
    ]
}

fn protocol(effort: EvaluationEffort) -> &'static str {
    match effort {
        EvaluationEffort::Quick => "quick",
        EvaluationEffort::Standard => "reduced",
        EvaluationEffort::Paper => "paper",
    }
}

/// The scenario spec of one curve, as a user would write it.
fn spec_text(sweep: &FigureSweep, effort: EvaluationEffort, seed: u64) -> Result<String, String> {
    let template = sweep.template().map_err(|e| e.to_string())?;
    Ok(format!(
        r#"{{"name": "fig4/M{}/Lm{}", "fabric": {{"kind": "org", "name": "table1_org_b"}},
  "traffic": {{"message_flits": {}, "flit_bytes": {:?}, "generation_rate": {:?},
              "pattern": {{"kind": "uniform"}}}},
  "protocol": "{}", "seed": {}, "replications": {REPS}}}"#,
        sweep.message_flits,
        sweep.flit_bytes,
        sweep.message_flits,
        sweep.flit_bytes,
        template.generation_rate,
        protocol(effort),
        seed_to_json(seed).to_compact(),
    ))
}

impl Fig4 {
    pub fn with_effort(seed: u64, effort: EvaluationEffort, tr: &Tracer) -> Result<Self, String> {
        let mut series = Vec::new();
        for (panel, sweep) in sweeps(effort) {
            let text = spec_text(&sweep, effort, seed)?;
            let spec = {
                let _span = tr.span("scenario.spec_parse");
                ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?
            };
            let scenario = {
                let _span = tr.span("scenario.build");
                spec.build().map_err(|e| e.to_string())?
            };
            let rates = sweep.rates().map_err(|e| e.to_string())?;
            let configs =
                materialize_rates(scenario.traffic(), &rates).map_err(|e| e.to_string())?;
            let model = scenario.model_backend();
            let slots = engine_pool(&scenario, &configs[0], scenario.config(), REPS, tr)
                .map_err(|e| e.to_string())?;
            series.push(Series { panel, sweep, scenario, model, configs, slots });
        }
        Ok(Fig4 { seed, effort, series })
    }

    /// Runs the figure once, returning its panels and digest fold.
    pub fn figure(&mut self, tr: &Tracer, tally: &mut Tally) -> (Vec<FigurePanel>, Fold) {
        let mut fold = Fold::default();
        let mut panels: Vec<FigurePanel> = (0..2)
            .map(|i| FigurePanel {
                title: format!("Fig. 4 ({}): N=544, m=4", ["left", "right"][i]),
                system: String::new(),
                series: Vec::new(),
            })
            .collect();
        for s in &mut self.series {
            let analyses: Vec<Option<f64>> = s
                .configs
                .iter()
                .map(|traffic| {
                    let _span = tr.span("model.evaluate");
                    s.model.evaluate(traffic, ModelOptions::default()).ok().map(|r| r.mean_latency)
                })
                .collect();
            let mut points = Vec::with_capacity(s.configs.len());
            for (traffic, analysis) in s.configs.iter().zip(analyses) {
                let outcomes =
                    replicate(&mut s.slots, &s.scenario, traffic, s.scenario.config(), REPS, tr);
                for o in &outcomes {
                    tally.add(o, &mut fold);
                }
                let simulation = point_estimate(&outcomes);
                points.push(SeriesPoint {
                    rate: traffic.generation_rate,
                    analysis,
                    simulation: simulation.map(|p| p.0),
                    sim_std_error: simulation.map(|p| p.1),
                });
            }
            panels[s.panel].series.push(FigureSeries {
                label: format!("Lm={}", s.sweep.flit_bytes),
                message_flits: s.sweep.message_flits,
                flit_bytes: s.sweep.flit_bytes,
                points,
            });
        }
        (panels, fold)
    }
}

impl Workload for Fig4 {
    const NAME: &'static str = "fig4_paper";
    const TAIL_RUNS: u64 = 80;
    const ANCHORS: &'static [&'static str] = &["specs/tree_bridge_loss.json"];

    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        Fig4::with_effort(seed, EvaluationEffort::Paper, tr)
    }

    fn iterate(&mut self, tr: &Tracer, tally: &mut Tally) -> Result<IterSummary, String> {
        let (panels, fold) = self.figure(tr, tally);
        let errors = panels
            .iter()
            .flat_map(|p| accuracy_report(p, STEADY_FRACTION).points)
            .filter(|p| p.steady_state)
            .map(|p| p.relative_error)
            .collect::<Vec<_>>();
        Ok(IterSummary { digest: fold.0, model_error_pct: steady_error_pct(&errors) })
    }

    fn model_pass(&self, tr: &Tracer) -> usize {
        let points: Vec<(&ModelBackend, &TrafficConfig)> =
            self.series.iter().flat_map(|s| s.configs.iter().map(move |c| (&s.model, c))).collect();
        model_pool(&points, tr, "model.evaluate", |(model, traffic)| {
            let _ = std::hint::black_box(model.evaluate(traffic, ModelOptions::default()));
            1
        })
    }

    fn targets(&self) -> Vec<Target> {
        let s = &self.series[0];
        vec![Target::new(s.scenario.fabric().clone(), s.configs[0], s.scenario.routing())]
    }

    fn speedup_point(&self) -> (&Scenario, TrafficConfig, SimConfig) {
        let s = &self.series[0];
        (&s.scenario, s.configs[s.configs.len() / 2], *s.scenario.config())
    }

    fn campaign_layer(&self, tr: &Tracer) -> Result<(usize, f64), String> {
        let s = &self.series[0];
        let rates: Vec<String> =
            s.configs.iter().map(|c| format!("{:?}", c.generation_rate)).collect();
        let grid = format!(
            r#"{{"name": "fig4_grid", "base": {}, "axes": {{"rate": [{}], "seed": [{}, {}]}}}}"#,
            spec_text(&s.sweep, self.effort, self.seed)?,
            rates.join(", "),
            seed_to_json(self.seed).to_compact(),
            seed_to_json(self.seed.wrapping_add(1)).to_compact()
        );
        expand_own_grid(&grid, tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_experiments::figures::figure4_replicated;

    #[test]
    fn driving_engines_directly_reproduces_the_figure() {
        // Driving the engines run by run folds the same digests in the same
        // order, and builds the same curves, as `figure4_replicated`.
        let tr = Tracer::new(false);
        let mut fig = Fig4::with_effort(5, EvaluationEffort::Quick, &tr).unwrap();
        let mut tally = Tally::default();
        let (panels, fold) = fig.figure(&tr, &mut tally);
        let reference = figure4_replicated(EvaluationEffort::Quick, REPS, 5).unwrap();
        assert_eq!(tally.exhausted, 0);
        assert_eq!(fold.0, reference.digest);
        for (ours, theirs) in panels.iter().zip(&reference.panels) {
            assert_eq!(ours.series, theirs.series);
        }
    }
}
