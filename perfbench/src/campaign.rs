//! `campaign_screen`: a design-space search. One grid per fabric — the named
//! organizations, two seed-generated heterogeneous trees and a 2-D and a 3-D
//! torus — crosses both routing policies valid on the fabric, a rate axis
//! from the steady region into saturation, Poisson and ON-OFF sources and two
//! seeds. Every grid runs at the quick protocol through `Campaign::run` with
//! the analytical screen on, so only the Pareto frontier is simulated.

use std::collections::BTreeMap;

use mcnet_experiments::campaign::{Campaign, CampaignOptions, CampaignReport, CellStatus};
use mcnet_experiments::comparison::accuracy_report;
use mcnet_experiments::{FigurePanel, FigureSeries, SeriesPoint};
use mcnet_sim::scenario::{seed_to_json, sim_report_json};
use mcnet_sim::{Scenario, ScenarioOutcome, ScenarioSpec, SimConfig};
use mcnet_system::TrafficConfig;

use crate::drive::{run_one, RunOutcome, Tally};
use crate::measure::{process_cpu_s, Fold};
use crate::probes::Target;
use crate::trace::Tracer;
use crate::workload::{mix, model_pool, steady_error_pct, IterSummary, Workload};

/// Rate axis as fractions of each fabric's model saturation rate.
const FRACTIONS: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 0.95, 1.1];
const STEADY_FRACTION: f64 = 0.7;
/// Simulated cells replayed per grid in the traced run.
const REPLAY_PER_GRID: usize = 4;

struct Grid {
    text: String,
    /// The grid's base scenario under each routing policy of its axis.
    variants: Vec<Scenario>,
    rates: Vec<f64>,
}

pub struct CampaignScreen {
    grids: Vec<Grid>,
    last_reports: Vec<CampaignReport>,
    cells: usize,
    simulated: usize,
}

/// The fabrics of the search, as spec JSON, with their message length.
fn fabrics(seed: u64) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = ["table1_org_a", "table1_org_b", "medium", "small_test"]
        .iter()
        .map(|name| (format!(r#"{{"kind": "org", "name": "{name}"}}"#), 32))
        .collect();
    // Two heterogeneous 4-port trees of fixed cluster mixes (80 and 104
    // nodes); the seed picks the order of their cluster groups, which moves
    // clusters across the ICN2 and changes every inter-cluster route.
    let mixes = [[(2, 2), (2, 3), (1, 4)], [(3, 2), (1, 3), (2, 4)]];
    for (t, mix_groups) in mixes.iter().enumerate() {
        let mut groups = *mix_groups;
        let r = mix(seed ^ ((t as u64) << 32));
        groups.rotate_left((r % 3) as usize);
        if (r >> 8) % 2 == 1 {
            groups.swap(0, 1);
        }
        let groups: Vec<String> =
            groups.iter().map(|(count, levels)| format!("[{count}, 4, {levels}]")).collect();
        out.push((format!(r#"{{"kind": "tree", "groups": [{}]}}"#, groups.join(", ")), 32));
    }
    out.push((r#"{"kind": "torus", "radix": 8, "dimensions": 2}"#.into(), 16));
    out.push((r#"{"kind": "torus", "radix": 4, "dimensions": 3}"#.into(), 16));
    out
}

fn base_text(fabric: &str, flits: usize, rate: f64, routing: &str, seed: u64) -> String {
    format!(
        r#"{{"name": "screen", "fabric": {fabric},
  "traffic": {{"message_flits": {flits}, "flit_bytes": 256.0, "generation_rate": {rate:?},
              "pattern": {{"kind": "uniform"}}}},
  "protocol": "quick", "seed": {}, "replications": 1{routing}}}"#,
        seed_to_json(seed).to_compact()
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

/// Report spelling of a cell status, folded into the digest.
fn status_code(status: CellStatus) -> u64 {
    match status {
        CellStatus::Pending => 0,
        CellStatus::Simulated => 1,
        CellStatus::ScreenedOut => 2,
        CellStatus::Saturated => 3,
        CellStatus::Failed => 4,
        CellStatus::Invalid => 5,
    }
}

impl Workload for CampaignScreen {
    const NAME: &'static str = "campaign_screen";
    const TAIL_RUNS: u64 = 200;
    const ANCHORS: &'static [&'static str] =
        &["specs/tree_updown_random.json", "specs/tree_onoff.json", "specs/torus_8ary.json"];

    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let mut grids = Vec::new();
        for (i, (fabric, flits)) in fabrics(seed).into_iter().enumerate() {
            let torus = fabric.contains("torus");
            let alternative = if torus {
                r#"{"policy": "adaptive_torus", "adaptive_vcs": 2}"#
            } else {
                r#"{"policy": "randomized_updown"}"#
            };
            let cell_seed = seed.wrapping_mul(16).wrapping_add(i as u64);
            let base = parse_and_build(&base_text(&fabric, flits, 1.0e-4, "", cell_seed), tr)?;
            let saturation = {
                let _span = tr.span("model.saturation_search");
                base.find_saturation_rate(0.01).map_err(|e| e.to_string())?
            };
            let rates: Vec<f64> = FRACTIONS.iter().map(|f| f * saturation).collect();
            let alt_routing = format!(r#", "routing": {alternative}"#);
            let variants = vec![
                base,
                parse_and_build(&base_text(&fabric, flits, rates[0], &alt_routing, cell_seed), tr)?,
            ];
            let rate_axis: Vec<String> = rates.iter().map(|r| format!("{r:?}")).collect();
            let text = format!(
                r#"{{"name": "screen{i}", "base": {}, "axes": {{"routing": [null, {alternative}],
  "rate": [{}], "burstiness": [null, 0.5], "seed": [{}, {}]}}}}"#,
                base_text(&fabric, flits, rates[0], "", cell_seed),
                rate_axis.join(", "),
                seed_to_json(cell_seed).to_compact(),
                seed_to_json(cell_seed.wrapping_add(1)).to_compact(),
            );
            grids.push(Grid { text, variants, rates });
        }
        Ok(CampaignScreen { grids, last_reports: Vec::new(), cells: 0, simulated: 0 })
    }

    fn iterate(&mut self, tr: &Tracer, tally: &mut Tally) -> Result<IterSummary, String> {
        let mut fold = Fold::default();
        let mut errors = Vec::new();
        let options = CampaignOptions { protocol: None, screen: true };
        self.last_reports.clear();
        self.cells = 0;
        self.simulated = 0;
        for grid in &self.grids {
            let campaign = {
                let _span = tr.span("campaign.expand");
                Campaign::from_grid_json(&grid.text).map_err(|e| e.to_string())?
            };
            let start = process_cpu_s();
            let report = {
                let _span = tr.span("campaign.run");
                campaign.run(&options)
            };
            let run_s = process_cpu_s() - start;
            tally.run_ms.push(run_s * 1e3);
            tally.run_s += run_s;

            let mut series: BTreeMap<String, Vec<SeriesPoint>> = BTreeMap::new();
            for cell in &report.cells {
                tally.runs += 1;
                fold.push(cell.index as u64);
                fold.push(status_code(cell.status));
                let sim = match &cell.outcome {
                    Some(ScenarioOutcome::Single(r)) => {
                        let _span = tr.span("scenario.report_json");
                        std::hint::black_box(sim_report_json(r));
                        fold.push(r.digest);
                        tally.delivered += r.delivered_messages;
                        tally.generated += r.generated_messages;
                        tally.events += r.events;
                        tally.dropped += r.dropped_messages;
                        tally.retransmits += r.retransmits;
                        Some(r.mean_latency)
                    }
                    Some(ScenarioOutcome::Replicated(_)) => {
                        tally.errors.push(format!("{}: unexpected replicated outcome", cell.name));
                        None
                    }
                    None => None,
                };
                match cell.status {
                    CellStatus::Simulated => self.simulated += 1,
                    CellStatus::Failed | CellStatus::Invalid => {
                        let error = cell.error.clone().unwrap_or_default();
                        if error.contains("event budget exhausted") {
                            tally.exhausted += 1;
                        } else {
                            tally.errors.push(format!("{}: {error}", cell.name));
                        }
                    }
                    _ => {}
                }
                let key = format!(
                    "{}|{:?}|{}",
                    cell.spec.routing.spec_name(),
                    cell.spec.source,
                    cell.spec.seed
                );
                series.entry(key).or_default().push(SeriesPoint {
                    rate: cell.spec.traffic.generation_rate,
                    analysis: cell.model.as_ref().map(|m| m.mean_latency),
                    simulation: sim,
                    sim_std_error: None,
                });
            }
            self.cells += report.cells.len();
            let panel = FigurePanel {
                title: report.name.clone(),
                system: String::new(),
                series: series
                    .into_iter()
                    .map(|(label, points)| FigureSeries {
                        label,
                        message_flits: 0,
                        flit_bytes: 0.0,
                        points,
                    })
                    .collect(),
            };
            errors.extend(
                accuracy_report(&panel, STEADY_FRACTION)
                    .points
                    .into_iter()
                    .filter(|p| p.steady_state)
                    .map(|p| p.relative_error),
            );
            self.last_reports.push(report);
        }
        Ok(IterSummary { digest: fold.0, model_error_pct: steady_error_pct(&errors) })
    }

    fn model_pass(&self, tr: &Tracer) -> usize {
        // The sweeps repeat so a pass outweighs the pool's thread start-up.
        let sweeps: Vec<(&Scenario, &[f64])> = (0..8)
            .flat_map(|_| &self.grids)
            .flat_map(|g| g.variants.iter().map(move |v| (v, g.rates.as_slice())))
            .collect();
        model_pool(&sweeps, tr, "model.evaluate_batch", |(scenario, rates)| {
            let _ = std::hint::black_box(scenario.evaluate_sweep(rates));
            rates.len()
        })
    }

    fn targets(&self) -> Vec<Target> {
        self.grids
            .iter()
            .flat_map(|g| &g.variants)
            .map(|s| Target::new(s.fabric().clone(), *s.traffic(), s.routing()))
            .collect()
    }

    fn speedup_point(&self) -> (&Scenario, TrafficConfig, SimConfig) {
        let grid = &self.grids[1];
        let s = &grid.variants[0];
        let traffic = s.traffic().with_rate(grid.rates[2]).expect("a positive screen rate");
        (s, traffic, *s.config())
    }

    fn campaign_layer(&self, _tr: &Tracer) -> Result<(usize, f64), String> {
        Ok((self.cells, self.simulated as f64 / self.cells.max(1) as f64))
    }

    /// Replays a few simulated cells of every grid through engines built
    /// here, so the engine layer's counters are visible for this workload,
    /// and checks each replay reproduces the campaign's digest.
    fn replay(&self, tr: &Tracer) -> Tally {
        let mut tally = Tally::default();
        let mut fold = Fold::default();
        for report in &self.last_reports {
            let simulated = report.cells.iter().filter(|c| c.status == CellStatus::Simulated);
            for cell in simulated.take(REPLAY_PER_GRID) {
                let scenario = match parse_and_build(&cell.spec.to_json(), tr) {
                    Ok(s) => s,
                    Err(e) => {
                        tally.errors.push(e);
                        continue;
                    }
                };
                let mut slot = None;
                let outcome =
                    run_one(&mut slot, &scenario, scenario.traffic(), scenario.config(), tr);
                if let RunOutcome::Done(r) = &outcome {
                    if Some(r.digest) != cell.digest() {
                        tally.errors.push(format!("{}: replay digest differs", cell.name));
                    }
                }
                tally.add(&outcome, &mut fold);
            }
        }
        tally
    }
}
