//! Quantifying the paper's accuracy claim: analysis vs simulation.
//!
//! The paper's conclusion from Figs. 3–4 is qualitative: "the analytical model predicts
//! the mean message latency with a good degree of accuracy when the system is in the
//! steady-state region" with "discrepancies … when the system … approaches the
//! saturation point". This module turns that claim into numbers, in two forms:
//!
//! * [`accuracy_report`] — the historical figure-panel view: the relative error
//!   of the model against the simulation per traffic point of a (tree-fabric)
//!   figure panel, split into the steady-state and near-saturation regions.
//! * [`validate_spec`] — the **spec-driven validation sweep**: any serialized
//!   [`ScenarioSpec`] (tree or torus, uniform or hot-spot) is swept over
//!   fractions of its *analytical* saturation rate, evaluated through
//!   [`mcnet_sim::Scenario::evaluate`] and simulated through
//!   [`mcnet_sim::Scenario::sweep_outcomes`], and summarized with the same
//!   region split. The `model_vs_sim` binary (and the CI step of the same
//!   name) runs it over every spec file and is the command-line face of this
//!   path.

use crate::figures::FigurePanel;
use crate::{EvaluationEffort, ExperimentError, Result};
use mcnet_sim::{Scenario, ScenarioSpec, SimError, TrafficSourceSpec};

/// Relative error of one traffic point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointError {
    /// Generation rate of the point.
    pub rate: f64,
    /// Analytical latency.
    pub analysis: f64,
    /// Simulated latency.
    pub simulation: f64,
    /// `|analysis − simulation| / simulation`.
    pub relative_error: f64,
    /// Whether the point lies in the steady-state region.
    pub steady_state: bool,
}

/// Aggregated accuracy over one series or panel.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracySummary {
    /// Per-point errors (only points where both numbers exist).
    pub points: Vec<PointError>,
    /// Mean relative error over the steady-state region.
    pub steady_state_error: f64,
    /// Largest relative error over the steady-state region.
    pub steady_state_max_error: f64,
    /// Mean relative error over the near-saturation region (NaN if empty).
    pub near_saturation_error: f64,
    /// Number of points in the steady-state region.
    pub steady_state_points: usize,
    /// Number of points in the near-saturation region.
    pub near_saturation_points: usize,
}

/// Computes the accuracy summary of a panel. A point counts as *steady state* when its
/// rate is at most `steady_fraction` (e.g. 0.7) of the highest rate at which the model
/// still had a steady state in that series.
pub fn accuracy_report(panel: &FigurePanel, steady_fraction: f64) -> AccuracySummary {
    let mut points = Vec::new();
    for series in &panel.series {
        let saturation_rate = series
            .points
            .iter()
            .filter(|p| p.analysis.is_some())
            .map(|p| p.rate)
            .fold(f64::NAN, f64::max);
        for p in &series.points {
            let (Some(a), Some(s)) = (p.analysis, p.simulation) else { continue };
            if s <= 0.0 {
                continue;
            }
            let steady = saturation_rate.is_finite() && p.rate <= steady_fraction * saturation_rate;
            points.push(PointError {
                rate: p.rate,
                analysis: a,
                simulation: s,
                relative_error: (a - s).abs() / s,
                steady_state: steady,
            });
        }
    }
    summarize_points(points)
}

/// The model-vs-simulation validation of one scenario spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecValidation {
    /// Spec name.
    pub name: String,
    /// Fabric summary (`N=…` / `torus k=…`).
    pub fabric: String,
    /// Destination pattern, as a short tag (`uniform`, `hotspot`, …).
    pub pattern: String,
    /// Burstiness index of the spec's arrival process: the squared coefficient
    /// of variation of a node's interarrival times (1.0 for Poisson, larger
    /// for ON-OFF and bursty traces — see
    /// [`mcnet_sim::TrafficSourceSpec::burstiness`]).
    pub burstiness: f64,
    /// The analytical saturation rate the sweep fractions are anchored to.
    pub model_saturation: f64,
    /// Accuracy summary over the swept points.
    pub summary: AccuracySummary,
}

/// Sweeps one spec over `fractions` of its analytical saturation rate and
/// compares model against simulation at every point.
///
/// The simulation runs at the given effort's protocol from the spec's own seed
/// (one independent seed per point, the [`mcnet_sim::Scenario::sweep_outcomes`]
/// contract); deep saturation on either side — an exhausted event budget or a
/// saturated model — drops the point rather than failing the validation.
/// Points at most `steady_fraction` of the saturation rate count as
/// steady-state.
pub fn validate_spec(
    spec: &ScenarioSpec,
    effort: EvaluationEffort,
    fractions: &[f64],
    steady_fraction: f64,
) -> Result<SpecValidation> {
    if fractions.is_empty() || fractions.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err(ExperimentError::InvalidExperiment(format!(
            "saturation fractions must be positive and finite, got {fractions:?}"
        )));
    }
    let scenario = Scenario::builder()
        .name(spec.name.clone())
        .fabric(spec.fabric.build().map_err(ExperimentError::from)?)
        .traffic(spec.traffic)
        .source(spec.source.clone())
        .config(effort.sim_config(spec.seed))
        .routing(spec.routing)
        .build()
        .map_err(ExperimentError::from)?;
    let burstiness =
        spec.source.burstiness(spec.traffic.generation_rate).map_err(ExperimentError::from)?;

    // The saturation anchor respects the spec's routing policy: an adaptive
    // spec sweeps fractions of the *adaptive-load* model's (later) saturation
    // point, so the gated region matches the policy actually simulated.
    let saturation = scenario.find_saturation_rate(1e-4).map_err(ExperimentError::from)?;

    // A trace-driven source replays a fixed arrival record: sweeping the rate
    // axis would not move the simulated load, so the fractions of saturation
    // would compare the model at swept loads against a simulation pinned at
    // the trace's own load. Validate the single configured point instead —
    // the model evaluates at the trace's effective rate (the scenario's
    // effective-rate contract), the simulation replays the trace.
    if matches!(spec.source, TrafficSourceSpec::TraceReplay { .. }) {
        let model = scenario.evaluate().map_err(ExperimentError::from)?;
        let sim = scenario.run().map_err(ExperimentError::from)?;
        let mut points = Vec::new();
        if sim.mean_latency > 0.0 {
            points.push(PointError {
                rate: model.generation_rate,
                analysis: model.mean_latency,
                simulation: sim.mean_latency,
                relative_error: (model.mean_latency - sim.mean_latency).abs() / sim.mean_latency,
                steady_state: true,
            });
        }
        return Ok(SpecValidation {
            name: spec.name.clone(),
            fabric: scenario.fabric().summary(),
            pattern: pattern_tag(&spec.traffic.pattern),
            burstiness,
            model_saturation: saturation,
            summary: summarize_points(points),
        });
    }
    let rates: Vec<f64> = fractions.iter().map(|f| f * saturation).collect();

    let models = scenario.evaluate_sweep(&rates).map_err(ExperimentError::from)?;
    let sims = scenario.sweep_outcomes(&rates).map_err(ExperimentError::from)?;

    let mut points = Vec::with_capacity(rates.len());
    for ((rate, fraction), (model, sim)) in
        rates.iter().zip(fractions).zip(models.into_iter().zip(sims))
    {
        let model = match model {
            Ok(report) => Some(report.mean_latency),
            Err(SimError::ModelSaturated { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        let sim = match sim {
            Ok(report) => Some(report.mean_latency),
            Err(SimError::EventBudgetExhausted { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        let (Some(analysis), Some(simulation)) = (model, sim) else { continue };
        if simulation <= 0.0 {
            continue;
        }
        points.push(PointError {
            rate: *rate,
            analysis,
            simulation,
            relative_error: (analysis - simulation).abs() / simulation,
            steady_state: *fraction <= steady_fraction,
        });
    }

    Ok(SpecValidation {
        name: spec.name.clone(),
        fabric: scenario.fabric().summary(),
        pattern: pattern_tag(&spec.traffic.pattern),
        burstiness,
        model_saturation: saturation,
        summary: summarize_points(points),
    })
}

/// Renders a spec-validation set as one markdown table.
pub fn validation_to_markdown(cases: &[SpecValidation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "### Model vs simulation, spec-driven\n\n\
         | spec | fabric | pattern | burstiness | model saturation | \
         steady-state err (mean/max) | near-saturation err | points |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let pct = |v: f64| {
        if v.is_nan() {
            "—".to_string()
        } else {
            format!("{:.1}%", 100.0 * v)
        }
    };
    for c in cases {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {:.3e} | {} / {} | {} | {} |",
            c.name,
            c.fabric,
            c.pattern,
            c.burstiness,
            c.model_saturation,
            pct(c.summary.steady_state_error),
            pct(c.summary.steady_state_max_error),
            pct(c.summary.near_saturation_error),
            c.summary.points.len(),
        );
    }
    out
}

/// One point of an ON-OFF burstiness scan: the same spec at the same load,
/// with the arrival process swept from Poisson into increasingly bursty
/// ON-OFF shapes. The analytical model only sees the (identical) mean rate,
/// so the relative error is a direct measurement of what the Poisson
/// assumption costs as burstiness grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstinessPoint {
    /// ON-OFF duty cycle of the point; `None` is the Poisson control.
    pub duty: Option<f64>,
    /// Burstiness index (interarrival SCV; 1.0 for the Poisson control).
    pub burstiness: f64,
    /// Analytical latency at the point's mean rate.
    pub analysis: f64,
    /// Simulated latency under the bursty process.
    pub simulation: f64,
    /// `|analysis − simulation| / simulation`.
    pub relative_error: f64,
}

/// Sweeps a spec's arrival process over ON-OFF `duties` (plus a leading
/// Poisson control) at `fraction` of the Poisson model's saturation rate,
/// and records model-vs-simulation error against the burstiness index.
///
/// Points whose simulation exhausts its event budget (deep burst-induced
/// saturation) are dropped, mirroring [`validate_spec`]'s sweep contract.
pub fn burstiness_scan(
    spec: &ScenarioSpec,
    effort: EvaluationEffort,
    duties: &[f64],
    fraction: f64,
) -> Result<Vec<BurstinessPoint>> {
    if duties.is_empty() || duties.iter().any(|d| !d.is_finite() || *d <= 0.0 || *d >= 1.0) {
        return Err(ExperimentError::InvalidExperiment(format!(
            "ON-OFF duty cycles must lie strictly inside (0, 1), got {duties:?}"
        )));
    }
    if !fraction.is_finite() || fraction <= 0.0 {
        return Err(ExperimentError::InvalidExperiment(format!(
            "saturation fraction must be positive and finite, got {fraction}"
        )));
    }
    let build = |source: TrafficSourceSpec, rate: f64| -> Result<Scenario> {
        Scenario::builder()
            .name(spec.name.clone())
            .fabric(spec.fabric.build().map_err(ExperimentError::from)?)
            .traffic(
                spec.traffic
                    .with_rate(rate)
                    .map_err(SimError::from)
                    .map_err(ExperimentError::from)?,
            )
            .source(source)
            .config(effort.sim_config(spec.seed))
            .routing(spec.routing)
            .build()
            .map_err(ExperimentError::from)
    };
    // The load anchor is the Poisson scenario's saturation: every point runs
    // at the same mean rate, so burstiness is the only thing that varies.
    let poisson = build(TrafficSourceSpec::Poisson, spec.traffic.generation_rate)?;
    let rate = fraction * poisson.find_saturation_rate(1e-4).map_err(ExperimentError::from)?;

    let mut sources = vec![(None, TrafficSourceSpec::Poisson)];
    sources.extend(
        duties.iter().map(|&d| (Some(d), TrafficSourceSpec::OnOff { duty: d, mean_on: None })),
    );
    let mut points = Vec::with_capacity(sources.len());
    for (duty, source) in sources {
        let burstiness = source.burstiness(rate).map_err(ExperimentError::from)?;
        let scenario = build(source, rate)?;
        let analysis = scenario.evaluate().map_err(ExperimentError::from)?.mean_latency;
        let simulation = match scenario.run() {
            Ok(report) => report.mean_latency,
            Err(SimError::EventBudgetExhausted { .. }) => continue,
            Err(e) => return Err(e.into()),
        };
        if simulation <= 0.0 {
            continue;
        }
        points.push(BurstinessPoint {
            duty,
            burstiness,
            analysis,
            simulation,
            relative_error: (analysis - simulation).abs() / simulation,
        });
    }
    Ok(points)
}

/// Renders a burstiness scan as one markdown table.
pub fn burstiness_to_markdown(name: &str, points: &[BurstinessPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "### Burstiness vs model error: {name}\n\n\
         | duty | burstiness | model | simulation | relative error |\n\
         |---|---|---|---|---|\n"
    );
    for p in points {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.1} | {:.1} | {:.1}% |",
            p.duty.map_or("— (poisson)".to_string(), |d| format!("{d:.2}")),
            p.burstiness,
            p.analysis,
            p.simulation,
            100.0 * p.relative_error,
        );
    }
    out
}

fn pattern_tag(pattern: &mcnet_system::TrafficPattern) -> String {
    match pattern {
        mcnet_system::TrafficPattern::Uniform => "uniform".into(),
        mcnet_system::TrafficPattern::Hotspot { hotspot, fraction } => {
            format!("hotspot(node {hotspot}, f={fraction})")
        }
        mcnet_system::TrafficPattern::LocalFavoring { locality } => {
            format!("local_favoring({locality})")
        }
    }
}

fn summarize_points(points: Vec<PointError>) -> AccuracySummary {
    let steady: Vec<&PointError> = points.iter().filter(|p| p.steady_state).collect();
    let near: Vec<&PointError> = points.iter().filter(|p| !p.steady_state).collect();
    let mean = |v: &[&PointError]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().map(|p| p.relative_error).sum::<f64>() / v.len() as f64
        }
    };
    let max = |v: &[&PointError]| v.iter().map(|p| p.relative_error).fold(0.0f64, f64::max);
    AccuracySummary {
        steady_state_error: mean(&steady),
        steady_state_max_error: max(&steady),
        near_saturation_error: mean(&near),
        steady_state_points: steady.len(),
        near_saturation_points: near.len(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureSeries, SeriesPoint};

    fn panel_from_points(points: Vec<SeriesPoint>) -> FigurePanel {
        FigurePanel {
            title: "test".into(),
            system: "test".into(),
            series: vec![FigureSeries {
                label: "Lm=256".into(),
                message_flits: 32,
                flit_bytes: 256.0,
                points,
            }],
        }
    }

    #[test]
    fn errors_are_split_by_region() {
        // Saturation (last analysable rate) at 1.0; steady fraction 0.7.
        let panel = panel_from_points(vec![
            SeriesPoint {
                rate: 0.2,
                analysis: Some(100.0),
                simulation: Some(110.0),
                sim_std_error: None,
            },
            SeriesPoint {
                rate: 0.6,
                analysis: Some(150.0),
                simulation: Some(140.0),
                sim_std_error: None,
            },
            SeriesPoint {
                rate: 0.9,
                analysis: Some(250.0),
                simulation: Some(400.0),
                sim_std_error: None,
            },
            SeriesPoint {
                rate: 1.0,
                analysis: Some(300.0),
                simulation: Some(600.0),
                sim_std_error: None,
            },
        ]);
        let acc = accuracy_report(&panel, 0.7);
        assert_eq!(acc.steady_state_points, 2);
        assert_eq!(acc.near_saturation_points, 2);
        assert!(acc.steady_state_error < 0.1);
        assert!(acc.near_saturation_error > 0.3);
        assert!(acc.steady_state_max_error >= acc.steady_state_error);
    }

    #[test]
    fn missing_values_are_skipped() {
        let panel = panel_from_points(vec![
            SeriesPoint { rate: 0.2, analysis: Some(100.0), simulation: None, sim_std_error: None },
            SeriesPoint { rate: 0.4, analysis: None, simulation: Some(100.0), sim_std_error: None },
            SeriesPoint {
                rate: 0.6,
                analysis: Some(100.0),
                simulation: Some(100.0),
                sim_std_error: None,
            },
        ]);
        let acc = accuracy_report(&panel, 1.0);
        assert_eq!(acc.points.len(), 1);
        assert_eq!(acc.steady_state_points, 1);
        assert_eq!(acc.steady_state_error, 0.0);
        assert!(acc.near_saturation_error.is_nan());
    }

    #[test]
    fn empty_panel_is_harmless() {
        let panel = panel_from_points(vec![]);
        let acc = accuracy_report(&panel, 0.7);
        assert!(acc.points.is_empty());
        assert!(acc.steady_state_error.is_nan());
        assert_eq!(acc.steady_state_max_error, 0.0);
    }

    fn torus_spec(pattern: mcnet_system::TrafficPattern) -> ScenarioSpec {
        ScenarioSpec {
            name: "validation_test".into(),
            fabric: mcnet_sim::scenario::FabricSpec::Torus { radix: 4, dimensions: 2 },
            traffic: mcnet_system::TrafficConfig::uniform(16, 256.0, 1e-3)
                .unwrap()
                .with_pattern(pattern)
                .unwrap(),
            source: TrafficSourceSpec::Poisson,
            protocol: mcnet_sim::Protocol::Quick,
            seed: 7,
            replications: 1,
            faults: None,
            routing: mcnet_sim::RoutingPolicy::Deterministic,
        }
    }

    #[test]
    fn spec_validation_sweeps_model_against_simulation() {
        let spec = torus_spec(mcnet_system::TrafficPattern::Uniform);
        let v = validate_spec(&spec, EvaluationEffort::Quick, &[0.2, 0.4, 0.8], 0.7).unwrap();
        assert_eq!(v.name, "validation_test");
        assert!(v.fabric.contains("torus"));
        assert_eq!(v.pattern, "uniform");
        assert!(v.model_saturation > 0.0);
        assert_eq!(v.summary.points.len(), 3);
        assert_eq!(v.summary.steady_state_points, 2);
        assert_eq!(v.summary.near_saturation_points, 1);
        // Low-load agreement: the paper's qualitative claim, quantified.
        assert!(
            v.summary.steady_state_error < 0.25,
            "steady-state error {}",
            v.summary.steady_state_error
        );
        let md = validation_to_markdown(&[v]);
        assert!(md.contains("validation_test"));
        assert!(md.contains("torus"));
    }

    #[test]
    fn spec_validation_covers_hotspot_patterns() {
        let spec = torus_spec(mcnet_system::TrafficPattern::Hotspot { hotspot: 5, fraction: 0.2 });
        let v = validate_spec(&spec, EvaluationEffort::Quick, &[0.3], 0.7).unwrap();
        assert!(v.pattern.starts_with("hotspot"));
        assert_eq!(v.summary.points.len(), 1);
        assert!(v.summary.steady_state_error < 0.3, "{}", v.summary.steady_state_error);
    }

    #[test]
    fn burstiness_scan_orders_points_by_burstiness() {
        let spec = torus_spec(mcnet_system::TrafficPattern::Uniform);
        let points = burstiness_scan(&spec, EvaluationEffort::Quick, &[0.9, 0.5], 0.35).unwrap();
        assert!(points.len() >= 2, "at least the control and one ON-OFF point must survive");
        // The scan leads with the Poisson control (burstiness exactly 1).
        assert_eq!(points[0].duty, None);
        assert_eq!(points[0].burstiness, 1.0);
        for pair in points.windows(2) {
            assert!(
                pair[1].burstiness > pair[0].burstiness,
                "shrinking duty cycles must scan increasing burstiness"
            );
        }
        // Near-Poisson agreement: the model's assumption holds at the control.
        assert!(points[0].relative_error < 0.25, "{}", points[0].relative_error);
        let md = burstiness_to_markdown(&spec.name, &points);
        assert!(md.contains("poisson"));
        assert!(md.contains(&spec.name));
        // Degenerate scans are rejected.
        assert!(burstiness_scan(&spec, EvaluationEffort::Quick, &[], 0.35).is_err());
        assert!(burstiness_scan(&spec, EvaluationEffort::Quick, &[1.0], 0.35).is_err());
        assert!(burstiness_scan(&spec, EvaluationEffort::Quick, &[0.5], 0.0).is_err());
    }

    #[test]
    fn degenerate_fractions_are_rejected() {
        let spec = torus_spec(mcnet_system::TrafficPattern::Uniform);
        assert!(validate_spec(&spec, EvaluationEffort::Quick, &[], 0.7).is_err());
        assert!(validate_spec(&spec, EvaluationEffort::Quick, &[-0.5], 0.7).is_err());
        assert!(validate_spec(&spec, EvaluationEffort::Quick, &[f64::NAN], 0.7).is_err());
    }
}
