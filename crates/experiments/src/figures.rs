//! Regeneration of the paper's latency-vs-offered-traffic figures (Figs. 3 and 4).
//!
//! Each figure panel plots the mean message latency against the per-node generation
//! rate `λ_g` for one organization and one message length, with two flit sizes
//! (`L_m = 256` and `512` bytes) and, for every curve, both the analytical prediction
//! and the simulation measurement — exactly the series of the paper's figures.

use crate::{EvaluationEffort, Result};
use mcnet_model::{ModelBackend, ModelError, ModelOptions};
use mcnet_sim::{ReplicatedReport, Scenario, SimError};
use mcnet_system::sweep::FigureSweep;
use mcnet_system::{organizations, MultiClusterSystem, TrafficConfig};

/// One traffic point of one curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Per-node generation rate `λ_g`.
    pub rate: f64,
    /// Analytical prediction; `None` when the model reports saturation at this load.
    pub analysis: Option<f64>,
    /// Simulation measurement; `None` when the simulation was skipped or aborted.
    pub simulation: Option<f64>,
    /// Standard error of the simulation mean, when available.
    pub sim_std_error: Option<f64>,
}

/// One curve of a panel (one flit size, analysis + simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Human-readable label, e.g. `"Lm=256"`.
    pub label: String,
    /// Message length in flits.
    pub message_flits: usize,
    /// Flit size in bytes.
    pub flit_bytes: f64,
    /// The sweep points.
    pub points: Vec<SeriesPoint>,
}

/// One panel of a figure (one organization and message length, both flit sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct FigurePanel {
    /// Panel title, e.g. `"Fig. 3: N=1120, m=8, M=32"`.
    pub title: String,
    /// System summary string.
    pub system: String,
    /// The curves of the panel.
    pub series: Vec<FigureSeries>,
}

/// A figure produced by the replicated paper-scale driver: the panels plus
/// one digest pinning every simulated delivery stream the figure contains.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedFigure {
    /// The figure's panels, in the paper's left-to-right order.
    pub panels: Vec<FigurePanel>,
    /// FNV-1a fold of every replication's delivery digest, in (panel, series,
    /// point, replication) order. Two invocations at the same effort, seed and
    /// replication count must produce the same value — the CI smoke check.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold_digest(fold: &mut u64, digest: u64) {
    for byte in digest.to_le_bytes() {
        *fold = (*fold ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// Builds one curve: sweep `λ_g`, evaluate the model, and simulate `reps`
/// independent replications per traffic point — the shape of the paper-scale
/// figure driver. `reps = 0` draws the analytical curve only.
///
/// The whole sweep runs through [`Scenario::sweep_replicated`], so one
/// per-worker engine pool is warmed by the first point and merely *reset* for
/// every following replication: a curve of `P` points × `reps` replications
/// builds `min(workers, reps)` engines, total. Each point reports the mean over
/// its replication means and the standard error across replications; points
/// where any replication exhausts its event budget (deep saturation) are
/// omitted rather than failing the figure.
fn build_series_replicated(
    system: &MultiClusterSystem,
    sweep: &FigureSweep,
    effort: EvaluationEffort,
    reps: usize,
    seed: u64,
    fold: &mut u64,
) -> Result<FigureSeries> {
    let sweep = sweep.with_points(effort.sweep_points());
    let rates = sweep.rates()?;
    let template = sweep.template()?;
    let analyses = analysis_curve(system, &template, &rates)?;

    let simulations: Vec<Option<(f64, f64)>> = if reps == 0 {
        vec![None; rates.len()]
    } else {
        let scenario = Scenario::builder()
            .tree(system.clone())
            .traffic(template)
            .config(effort.sim_config(seed))
            .build()?;
        scenario
            .sweep_replicated(&rates, reps)?
            .into_iter()
            .map(|outcome| replicated_point(outcome, fold))
            .collect::<std::result::Result<_, SimError>>()?
    };

    let mut points = Vec::with_capacity(rates.len());
    for ((rate, analysis), simulation) in rates.iter().zip(analyses).zip(simulations) {
        points.push(SeriesPoint {
            rate: *rate,
            analysis,
            simulation: simulation.map(|(mean, _)| mean),
            sim_std_error: simulation.map(|(_, err)| err),
        });
    }
    Ok(FigureSeries {
        label: format!("Lm={}", sweep.flit_bytes),
        message_flits: sweep.message_flits,
        flit_bytes: sweep.flit_bytes,
        points,
    })
}

/// Maps one replicated sweep outcome to `(mean, std_error)` and folds its
/// delivery digests, treating an exhausted event budget as a missing point.
fn replicated_point(
    outcome: std::result::Result<ReplicatedReport, SimError>,
    fold: &mut u64,
) -> std::result::Result<Option<(f64, f64)>, SimError> {
    match outcome {
        Ok(rep) => {
            for r in &rep.replications {
                fold_digest(fold, r.digest);
            }
            let err = rep.std_error.unwrap_or(rep.replications[0].latency_std_error);
            Ok(Some((rep.mean_latency, err)))
        }
        Err(SimError::EventBudgetExhausted { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The paper's Fig. 3: organization A (`N = 1120`, `m = 8`), panels for `M = 32`
/// and `M = 64`, each with `L_m ∈ {256, 512}`; every point simulated `reps`
/// times (seeds `seed … seed+reps-1`) over a reused engine pool.
pub fn figure3_replicated(
    effort: EvaluationEffort,
    reps: usize,
    seed: u64,
) -> Result<ReplicatedFigure> {
    figure_replicated(
        &organizations::table1_org_a(),
        &[
            (
                "Fig. 3 (left): N=1120, m=8, M=32",
                [FigureSweep::fig3_m32(256.0), FigureSweep::fig3_m32(512.0)],
            ),
            (
                "Fig. 3 (right): N=1120, m=8, M=64",
                [FigureSweep::fig3_m64(256.0), FigureSweep::fig3_m64(512.0)],
            ),
        ],
        effort,
        reps,
        seed,
    )
}

/// The paper's Fig. 4: organization B (`N = 544`, `m = 4`), panels for `M = 32`
/// and `M = 64`, each with `L_m ∈ {256, 512}`; every point simulated `reps`
/// times (seeds `seed … seed+reps-1`) over a reused engine pool.
pub fn figure4_replicated(
    effort: EvaluationEffort,
    reps: usize,
    seed: u64,
) -> Result<ReplicatedFigure> {
    figure_replicated(
        &organizations::table1_org_b(),
        &[
            (
                "Fig. 4 (left): N=544, m=4, M=32",
                [FigureSweep::fig4_m32(256.0), FigureSweep::fig4_m32(512.0)],
            ),
            (
                "Fig. 4 (right): N=544, m=4, M=64",
                [FigureSweep::fig4_m64(256.0), FigureSweep::fig4_m64(512.0)],
            ),
        ],
        effort,
        reps,
        seed,
    )
}

/// Builds a figure on one organization from its panels, each a title and one
/// sweep per flit size, through [`build_series_replicated`]. Digests fold in
/// (panel, series, point, replication) order.
fn figure_replicated(
    system: &MultiClusterSystem,
    panels: &[(&str, [FigureSweep; 2])],
    effort: EvaluationEffort,
    reps: usize,
    seed: u64,
) -> Result<ReplicatedFigure> {
    let mut fold = FNV_OFFSET;
    let mut built = Vec::with_capacity(panels.len());
    for (title, sweeps) in panels {
        let series = sweeps
            .iter()
            .map(|sweep| build_series_replicated(system, sweep, effort, reps, seed, &mut fold))
            .collect::<Result<_>>()?;
        built.push(FigurePanel { title: title.to_string(), system: system.summary(), series });
    }
    Ok(ReplicatedFigure { panels: built, digest: fold })
}

/// The analytical curve of a tree system: the model's mean latency at every
/// rate (stamped onto `template`), or `None` where it saturates.
pub(crate) fn analysis_curve(
    system: &MultiClusterSystem,
    template: &TrafficConfig,
    rates: &[f64],
) -> Result<Vec<Option<f64>>> {
    ModelBackend::Tree(system.clone())
        .evaluate_batch(template, rates, ModelOptions::default())?
        .into_iter()
        .map(|slot| match slot {
            Ok(report) => Ok(Some(report.mean_latency)),
            Err(ModelError::Saturated { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick curve of Org B, M=32, Lm=256 with `reps` replications per
    /// point, and the digest fold it left behind.
    fn org_b_series(reps: usize, seed: u64) -> (FigureSeries, u64) {
        let system = organizations::table1_org_b();
        let sweep = FigureSweep::fig4_m32(256.0);
        let mut fold = FNV_OFFSET;
        let series = build_series_replicated(
            &system,
            &sweep,
            EvaluationEffort::Quick,
            reps,
            seed,
            &mut fold,
        )
        .unwrap();
        (series, fold)
    }

    #[test]
    fn analysis_only_series_has_expected_shape() {
        // `reps = 0` is the model-only curve: no simulated point, nothing
        // folded into the digest, and the very analysis values the simulated
        // curve of the same sweep carries — strictly increasing with the rate.
        let (series, fold) = org_b_series(0, 7);
        assert_eq!(series.points.len(), EvaluationEffort::Quick.sweep_points());
        assert!(series.points.iter().all(|p| p.simulation.is_none()));
        assert_eq!(fold, FNV_OFFSET, "an analysis-only series folded a digest");
        let (simulated, _) = org_b_series(2, 7);
        let bits = |s: &FigureSeries| {
            s.points.iter().map(|p| p.analysis.map(f64::to_bits)).collect::<Vec<_>>()
        };
        assert_eq!(bits(&series), bits(&simulated));
        assert!(series.points[0].analysis.is_some());
        let values: Vec<f64> = series.points.iter().filter_map(|p| p.analysis).collect();
        assert!(values.windows(2).all(|w| w[1] > w[0]), "latency must be increasing");
    }

    #[test]
    fn point_with_simulation_produces_both_numbers() {
        let (series, _) = org_b_series(2, 3);
        let p = series.points[0];
        assert!(p.analysis.is_some());
        assert!(p.simulation.is_some());
        assert!(p.sim_std_error.unwrap() > 0.0);
        // Model and simulation agree within a factor of three at the lowest
        // load (the close-agreement claim is exercised properly by the
        // integration tests).
        let a = p.analysis.unwrap();
        let s = p.simulation.unwrap();
        assert!(a > 0.3 * s && a < 3.0 * s, "analysis {a} vs simulation {s}");
    }

    #[test]
    fn replicated_series_reports_spread_and_digest() {
        // Every unsaturated point carries a replication mean and a
        // cross-replication standard error, and the digest fold moves off its
        // FNV offset basis.
        let (series, fold) = org_b_series(2, 7);
        assert_eq!(series.points.len(), EvaluationEffort::Quick.sweep_points());
        let simulated: Vec<_> = series.points.iter().filter(|p| p.simulation.is_some()).collect();
        assert!(!simulated.is_empty(), "every quick point saturated");
        assert!(simulated.iter().all(|p| p.sim_std_error.is_some()));
        assert_ne!(fold, FNV_OFFSET, "no delivery digests were folded");
    }

    #[test]
    fn saturation_produces_none_not_error() {
        let system = organizations::table1_org_b();
        let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let curve = analysis_curve(&system, &template, &[1e-4, 5e-3]).unwrap();
        assert!(curve[0].is_some());
        assert_eq!(curve[1], None);
    }
}
