//! The fabric-facing surface of the analytical layer: one entry point over both
//! analytical models, mirroring the simulator's `FabricBackend` abstraction.
//!
//! A [`ModelBackend`] owns a fabric description — the paper's heterogeneous
//! multi-cluster tree or a k-ary n-cube torus — and evaluates any supported
//! traffic point through one surface: [`ModelBackend::evaluate`] (mean latency
//! plus the per-class breakdown), [`ModelBackend::mean_latency`] and the
//! pattern-aware saturation search [`ModelBackend::saturation_rate`] /
//! [`ModelBackend::find_saturation_rate`]. The scenario layer in `mcnet-sim`
//! re-exports this type as its `Fabric`, so the simulator and the model are
//! built from one fabric description, which is what lets a single serialized
//! scenario run through either world.
//!
//! Each entry point builds one model of the fabric and rebinds it to every
//! rate it visits ([`AnalyticalModel::set_rate`], [`TorusModel::set_rate`]),
//! so a sweep or a saturation search pays for one construction. On the torus
//! both halves are cheap: a uniform model stores its loads per ring digit, so
//! building and rebinding cost `O(k)` and a pointwise [`ModelBackend::evaluate`]
//! is mostly the evaluation's own pass over the channels (only a hot-spot
//! pattern adds a per-channel traversal-count table, built once).

use crate::multicluster::AnalyticalModel;
use crate::options::ModelOptions;
use crate::torus::{TorusLatencyReport, TorusModel};
use crate::{LatencyReport, ModelError, Result};
use mcnet_system::{MultiClusterSystem, TorusSystem, TrafficConfig};

/// An analytical model bound to a fabric — the model-side counterpart of the
/// simulator's `FabricBackend`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelBackend {
    /// The paper's heterogeneous multi-cluster m-port n-tree model (Eqs. 1–36).
    Tree(MultiClusterSystem),
    /// The k-ary n-cube model (the Draper–Ghosh lineage; see [`crate::torus`]).
    Torus(TorusSystem),
}

/// The unified latency report of one backend evaluation: the engine-facing
/// headline numbers plus the fabric-specific breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// The per-node generation rate the report was computed for.
    pub generation_rate: f64,
    /// System-wide mean message latency.
    pub mean_latency: f64,
    /// Mean latency of the intra class (intra-cluster on the tree, same
    /// dimension-0 sub-ring on the torus; background component under hot-spot
    /// traffic).
    pub intra_latency: f64,
    /// Mean latency of the inter class.
    pub inter_latency: f64,
    /// Worst per-channel utilisation encountered anywhere in the model.
    pub max_channel_utilization: f64,
    /// The largest concentrator/dispatcher (bridge) utilisation
    /// `ρ = λ_I2^{(i,v)}·M·t_cs` that Eq. (33) charges, over every cluster
    /// and the destination clusters it sends to (zero when the options
    /// exclude the concentrators); `None` on the torus, which has no bridges
    /// — the model-side counterpart of the simulator's
    /// `SimReport::max_bridge_utilization`. Kept apart from
    /// `max_channel_utilization`, which ranks channel loads only.
    pub max_bridge_utilization: Option<f64>,
    /// The fabric-specific breakdown.
    pub detail: ModelDetail,
}

/// Fabric-specific detail of a [`ModelReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelDetail {
    /// Per-cluster breakdown of the tree model (Eqs. 35–36).
    Tree(LatencyReport),
    /// Class breakdown of the torus model.
    Torus(TorusLatencyReport),
}

impl ModelReport {
    /// A short tag naming the backend that produced the report.
    pub fn backend_kind(&self) -> &'static str {
        match self.detail {
            ModelDetail::Tree(_) => "tree",
            ModelDetail::Torus(_) => "torus",
        }
    }

    fn from_tree(report: LatencyReport) -> ModelReport {
        ModelReport {
            generation_rate: report.generation_rate,
            mean_latency: report.total_latency,
            intra_latency: report.mean_intra_latency(),
            inter_latency: report.mean_inter_latency(),
            max_channel_utilization: report.max_channel_utilization,
            max_bridge_utilization: Some(
                report.clusters.iter().map(|c| c.inter.max_bridge_utilization).fold(0.0, f64::max),
            ),
            detail: ModelDetail::Tree(report),
        }
    }

    fn from_torus(report: TorusLatencyReport) -> ModelReport {
        ModelReport {
            generation_rate: report.generation_rate,
            mean_latency: report.total,
            intra_latency: report.intra,
            inter_latency: report.inter,
            max_channel_utilization: report.max_channel_utilization,
            max_bridge_utilization: None,
            detail: ModelDetail::Torus(report),
        }
    }
}

impl ModelBackend {
    /// Total number of processing nodes of the fabric.
    pub fn total_nodes(&self) -> usize {
        match self {
            ModelBackend::Tree(s) => s.total_nodes(),
            ModelBackend::Torus(t) => t.total_nodes(),
        }
    }

    /// A short human-readable summary of the fabric.
    pub fn summary(&self) -> String {
        match self {
            ModelBackend::Tree(s) => s.summary(),
            ModelBackend::Torus(t) => t.summary(),
        }
    }

    /// Evaluates the analytical model at one traffic point. Fails with
    /// [`ModelError::Saturated`] when the model has no steady state there.
    pub fn evaluate(&self, traffic: &TrafficConfig, options: ModelOptions) -> Result<ModelReport> {
        BoundModel::new(self, traffic, options)?.evaluate()
    }

    /// Evaluates the model at every rate of a sweep, building the
    /// rate-independent structure (hop distributions, per-channel usage
    /// tables, destination mixes) **once** and rebinding only the per-channel
    /// rates between points. Each slot of the returned vector is exactly what
    /// [`ModelBackend::evaluate`] returns for `template.with_rate(rates[i])` —
    /// bit-identical reports, per-point [`ModelError::Saturated`] in the
    /// failing slots — at a fraction of the construction cost. Errors that
    /// would reject the template itself (invalid fabric, unsupported pattern)
    /// surface as the outer `Err`.
    pub fn evaluate_batch(
        &self,
        template: &TrafficConfig,
        rates: &[f64],
        options: ModelOptions,
    ) -> Result<Vec<Result<ModelReport>>> {
        let mut model = BoundModel::new(self, template, options)?;
        Ok(rates
            .iter()
            .map(|&rate| {
                model.set_rate(rate)?;
                model.evaluate()
            })
            .collect())
    }

    /// Convenience: the mean latency at one traffic point, or `None` when the
    /// model is saturated there (errors other than saturation propagate).
    pub fn mean_latency(
        &self,
        traffic: &TrafficConfig,
        options: ModelOptions,
    ) -> Result<Option<f64>> {
        match self.evaluate(traffic, options) {
            Ok(report) => Ok(Some(report.mean_latency)),
            Err(ModelError::Saturated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Finds the saturation generation rate for the given message geometry and
    /// destination pattern (taken from `template`; its rate is ignored) by
    /// bisection: the largest rate (within `tolerance`) at which the model
    /// still has a steady state. `upper_bound` must be a saturated rate.
    pub fn saturation_rate(
        &self,
        template: &TrafficConfig,
        options: ModelOptions,
        upper_bound: f64,
        tolerance: f64,
    ) -> Result<f64> {
        let template = template.with_rate(upper_bound).map_err(ModelError::from)?;
        let mut model = BoundModel::new(self, &template, options)?;
        if model.steady_at(upper_bound)? {
            return Err(ModelError::InvalidConfiguration {
                reason: format!("the model is not saturated at the upper bound {upper_bound}"),
            });
        }
        model.bisect(upper_bound, tolerance)
    }

    /// Like [`ModelBackend::saturation_rate`], but finds its own bracket by
    /// doubling (or, when the template's rate is already saturated, halving)
    /// from the template's rate. The bracket is a factor of two wide before
    /// the bisection starts, so `relative_tolerance` is relative to the found
    /// saturation rate (within that factor) no matter how far off the starting
    /// rate was.
    pub fn find_saturation_rate(
        &self,
        template: &TrafficConfig,
        options: ModelOptions,
        relative_tolerance: f64,
    ) -> Result<f64> {
        let mut rate = if template.generation_rate > 0.0 { template.generation_rate } else { 1e-6 };
        let template = template.with_rate(rate).map_err(ModelError::from)?;
        let mut model = BoundModel::new(self, &template, options)?;
        if model.steady_at(rate)? {
            // Double until saturated: the first saturated rate is at most
            // 2× the saturation point.
            for _ in 0..64 {
                rate *= 2.0;
                if !model.steady_at(rate)? {
                    return model.bisect(rate, relative_tolerance * rate);
                }
            }
            Err(ModelError::InvalidConfiguration {
                reason: format!("the model never saturates below {rate}"),
            })
        } else {
            // Halve until steady: the last saturated rate (2× the first steady
            // one) is then an equally tight upper bound.
            for _ in 0..64 {
                rate *= 0.5;
                if model.steady_at(rate)? {
                    let upper = 2.0 * rate;
                    return model.bisect(upper, relative_tolerance * upper);
                }
            }
            Err(ModelError::InvalidConfiguration {
                reason: format!("the model is saturated even at the vanishing rate {rate}"),
            })
        }
    }
}

/// A model built for one backend, traffic geometry and option set: the only
/// place that picks the tree or the torus model. Every [`ModelBackend`] entry
/// point builds one and rebinds it to each rate it visits.
enum BoundModel<'a> {
    Tree(AnalyticalModel<'a>),
    Torus(TorusModel),
}

impl<'a> BoundModel<'a> {
    fn new(
        backend: &'a ModelBackend,
        traffic: &TrafficConfig,
        options: ModelOptions,
    ) -> Result<Self> {
        Ok(match backend {
            ModelBackend::Tree(system) => {
                BoundModel::Tree(AnalyticalModel::with_options(system, traffic, options)?)
            }
            ModelBackend::Torus(torus) => {
                BoundModel::Torus(TorusModel::new(torus, traffic, options)?)
            }
        })
    }

    fn set_rate(&mut self, rate: f64) -> Result<()> {
        match self {
            BoundModel::Tree(model) => model.set_rate(rate),
            BoundModel::Torus(model) => model.set_rate(rate),
        }
    }

    fn evaluate(&self) -> Result<ModelReport> {
        Ok(match self {
            BoundModel::Tree(model) => ModelReport::from_tree(model.evaluate()?),
            BoundModel::Torus(model) => ModelReport::from_torus(model.evaluate()?),
        })
    }

    /// Rebinds to `rate` and reports whether the model has a steady state there.
    fn steady_at(&mut self, rate: f64) -> Result<bool> {
        self.set_rate(rate)?;
        match self.evaluate() {
            Ok(_) => Ok(true),
            Err(ModelError::Saturated { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Bisects `[0, upper_bound]`, whose upper end is saturated, down to
    /// `tolerance`: the largest rate found steady.
    fn bisect(&mut self, upper_bound: f64, tolerance: f64) -> Result<f64> {
        let mut lo = 0.0;
        let mut hi = upper_bound;
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            if self.steady_at(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::{organizations, TrafficPattern};

    #[test]
    fn tree_backend_matches_the_direct_model() {
        let system = organizations::table1_org_b();
        let backend = ModelBackend::Tree(system.clone());
        let traffic = TrafficConfig::uniform(32, 256.0, 2e-4).unwrap();
        let unified = backend.evaluate(&traffic, ModelOptions::default()).unwrap();
        let direct = AnalyticalModel::new(&system, &traffic).unwrap().evaluate().unwrap();
        assert_eq!(unified.mean_latency, direct.total_latency);
        assert_eq!(unified.intra_latency, direct.mean_intra_latency());
        assert_eq!(unified.backend_kind(), "tree");
        assert!(matches!(unified.detail, ModelDetail::Tree(_)));
        assert_eq!(backend.total_nodes(), 544);
    }

    #[test]
    fn tree_report_carries_the_largest_bridge_utilization() {
        // Org B below its knee: the largest ρ = λ_I2·M·t_cs over every
        // ordered cluster pair, computed by hand from the pair rates.
        let system = organizations::table1_org_b();
        let backend = ModelBackend::Tree(system.clone());
        for rate in [5e-4, 6e-4] {
            let traffic = TrafficConfig::uniform(32, 256.0, rate).unwrap();
            let options = ModelOptions::default();
            let rates = crate::rates::SystemRates::compute(&system, &traffic, &options).unwrap();
            let service = traffic.message_flits as f64
                * system.technology().switch_channel_time(traffic.flit_bytes);
            let c = system.num_clusters();
            let expected = (0..c)
                .flat_map(|i| (0..c).filter(move |&v| v != i).map(move |v| (i, v)))
                .map(|(i, v)| rates.pair(i, v).lambda_icn2 * service)
                .fold(0.0, f64::max);
            let report = backend.evaluate(&traffic, options).unwrap();
            assert_eq!(report.max_bridge_utilization, Some(expected), "rate {rate}");
            assert!(expected > 0.0 && expected < 1.0);
            // Not folded into the channel figure the campaign screen ranks by.
            assert_ne!(report.max_channel_utilization, expected);
            // Excluding the concentrators charges no bridge.
            let without = backend.evaluate(&traffic, options.without_concentrator()).unwrap();
            assert_eq!(without.max_bridge_utilization, Some(0.0));
        }
        let torus = ModelBackend::Torus(TorusSystem::new(4, 2).unwrap());
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        let report = torus.evaluate(&traffic, ModelOptions::default()).unwrap();
        assert_eq!(report.max_bridge_utilization, None);
    }

    #[test]
    fn torus_backend_matches_the_direct_model() {
        let torus = TorusSystem::new(4, 2).unwrap();
        let backend = ModelBackend::Torus(torus.clone());
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        let unified = backend.evaluate(&traffic, ModelOptions::default()).unwrap();
        let direct =
            TorusModel::new(&torus, &traffic, ModelOptions::default()).unwrap().evaluate().unwrap();
        assert_eq!(unified.mean_latency, direct.total);
        assert_eq!(unified.backend_kind(), "torus");
        assert_eq!(backend.total_nodes(), 16);
        assert!(backend.summary().contains("torus"));
    }

    fn assert_batch_matches_pointwise(
        backend: &ModelBackend,
        template: &TrafficConfig,
        options: ModelOptions,
        rates: &[f64],
    ) {
        let batch = backend.evaluate_batch(template, rates, options).unwrap();
        assert_eq!(batch.len(), rates.len());
        for (&rate, slot) in rates.iter().zip(&batch) {
            let traffic = template.with_rate(rate).unwrap();
            assert_eq!(&backend.evaluate(&traffic, options), slot, "rate {rate}");
        }
    }

    #[test]
    fn evaluate_batch_is_bit_identical_to_pointwise() {
        // Sweep through saturation so both Ok and Err slots are exercised.
        let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 8e-4).collect();
        let tree = ModelBackend::Tree(organizations::small_test_org());
        let tree_template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let torus = ModelBackend::Torus(TorusSystem::new(4, 2).unwrap());
        let torus_template = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
        let hot = |t: &TrafficConfig| {
            t.with_pattern(TrafficPattern::Hotspot { hotspot: 3, fraction: 0.3 }).unwrap()
        };
        for options in [ModelOptions::default(), ModelOptions::default().without_variance()] {
            assert_batch_matches_pointwise(&tree, &tree_template, options, &rates);
            assert_batch_matches_pointwise(&tree, &hot(&tree_template), options, &rates);
            assert_batch_matches_pointwise(&torus, &torus_template, options, &rates);
            assert_batch_matches_pointwise(&torus, &hot(&torus_template), options, &rates);
        }
        // The adaptive torus variant goes through its own evaluation path.
        let adaptive = ModelOptions::default().with_adaptive_torus(2);
        assert_batch_matches_pointwise(&torus, &torus_template, adaptive, &rates);
        assert_batch_matches_pointwise(&torus, &hot(&torus_template), adaptive, &rates);
    }

    #[test]
    fn saturation_search_works_on_both_backends() {
        let tree = ModelBackend::Tree(organizations::table1_org_b());
        let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let sat_tree = tree.find_saturation_rate(&template, ModelOptions::default(), 1e-4).unwrap();
        assert_eq!(sat_tree, 9.7216796875e-4);
        // Must agree with Org B's knee bisected from [0, 1e-2] to 1e-7.
        let reference = 9.72137451171875e-4;
        assert!((sat_tree - reference).abs() / reference < 1e-2, "{sat_tree} vs {reference}");

        let torus = ModelBackend::Torus(TorusSystem::new(4, 2).unwrap());
        let template = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
        let sat_torus =
            torus.find_saturation_rate(&template, ModelOptions::default(), 1e-4).unwrap();
        assert!(sat_torus > 0.0);
        // Just below: steady; just above: saturated.
        let below = template.with_rate(sat_torus * 0.95).unwrap();
        assert!(torus.mean_latency(&below, ModelOptions::default()).unwrap().is_some());
        let above = template.with_rate(sat_torus * 1.10).unwrap();
        assert!(torus.mean_latency(&above, ModelOptions::default()).unwrap().is_none());
    }

    #[test]
    fn saturation_search_honours_the_pattern() {
        let torus = ModelBackend::Torus(TorusSystem::new(4, 2).unwrap());
        let uniform = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
        let hot =
            uniform.with_pattern(TrafficPattern::Hotspot { hotspot: 3, fraction: 0.4 }).unwrap();
        let opts = ModelOptions::default();
        let sat_uniform = torus.find_saturation_rate(&uniform, opts, 1e-4).unwrap();
        let sat_hot = torus.find_saturation_rate(&hot, opts, 1e-4).unwrap();
        assert!(
            sat_hot < sat_uniform,
            "hot-spot traffic must saturate earlier: {sat_hot} vs {sat_uniform}"
        );
    }

    #[test]
    fn saturation_search_converges_from_either_side() {
        // The search must land on the same saturation rate whether the
        // template's starting rate is far below or far above it — the
        // tolerance is anchored to the found bracket, not the starting rate.
        let torus = ModelBackend::Torus(TorusSystem::new(4, 2).unwrap());
        let opts = ModelOptions::default();
        let from_below = torus
            .find_saturation_rate(&TrafficConfig::uniform(16, 256.0, 1e-7).unwrap(), opts, 1e-4)
            .unwrap();
        let from_above = torus
            .find_saturation_rate(&TrafficConfig::uniform(16, 256.0, 10.0).unwrap(), opts, 1e-4)
            .unwrap();
        assert!(
            (from_below - from_above).abs() / from_below < 1e-3,
            "{from_below} vs {from_above}"
        );
    }

    #[test]
    fn bad_upper_bound_is_rejected() {
        let tree = ModelBackend::Tree(organizations::table1_org_b());
        let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        assert!(tree.saturation_rate(&template, ModelOptions::default(), 1e-7, 1e-9).is_err());
    }

    /// Whether a model built afresh at `rate` has a steady state: every probe
    /// of the oracle searches below pays for its own construction.
    fn fresh_steady(
        backend: &ModelBackend,
        template: &TrafficConfig,
        options: ModelOptions,
        rate: f64,
    ) -> bool {
        let traffic = template.with_rate(rate).unwrap();
        let outcome = match backend {
            ModelBackend::Tree(system) => {
                AnalyticalModel::with_options(system, &traffic, options).unwrap().evaluate().err()
            }
            ModelBackend::Torus(torus) => {
                TorusModel::new(torus, &traffic, options).unwrap().evaluate().err()
            }
        };
        match outcome {
            None => true,
            Some(ModelError::Saturated { .. }) => false,
            Some(e) => panic!("rate {rate}: {e}"),
        }
    }

    fn oracle_saturation_rate(
        backend: &ModelBackend,
        template: &TrafficConfig,
        options: ModelOptions,
        upper_bound: f64,
        tolerance: f64,
    ) -> f64 {
        assert!(!fresh_steady(backend, template, options, upper_bound));
        let (mut lo, mut hi) = (0.0, upper_bound);
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            if fresh_steady(backend, template, options, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn oracle_find_saturation_rate(
        backend: &ModelBackend,
        template: &TrafficConfig,
        options: ModelOptions,
        relative_tolerance: f64,
    ) -> f64 {
        let mut rate = template.generation_rate;
        let upper = if fresh_steady(backend, template, options, rate) {
            while fresh_steady(backend, template, options, rate) {
                rate *= 2.0;
            }
            rate
        } else {
            while !fresh_steady(backend, template, options, rate) {
                rate *= 0.5;
            }
            2.0 * rate
        };
        oracle_saturation_rate(backend, template, options, upper, relative_tolerance * upper)
    }

    #[test]
    fn saturation_searches_match_a_fresh_model_per_probe() {
        // The searches rebind one model per call; an oracle that builds a
        // fresh model at every probe must land on the same bits, from a start
        // below the knee and from one above it.
        let org_b = organizations::table1_org_b();
        let small = organizations::small_test_org();
        let tree_hot = |system: &MultiClusterSystem| TrafficPattern::Hotspot {
            hotspot: system.total_nodes() - 1,
            fraction: 0.2,
        };
        let torus_hot = TrafficPattern::Hotspot { hotspot: 3, fraction: 0.3 };
        let mut cases = Vec::new();
        for system in [org_b, small] {
            let template = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
            let hot = template.with_pattern(tree_hot(&system)).unwrap();
            for template in [template, hot] {
                cases.push((ModelBackend::Tree(system.clone()), template, ModelOptions::default()));
            }
        }
        for k in [4, 16] {
            let template = TrafficConfig::uniform(32, 256.0, 1e-5).unwrap();
            for template in [template, template.with_pattern(torus_hot).unwrap()] {
                for options in [
                    ModelOptions::default(),
                    ModelOptions::default().with_adaptive_torus(1),
                    ModelOptions::default().with_adaptive_torus(2),
                ] {
                    cases.push((
                        ModelBackend::Torus(TorusSystem::new(k, 2).unwrap()),
                        template,
                        options,
                    ));
                }
            }
        }
        for (backend, template, options) in &cases {
            for start in [template.generation_rate, 0.5] {
                let template = template.with_rate(start).unwrap();
                let found = backend.find_saturation_rate(&template, *options, 1e-4).unwrap();
                let expected = oracle_find_saturation_rate(backend, &template, *options, 1e-4);
                let label =
                    format!("{} {:?} {options:?} from {start}", backend.summary(), template);
                let below_knee = start < 0.5;
                assert_eq!(
                    fresh_steady(backend, &template, *options, start),
                    below_knee,
                    "{label}"
                );
                assert_eq!(found.to_bits(), expected.to_bits(), "{label}");
                let bisected = backend.saturation_rate(&template, *options, 1.0, 1e-7).unwrap();
                let expected = oracle_saturation_rate(backend, &template, *options, 1.0, 1e-7);
                assert_eq!(bisected.to_bits(), expected.to_bits(), "{label}");
            }
        }
        // Spot values: Org B and the adaptive 16-ary 2-cube with two VCs.
        let (org_b, uniform, default) = &cases[0];
        let from_5e4 = uniform.with_rate(5e-4).unwrap();
        assert_eq!(org_b.find_saturation_rate(&from_5e4, *default, 1e-4).unwrap(), 9.7216796875e-4);
        let (cube, uniform, adaptive_2) = &cases[12];
        let from_2e4 = uniform.with_rate(2e-4).unwrap();
        assert_eq!(cube.find_saturation_rate(&from_2e4, *adaptive_2, 1e-4).unwrap(), 3.4428125e-2);
    }
}
