//! Tunable interpretation choices of the analytical model.
//!
//! The published model (like most workshop-length analytical models) leaves a couple of
//! details open to interpretation. Instead of hard-coding one reading, the choices are
//! collected here so that (a) the defaults reproduce the published figures, and (b) the
//! effect of every choice can be quantified by the ablation benchmarks.

/// Which arrival rate feeds the M/G/1 source queue of an injection channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceQueueRate {
    /// Each node's injection channel receives that node's own message rate
    /// (`(1 − P_o)·λ_g` for ICN1, `P_o·λ_g` for ECN1). This is the physically
    /// consistent reading and the one whose saturation points match the paper's
    /// published figures; it is the default.
    #[default]
    PerNode,
    /// The literal reading of Eqs. (19–20)/(30): the source queue receives the
    /// cluster-aggregate rate `λ_I1^{(i)} = N_i(1 − P_o^{(i)})λ_g` (respectively the
    /// pairwise aggregate `λ_{E1}^{(i,v)}`). Provided for the fidelity ablation; it
    /// saturates well below the load range of the published figures.
    ClusterAggregate,
}

/// Routing discipline assumed by the torus channel-load model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TorusRouting {
    /// Dimension-order routing with Dally–Seitz dateline virtual channels —
    /// the simulator's deterministic torus policy and the Draper–Ghosh
    /// baseline.
    #[default]
    Deterministic,
    /// Minimal-adaptive routing in Duato's framework: per link,
    /// `adaptive_vcs` fully-adaptive virtual channels on top of the two
    /// dateline escape VCs. A header waits only when every adaptive candidate
    /// *and* the escape channel of its dimension-order hop are busy; the
    /// escape class carries the load share that exhausted its candidates (see
    /// `crate::torus` for the fixed point).
    AdaptiveMinimal {
        /// Fully-adaptive virtual channels per link, in addition to the escape
        /// class. Must be at least 1.
        adaptive_vcs: usize,
    },
}

/// Variance model for the source-queue service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarianceApproximation {
    /// The Draper–Ghosh approximation of Eq. (22): `σ = S − M·t_cn`.
    #[default]
    DraperGhosh,
    /// Zero variance (deterministic service) — the M/D/1 limit, used by the
    /// variance-approximation ablation.
    None,
}

/// All interpretation knobs of the analytical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOptions {
    /// Arrival-rate interpretation for the source queues.
    pub source_queue_rate: SourceQueueRate,
    /// Service-time variance model for the source queues.
    pub variance: VarianceApproximation,
    /// Whether the concentrator/dispatcher waiting time (Eqs. 33–34) is included in the
    /// inter-cluster latency. The paper includes it; switching it off quantifies the
    /// concentrators' contribution in the ablation benches.
    pub include_concentrator: bool,
    /// Routing discipline of the torus model (ignored by the tree model, whose
    /// deterministic NCA loads also describe randomized up*/down* routing in
    /// the mean — randomization only redistributes load across symmetric
    /// channels of the same network).
    pub torus_routing: TorusRouting,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            source_queue_rate: SourceQueueRate::PerNode,
            variance: VarianceApproximation::DraperGhosh,
            include_concentrator: true,
            torus_routing: TorusRouting::Deterministic,
        }
    }
}

impl ModelOptions {
    /// The defaults: the paper's formulas with the per-node source-queue reading.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Every choice set to the literal text of the paper, including the
    /// cluster-aggregate source-queue rate.
    pub fn literal() -> Self {
        ModelOptions { source_queue_rate: SourceQueueRate::ClusterAggregate, ..Self::default() }
    }

    /// Disables the Draper–Ghosh variance term (M/D/1 source queues).
    pub fn without_variance(mut self) -> Self {
        self.variance = VarianceApproximation::None;
        self
    }

    /// Excludes the concentrator/dispatcher waiting time.
    pub fn without_concentrator(mut self) -> Self {
        self.include_concentrator = false;
        self
    }

    /// Switches the torus model to minimal-adaptive routing with the given
    /// number of adaptive virtual channels per link.
    pub fn with_adaptive_torus(mut self, adaptive_vcs: usize) -> Self {
        self.torus_routing = TorusRouting::AdaptiveMinimal { adaptive_vcs };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_paper_reading() {
        let o = ModelOptions::default();
        assert_eq!(o.source_queue_rate, SourceQueueRate::PerNode);
        assert_eq!(o.variance, VarianceApproximation::DraperGhosh);
        assert!(o.include_concentrator);
        assert_eq!(ModelOptions::paper(), ModelOptions::default());
    }

    #[test]
    fn builders_flip_the_right_flags() {
        let o = ModelOptions::literal();
        assert_eq!(o.source_queue_rate, SourceQueueRate::ClusterAggregate);
        let o = ModelOptions::default().without_variance();
        assert_eq!(o.variance, VarianceApproximation::None);
        let o = ModelOptions::default().without_concentrator();
        assert!(!o.include_concentrator);
        let o = ModelOptions::default().with_adaptive_torus(2);
        assert_eq!(o.torus_routing, TorusRouting::AdaptiveMinimal { adaptive_vcs: 2 });
        assert_eq!(ModelOptions::default().torus_routing, TorusRouting::Deterministic);
    }
}
