//! The settable choices of the analytical model.
//!
//! The tree model reads each of the paper's equations one way, and that reading is not
//! an option. The source queue of an injection channel (Eqs. 19–20 and 30) receives
//! its own node's message rate, `(1 − P_o)·λ_g` for ICN1 and `P_o·λ_g` for ECN1: read
//! literally, the equations would feed one channel the whole cluster's rate, which
//! saturates far below the load range of the paper's own Figs. 3–4. The hop
//! distribution is the published Eq. (4), and every inter-cluster message is charged
//! the concentrator/dispatcher wait of Eqs. (33)–(34). The source queue's service
//! time always carries the Draper–Ghosh variance of Eq. (22).
//!
//! One choice remains: the routing discipline the torus model assumes (the scenario
//! layer selects the adaptive one for adaptive torus specs). The tree model reads no
//! option.

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

/// The settable choices of the analytical model; the default reproduces the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelOptions {
    /// Routing discipline of the torus model (ignored by the tree model, whose
    /// deterministic NCA loads also describe randomized up*/down* routing in
    /// the mean — randomization only redistributes load across symmetric
    /// channels of the same network).
    pub torus_routing: TorusRouting,
}

impl ModelOptions {
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
        assert_eq!(o.torus_routing, TorusRouting::Deterministic);
    }

    #[test]
    fn builders_flip_the_right_flags() {
        let o = ModelOptions::default().with_adaptive_torus(2);
        assert_eq!(o.torus_routing, TorusRouting::AdaptiveMinimal { adaptive_vcs: 2 });
    }
}
