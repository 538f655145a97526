//! # mcnet-bench
//!
//! Criterion benchmarks regenerating every table and figure of the paper's evaluation
//! plus the ablations listed in `DESIGN.md`. The benchmark *functions* live in
//! `benches/`; this library only provides the shared helpers they use so that each
//! bench file stays focused on its experiment.
//!
//! | bench target | paper artifact / ablation |
//! |---|---|
//! | `table1_organizations` | Table 1 |
//! | `fig3_n1120` | Fig. 3 (analytical sweep of both panels) |
//! | `fig4_n544` | Fig. 4 (analytical sweep of both panels) |
//! | `accuracy_error` | the accuracy claim (model vs simulation) |
//! | `ablation_heterogeneity` | A1: heterogeneous vs homogeneous organizations |
//! | `ablation_variance_approx` | A2: Draper–Ghosh variance term |
//! | `model_vs_sim_cost` | A3: model evaluation vs simulation cost |
//! | `topology_routing` | substrate: route construction throughput |
//! | `event_queue` | substrate: future-event list hold cost at depths 32 and 1,024 |
//! | `simulator_throughput` | substrate: event-processing throughput (tree backend) |
//! | `torus_throughput` | substrate: event-processing throughput (k-ary n-cube backend) |

#![warn(missing_docs)]

use mcnet_model::AnalyticalModel;
use mcnet_sim::{RoutingPolicy, Scenario, SimConfig};
use mcnet_system::{organizations, MultiClusterSystem, TorusSystem, TrafficConfig};

/// Evaluates the analytical model at one traffic point, returning the latency or
/// `None` when saturated — the common kernel most benches measure.
pub fn model_latency(system: &MultiClusterSystem, traffic: &TrafficConfig) -> Option<f64> {
    AnalyticalModel::new(system, traffic).ok()?.total_latency()
}

/// The traffic points (relative to a maximum rate) every figure bench sweeps.
pub fn sweep_fractions() -> [f64; 5] {
    [0.2, 0.4, 0.6, 0.8, 1.0]
}

/// Builds the uniform traffic configuration used by the benches.
pub fn traffic(message_flits: usize, flit_bytes: f64, rate: f64) -> TrafficConfig {
    TrafficConfig::uniform(message_flits, flit_bytes, rate).expect("valid bench traffic")
}

/// The named tree-backend throughput scenarios. `BENCH_results.json` entries
/// (and the CI regression gate) are keyed by these scenario names, so renaming
/// one is a conscious re-baselining act.
pub fn tree_throughput_scenarios() -> Vec<Scenario> {
    vec![
        throughput_scenario("tree_small_org", organizations::small_test_org(), 2e-3),
        throughput_scenario("tree_org_b", organizations::table1_org_b(), 3e-4),
    ]
}

/// The paper-protocol throughput scenarios: the same fabrics as the quick
/// rows, but under the full `SimConfig::paper` measurement protocol
/// (10k warm-up / 100k measured / 10k drain messages) — the workload the
/// figure driver actually runs at paper effort. Keyed in
/// `BENCH_results.json` as `scenario_throughput/paper_protocol/<name>`.
pub fn paper_throughput_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::builder()
            .name("tree_org_b")
            .tree(organizations::table1_org_b())
            .traffic(traffic(32, 256.0, 3e-4))
            .config(SimConfig::paper(1))
            .build()
            .expect("valid bench scenario"),
        Scenario::builder()
            .name("torus_8ary")
            .torus(TorusSystem::new(8, 2).expect("valid bench torus"))
            .traffic(traffic(32, 256.0, 1e-3))
            .config(SimConfig::paper(1))
            .build()
            .expect("valid bench scenario"),
    ]
}

/// The named torus-backend throughput scenarios (same engine over
/// `CubeFabric`, matched with [`tree_throughput_scenarios`]). The adaptive
/// 8-ary entry is the A/B twin of `torus_8ary_2cube`: the same geometry and
/// traffic through the adaptive-routing hot path (per-hop candidate
/// enumeration, scratch-arena routes, the isolated route RNG), so the cost of
/// adaptivity is one subtraction away in `BENCH_results.json`.
pub fn torus_throughput_scenarios() -> Vec<Scenario> {
    [
        ("torus_4ary_2cube", 4usize, 2usize, 2e-3, RoutingPolicy::Deterministic),
        ("torus_8ary_2cube", 8, 2, 1e-3, RoutingPolicy::Deterministic),
        ("torus_8ary_adaptive", 8, 2, 1e-3, RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 }),
    ]
    .into_iter()
    .map(|(name, k, n, rate, routing)| {
        Scenario::builder()
            .name(name)
            .torus(TorusSystem::new(k, n).expect("valid bench torus"))
            .traffic(traffic(32, 256.0, rate))
            .config(SimConfig::quick(1))
            .routing(routing)
            .build()
            .expect("valid bench scenario")
    })
    .collect()
}

fn throughput_scenario(name: &str, system: MultiClusterSystem, rate: f64) -> Scenario {
    Scenario::builder()
        .name(name)
        .tree(system)
        .traffic(traffic(32, 256.0, rate))
        .config(SimConfig::quick(1))
        .build()
        .expect("valid bench scenario")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;

    #[test]
    fn helpers_work() {
        let sys = organizations::table1_org_b();
        let t = traffic(32, 256.0, 1e-4);
        assert!(model_latency(&sys, &t).unwrap() > 0.0);
        assert_eq!(sweep_fractions().len(), 5);
        let saturated = traffic(32, 256.0, 1e-2);
        assert!(model_latency(&sys, &saturated).is_none());
    }

    #[test]
    fn throughput_scenarios_keep_their_bench_keys() {
        // BENCH_results.json entries and the CI gate are keyed by these names.
        let names: Vec<String> =
            tree_throughput_scenarios().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["tree_small_org", "tree_org_b"]);
        let names: Vec<String> =
            torus_throughput_scenarios().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["torus_4ary_2cube", "torus_8ary_2cube", "torus_8ary_adaptive"]);
    }
}
