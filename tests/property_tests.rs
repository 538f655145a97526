//! Property-based tests over the core invariants of the topology, model and simulator
//! crates, using randomly generated (but always valid) configurations.

use mcnet::model::source_queue::{self, SourceQueueInput, SourceQueueKind};
use mcnet::model::{AnalyticalModel, ModelError};
use mcnet::sim::routes::RouteTable;
use mcnet::sim::FabricBackend;
use mcnet::system::{ClusterSpec, MultiClusterSystem, TrafficConfig};
use mcnet::topology::distance::HopDistribution;
use mcnet::topology::routing::NcaRouter;
use mcnet::topology::{KaryNCube, MPortNTree, NodeId};
use proptest::prelude::*;

/// Strategy for valid (m, n) tree parameters kept small enough for exhaustive checks.
fn tree_params() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=4, 1usize..=4)
        .prop_map(|(half, n)| (2 * half, n))
        .prop_filter("keep trees small", |(m, n)| MPortNTree::node_count(*m, *n) <= 256)
}

/// Strategy for small heterogeneous systems.
fn system_params() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..=3, 2..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_counts_follow_eqs_1_and_2((m, n) in tree_params()) {
        let tree = MPortNTree::new(m, n).unwrap();
        let k = m / 2;
        prop_assert_eq!(tree.num_nodes(), 2 * k.pow(n as u32));
        prop_assert_eq!(tree.num_switches(), (2 * n - 1) * k.pow((n - 1) as u32));
        // Port budget: no switch uses more than m ports.
        for sw in tree.switches() {
            prop_assert!(tree.graph().used_ports(sw) <= m);
        }
    }

    #[test]
    fn routes_have_length_2j_and_are_symmetric((m, n) in tree_params(), seed in 0u64..1000) {
        let tree = MPortNTree::new(m, n).unwrap();
        let router = NcaRouter::new(&tree);
        let nodes = tree.num_nodes();
        let src = NodeId::from_index((seed as usize) % nodes);
        let dst = NodeId::from_index((seed as usize * 7 + 1) % nodes);
        if src != dst {
            let j = tree.hop_count(src, dst).unwrap();
            prop_assert_eq!(tree.hop_count(dst, src).unwrap(), j);
            let path = router.route(src, dst).unwrap();
            prop_assert_eq!(path.num_links(), 2 * j);
            prop_assert!(j <= n);
        }
    }

    #[test]
    fn hop_distributions_are_proper((m, n) in tree_params()) {
        let dist = HopDistribution::paper(m, n).unwrap();
        let sum: f64 = dist.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(dist.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)));
        let d = dist.average_distance();
        prop_assert!(d >= 2.0 - 1e-9 && d <= 2.0 * n as f64 + 1e-9);
    }

    #[test]
    fn mg1_waiting_time_is_nonnegative_and_monotone_in_load(
        latency in 0.1f64..100.0,
        minimum_fraction in 0.0f64..1.0,
        rho1 in 0.05f64..0.45,
        rho2 in 0.5f64..0.95,
    ) {
        // A source queue with service mean S and Draper–Ghosh σ = S − M·t_cn.
        let wait = |rho: f64| {
            let input = SourceQueueInput {
                kind: SourceQueueKind::Injection,
                per_node_rate: rho / latency,
                network_latency: latency,
                minimum_latency: minimum_fraction * latency,
                cluster: None,
            };
            source_queue::waiting_time(&input).unwrap()
        };
        let (low, high) = (wait(rho1), wait(rho2));
        prop_assert!(low >= 0.0);
        prop_assert!(high > low);
    }

    #[test]
    fn model_latency_is_positive_and_monotone_in_load(levels in system_params()) {
        let clusters: Vec<ClusterSpec> =
            levels.iter().map(|&n| ClusterSpec::new(4, n).unwrap()).collect();
        let system = MultiClusterSystem::new(clusters).unwrap();
        let low = TrafficConfig::uniform(16, 256.0, 5e-5).unwrap();
        let high = TrafficConfig::uniform(16, 256.0, 4e-4).unwrap();
        let eval = |t: &TrafficConfig| -> Option<f64> {
            AnalyticalModel::new(&system, t).unwrap().total_latency()
        };
        let l_low = eval(&low);
        let l_high = eval(&high);
        // Low load must always be evaluable on these small systems.
        prop_assert!(l_low.is_some());
        let l_low = l_low.unwrap();
        prop_assert!(l_low > 0.0);
        if let Some(l_high) = l_high {
            prop_assert!(l_high > l_low);
        }
    }

    #[test]
    fn route_table_matches_fresh_paths_on_random_systems(levels in system_params()) {
        // The composed RouteTable itinerary of every (src, dst) pair — channels,
        // bottleneck and clusters — must equal a freshly computed
        // Fabric::build_path. Together with the fixed RNG stream this guarantees
        // the engine's behaviour is identical to per-message route construction.
        let clusters: Vec<ClusterSpec> =
            levels.iter().map(|&n| ClusterSpec::new(4, n).unwrap()).collect();
        let system = MultiClusterSystem::new(clusters).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
        let backend = FabricBackend::tree(&system, &traffic).unwrap();
        let mut table = RouteTable::build(&backend).unwrap();
        let n = system.total_nodes();
        // Visit every pair, rotating each row's start so composition is
        // exercised off the natural row-major path.
        for s in 0..n {
            for k in 0..n {
                let d = (s * 13 + k) % n;
                if s == d {
                    continue;
                }
                let fresh = backend.build_path(s, d).unwrap();
                let composed = table.itinerary(&backend, s, d).unwrap();
                prop_assert_eq!(&composed.channels, &fresh.channels, "{}->{}", s, d);
                prop_assert_eq!(composed.src_cluster, fresh.src_cluster);
                prop_assert_eq!(composed.dst_cluster, fresh.dst_cluster);
                prop_assert!((composed.bottleneck - fresh.bottleneck).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn saturation_is_an_error_not_a_wrong_number(levels in system_params()) {
        let clusters: Vec<ClusterSpec> =
            levels.iter().map(|&n| ClusterSpec::new(4, n).unwrap()).collect();
        let system = MultiClusterSystem::new(clusters).unwrap();
        // An absurd load is always saturated.
        let traffic = TrafficConfig::uniform(64, 512.0, 1.0).unwrap();
        let result = AnalyticalModel::new(&system, &traffic).unwrap().evaluate();
        let saturated = matches!(result, Err(ModelError::Saturated { .. }));
        prop_assert!(saturated, "expected a saturation error");
    }

    #[test]
    fn adaptive_torus_candidates_are_minimal_and_escape_reachable(
        k in 2usize..=8,
        n in 1usize..=3,
        seed in 0u64..1000,
    ) {
        let cube = KaryNCube::new(k, n).unwrap();
        let nodes = k.pow(n as u32);
        let src_idx = (seed as usize) % nodes;
        let src = NodeId::from_index(src_idx);
        // Offset by 1..nodes-1 so the pair is always distinct.
        let dst = NodeId::from_index((src_idx + 1 + (seed as usize * 13) % (nodes - 1)) % nodes);
        // Walk from src to dst taking, at every position, an arbitrary
        // (seed-rotated) candidate. Every candidate must be minimal — reduce
        // the distance by exactly one — and the first candidate must be the
        // dimension-order hop, whose dateline escape VC definition keeps the
        // escape class reachable from any intermediate node.
        let mut cur = src;
        let mut hops = Vec::new();
        let mut steps = 0usize;
        while cur != dst {
            let before = cube.distance(cur, dst).unwrap();
            hops.clear();
            cube.adaptive_hops(cur, dst, &mut hops).unwrap();
            prop_assert!(!hops.is_empty(), "non-degenerate pair must have candidates");
            // hops[0] is the dimension-order hop: lowest unresolved dimension.
            let dor_dim = hops[0].dimension;
            prop_assert!(hops.iter().all(|h| h.dimension >= dor_dim));
            for hop in &hops {
                let after = cube.distance(hop.node, dst).unwrap();
                prop_assert_eq!(after + 1, before, "candidate must be minimal");
            }
            // The escape route (pure dimension-order from here) exists and is
            // exactly `before` hops long.
            let mut escape = Vec::new();
            cube.route_into(cur, dst, &mut escape).unwrap();
            prop_assert_eq!(escape.len(), before);
            // Advance through a seed-dependent candidate.
            let pick = (seed as usize + steps) % hops.len();
            cur = hops[pick].node;
            steps += 1;
            prop_assert!(steps <= n * k, "minimal progress must terminate");
        }
    }
}
