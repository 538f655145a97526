//! Integration tests of the k-ary n-cube (torus) backend: route-composition
//! equivalence against the topology-level router, fixed-seed determinism and
//! engine invariants — the torus counterparts of `simulator_invariants.rs`.

use mcnet::sim::engine::Simulation;
use mcnet::sim::routes::RouteTable;
use mcnet::sim::{FabricBackend, RoutingPolicy, Scenario, SimConfig, SimReport, TrafficSourceSpec};
use mcnet::system::{TorusSystem, TrafficConfig};
use mcnet::topology::NodeId;

fn quick(seed: u64) -> SimConfig {
    SimConfig::quick(seed)
}

/// Builds the torus scenario the tests in this file run.
fn scenario(torus: &TorusSystem, traffic: &TrafficConfig, cfg: &SimConfig) -> Scenario {
    Scenario::builder()
        .torus(torus.clone())
        .traffic(*traffic)
        .config(*cfg)
        .build()
        .expect("valid scenario")
}

fn run(torus: &TorusSystem, traffic: &TrafficConfig, cfg: &SimConfig) -> SimReport {
    scenario(torus, traffic, cfg).run().expect("simulation runs")
}

#[test]
fn composed_routes_match_kary_ncube_routing_for_all_pairs() {
    // For every (src, dst) pair of a small torus the RouteTable's composed
    // itinerary must equal the per-message computation channel-by-channel:
    // the injection channel, then exactly one link channel per
    // `KaryNCube::route` hop (on a virtual channel of that hop's physical
    // link), then the ejection channel — and be identical to a fresh
    // `build_path`, both as an owned itinerary and in a region of the arena.
    for (k, n) in [(4usize, 2usize), (3, 2), (2, 3)] {
        let torus = TorusSystem::new(k, n).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        let backend = FabricBackend::cube(&torus, &traffic).unwrap();
        let fabric = backend.as_cube().unwrap();
        let cube = fabric.cube();
        let mut table = RouteTable::build(&backend).unwrap();
        let nodes = torus.total_nodes();
        let mut lengths = std::collections::BTreeSet::new();
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    assert!(table.itinerary(&backend, src, dst).is_err());
                    continue;
                }
                let composed = table.itinerary(&backend, src, dst).unwrap();
                let fresh = backend.build_path(src, dst).unwrap();
                assert_eq!(composed.channels, fresh.channels, "k={k},n={n}: {src}->{dst}");
                assert!((composed.bottleneck - fresh.bottleneck).abs() < 1e-15);
                let entry = table.entry(&backend, src, dst);
                assert_eq!(table.channels(entry.route), &fresh.channels[..]);
                table.release_scratch(entry.route);
                lengths.insert(fresh.channels.len());

                let hops = cube.route(NodeId::from_index(src), NodeId::from_index(dst)).unwrap();
                assert_eq!(composed.channels.len(), hops.len() + 2);
                assert_eq!(composed.channels[0], fabric.injection(src));
                assert_eq!(*composed.channels.last().unwrap(), fabric.ejection(dst));
                let mut from = src;
                for (i, hop) in hops.iter().enumerate() {
                    let channel = composed.channels[i + 1];
                    let allowed: Vec<_> = (0..fabric.virtual_channels())
                        .map(|vc| fabric.link_channel(from, hop, vc))
                        .collect();
                    assert!(
                        allowed.contains(&channel),
                        "k={k},n={n}: {src}->{dst} hop {i} uses channel {channel}, \
                         expected one of {allowed:?}"
                    );
                    from = hop.node.index();
                }
                assert_eq!(from, dst);
            }
        }
        // No pair is stored: each released region is reused by the next
        // route of its length, so the arena holds one region per length.
        assert_eq!(table.materialized_entries(), 0);
        assert_eq!(table.live_scratch_routes(), 0);
        assert_eq!(table.arena_len(), lengths.iter().sum::<usize>());
    }
}

#[test]
fn fixed_seed_torus_runs_are_bit_identical() {
    let torus = TorusSystem::new(4, 2).unwrap();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let cfg = quick(77);

    let a = run(&torus, &traffic, &cfg);
    let b = run(&torus, &traffic, &cfg);
    assert_eq!(a.mean_latency.to_bits(), b.mean_latency.to_bits());
    assert_eq!(a.latency_std_dev.to_bits(), b.latency_std_dev.to_bits());
    assert_eq!(a.max_latency.to_bits(), b.max_latency.to_bits());
    assert_eq!(a.events, b.events);
    assert_eq!(a.simulated_time.to_bits(), b.simulated_time.to_bits());

    // Replications share the deterministic seed/aggregation contract.
    let r1 = scenario(&torus, &traffic, &cfg).replicate(3).unwrap();
    let r2 = scenario(&torus, &traffic, &cfg).replicate(3).unwrap();
    assert_eq!(r1.mean_latency.to_bits(), r2.mean_latency.to_bits());
    assert_eq!(r1.replications[0].mean_latency.to_bits(), a.mean_latency.to_bits());
}

#[test]
fn fixed_seed_torus_golden_values_are_pinned() {
    // Golden regression tripwire for the torus backend, pinned at its
    // introduction (the fabric-backend abstraction PR): any future change to
    // channel numbering, VC selection, event scheduling or route composition
    // that alters torus results must consciously update these constants.
    // Swapping the future-event list's internals or compacting the message
    // lifecycle passes them unchanged — see the matching note in
    // simulator_invariants.rs.
    let torus = TorusSystem::new(4, 2).unwrap();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let r = run(&torus, &traffic, &quick(77));
    assert_eq!(r.generated_messages, 2400);
    assert_eq!(r.measured_messages, 2000);
    assert_eq!(r.mean_latency.to_bits(), GOLDEN_MEAN_LATENCY_BITS, "mean {}", r.mean_latency);
    assert_eq!(r.events, GOLDEN_EVENTS);
    assert_eq!(r.digest, GOLDEN_DIGEST, "digest {:016x}", r.digest);
    assert_eq!(r.retransmits, 0);
    assert_eq!(r.dropped_messages, 0);
    assert!(r.time_series.is_empty(), "no fault plan, no degradation time series");
}

/// Pinned observables of the torus scenario (`TorusSystem::new(4, 2)`, M=16
/// Lm=256 λ=1e-3, `SimConfig::quick(77)`). Bit-stable across debug and release.
/// The digest pins the full delivery stream (order, class and timing of every
/// delivered message), added with the fault-injection PR; fault-free runs must
/// not move it.
const GOLDEN_MEAN_LATENCY_BITS: u64 = 0x402329825345CD2A;
const GOLDEN_EVENTS: u64 = 14803;
const GOLDEN_DIGEST: u64 = 0x3121cf1800063001;

#[test]
fn fixed_seed_torus_hotspot_golden_is_pinned() {
    // Golden tripwire for the torus + hot-spot path, pinned at the
    // introduction of the analytical-layer refactor: it rides the
    // `specs/torus_hotspot.json` exemplar (at quick protocol), so it also
    // locks the spec file itself and the hotspot destination sampling on the
    // cube fabric. Any engine or spec change that shifts these constants must
    // update them consciously.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/specs/torus_hotspot.json"))
            .unwrap();
    let spec = mcnet::sim::ScenarioSpec::from_json(&text)
        .unwrap()
        .with_protocol(mcnet::sim::Protocol::Quick);
    let r = spec.build().unwrap().run().unwrap();
    assert_eq!(r.generated_messages, 2400);
    assert_eq!(r.measured_messages, 2000);
    assert_eq!(
        r.mean_latency.to_bits(),
        GOLDEN_HOTSPOT_MEAN_LATENCY_BITS,
        "mean {}",
        r.mean_latency
    );
    assert_eq!(r.events, GOLDEN_HOTSPOT_EVENTS);
    assert_eq!(r.digest, GOLDEN_HOTSPOT_DIGEST, "digest {:016x}", r.digest);
    // The hot sub-ring classification still holds: cross-ring messages travel
    // further and slower on average.
    assert!(r.inter.mean > r.intra.mean);
}

/// Pinned observables of `specs/torus_hotspot.json` at quick protocol
/// (4-ary 2-cube, M=16 Lm=256 λ=8e-3, hotspot node 5 f=0.2, seed 21).
const GOLDEN_HOTSPOT_MEAN_LATENCY_BITS: u64 = 0x4024A53FBAC0B57A;
const GOLDEN_HOTSPOT_EVENTS: u64 = 15208;
const GOLDEN_HOTSPOT_DIGEST: u64 = 0x9362c32ce10cc40e;

#[test]
fn torus_latency_increases_with_load_and_messages_conserve() {
    let torus = TorusSystem::new(4, 2).unwrap();
    let low_t = TrafficConfig::uniform(16, 256.0, 2e-4).unwrap();
    let high_t = TrafficConfig::uniform(16, 256.0, 3e-3).unwrap();
    let low = run(&torus, &low_t, &quick(5));
    let high = run(&torus, &high_t, &quick(5));
    assert!(
        high.mean_latency > low.mean_latency,
        "low={} high={}",
        low.mean_latency,
        high.mean_latency
    );
    for r in [&low, &high] {
        assert_eq!(r.intra.count + r.inter.count, r.measured_messages);
        assert_eq!(r.measured_messages, 2000);
    }
    // Messages crossing sub-rings travel further on average.
    assert!(low.inter.mean > low.intra.mean);
}

#[test]
fn torus_zero_load_latency_matches_closed_form() {
    // At a vanishing load there is no contention: a message crossing h links
    // takes t_cn (injection) + h·t_cs (links) + t_cn (ejection) for the header
    // plus (M−1)·t_cs drain. The shortest route has h = 1.
    let torus = TorusSystem::new(4, 2).unwrap();
    let flits = 4usize;
    let traffic = TrafficConfig::uniform(flits, 256.0, 1e-7).unwrap();
    let cfg = SimConfig {
        warmup_messages: 10,
        measured_messages: 300,
        drain_messages: 10,
        seed: 9,
        max_events: 10_000_000,
    };
    let report = run(&torus, &traffic, &cfg);
    let (t_cn, t_cs) = (0.276, 0.522);
    let min_possible = 2.0 * t_cn + 1.0 * t_cs + (flits as f64 - 1.0) * t_cs;
    // Longest dimension-order route on the 4-ary 2-cube crosses 4 links.
    let max_possible = 2.0 * t_cn + 4.0 * t_cs + (flits as f64 - 1.0) * t_cs + 1.0;
    assert!(report.mean_latency >= min_possible - 1e-9, "{}", report.mean_latency);
    assert!(report.max_latency <= max_possible, "{}", report.max_latency);
}

#[test]
fn torus_channels_all_free_after_drain() {
    let torus = TorusSystem::new(3, 2).unwrap();
    let traffic = TrafficConfig::uniform(8, 256.0, 2e-3).unwrap();
    let (policy, source) = (RoutingPolicy::Deterministic, TrafficSourceSpec::Poisson);
    let mut sim =
        Simulation::new_torus_full(&torus, &traffic, &quick(3), None, policy, &source).unwrap();
    sim.run().unwrap();
    assert_eq!(sim.stats().generated(), sim.stats().delivered());
    assert_eq!(sim.pool().busy_count(sim.now()), 0, "leaked channel occupancy");
    assert!(sim.backend().as_cube().is_some());
}

#[test]
fn adaptive_routing_beats_dimension_order_under_saturated_hotspot_load() {
    // The acceptance bar of the adaptive-routing refactor: on the paper-scale
    // 8-ary 2-cube, minimal-adaptive routing with Duato escape channels
    // sustains measurably higher delivered throughput than dimension order
    // once a hot spot saturates the fabric. At this load delivery is
    // drain-limited, so delivered messages per unit simulated time is the
    // achieved saturation throughput; spreading the hot-spot detour load over
    // every minimal candidate buys 4–7% across seeds (measured at quick
    // protocol), gated at >2% per seed.
    use mcnet::system::TrafficPattern;
    let torus = TorusSystem::new(8, 2).unwrap();
    let traffic = TrafficConfig::uniform(16, 256.0, 4e-2)
        .unwrap()
        .with_pattern(TrafficPattern::Hotspot { hotspot: 0, fraction: 0.2 })
        .unwrap();
    for seed in [1u64, 7, 42] {
        let throughput = |routing: RoutingPolicy| {
            let report = Scenario::builder()
                .torus(torus.clone())
                .traffic(traffic)
                .config(quick(seed))
                .routing(routing)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(report.delivered_messages, report.generated_messages, "seed {seed}");
            report.delivered_messages as f64 / report.simulated_time
        };
        let dor = throughput(RoutingPolicy::Deterministic);
        let adaptive = throughput(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 });
        assert!(
            adaptive > 1.02 * dor,
            "seed {seed}: adaptive throughput {adaptive:.5} not measurably above \
             dimension order {dor:.5}"
        );
    }
}
