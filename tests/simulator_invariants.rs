//! Integration tests of the discrete-event simulator against analytically known
//! results and conservation invariants.

use mcnet::sim::{Scenario, SimConfig, SimReport};
use mcnet::system::{
    organizations, ClusterSpec, MultiClusterSystem, TrafficConfig, TrafficPattern,
};

/// Builds the scenario every test in this file runs: one tree system, one
/// traffic point, one protocol.
fn scenario(system: &MultiClusterSystem, traffic: &TrafficConfig, cfg: &SimConfig) -> Scenario {
    Scenario::builder()
        .tree(system.clone())
        .traffic(*traffic)
        .config(*cfg)
        .build()
        .expect("valid scenario")
}

fn run(system: &MultiClusterSystem, traffic: &TrafficConfig, cfg: &SimConfig) -> SimReport {
    scenario(system, traffic, cfg).run().expect("simulation runs")
}

#[test]
fn zero_contention_latency_matches_closed_form() {
    // A two-cluster system with single-switch clusters at a vanishing load: every
    // latency component is known in closed form.
    //   intra (same switch):  2·t_cn header + (M-1)·t_cn drain
    //   inter:                (ascent 1 + bridge + ICN2 2·h + bridge + descent 1)
    //                         channel crossings + (M-1)·t_cs drain
    let system = MultiClusterSystem::new(vec![ClusterSpec::new(4, 1).unwrap(); 2]).unwrap();
    let flits = 4usize;
    let traffic = TrafficConfig::uniform(flits, 256.0, 1e-7).unwrap();
    let cfg = SimConfig {
        warmup_messages: 10,
        measured_messages: 300,
        drain_messages: 10,
        seed: 9,
        max_events: 10_000_000,
    };
    let report = run(&system, &traffic, &cfg);

    let t_cn = 0.276;
    let t_cs = 0.522;
    let intra_expected = 2.0 * t_cn + (flits as f64 - 1.0) * t_cn;
    // ICN2 for C=2, m=4 is a single-level tree. Inter path: ECN1 injection (t_cn),
    // concentrator bridge (t_cs), ICN2 injection + ejection (the concentrators are the
    // "nodes" of ICN2, so both are t_cn), dispatcher bridge (t_cs), ECN1 ejection
    // (t_cn) — then the (M-1)-flit drain at the bottleneck rate t_cs.
    let inter_expected = 4.0 * t_cn + 2.0 * t_cs + (flits as f64 - 1.0) * t_cs;

    assert!(
        (report.intra.mean - intra_expected).abs() < 0.02,
        "intra {} vs expected {}",
        report.intra.mean,
        intra_expected
    );
    assert!(
        (report.inter.mean - inter_expected).abs() < 0.05,
        "inter {} vs expected {}",
        report.inter.mean,
        inter_expected
    );
}

#[test]
fn message_conservation_and_class_split() {
    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let report = run(&system, &traffic, &SimConfig::quick(21));
    // Every measured message is either intra or inter; nothing is lost.
    assert_eq!(report.intra.count + report.inter.count, report.measured_messages);
    assert_eq!(report.measured_messages, 2_000);
    // With uniform destinations the inter fraction approximates the mean outgoing
    // probability of the system (weighted by nodes): for the small org P_o ≈ 0.6–0.9.
    let inter_fraction = report.inter.count as f64 / report.measured_messages as f64;
    let expected: f64 = (0..system.num_clusters())
        .map(|i| system.cluster_weight(i).unwrap() * system.outgoing_probability(i).unwrap())
        .sum();
    assert!(
        (inter_fraction - expected).abs() < 0.05,
        "inter fraction {inter_fraction} vs expected {expected}"
    );
}

#[test]
fn fixed_seed_runs_are_bit_identical() {
    // Determinism contract of the interned route table and the bounded worker
    // pool: for a fixed seed, repeated runs — standalone or fanned over the
    // replication pool — produce bit-identical statistics. Route interning is
    // lazy, so two runs materialise arena entries in the same (RNG-driven)
    // order; the pool assigns seeds and aggregates by replication index, so
    // thread interleaving cannot perturb the aggregate either.
    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let cfg = SimConfig::quick(77);

    let a = run(&system, &traffic, &cfg);
    let b = run(&system, &traffic, &cfg);
    assert_eq!(a.mean_latency.to_bits(), b.mean_latency.to_bits());
    assert_eq!(a.latency_std_dev.to_bits(), b.latency_std_dev.to_bits());
    assert_eq!(a.max_latency.to_bits(), b.max_latency.to_bits());
    assert_eq!(a.events, b.events);
    assert_eq!(a.simulated_time.to_bits(), b.simulated_time.to_bits());

    let r1 = scenario(&system, &traffic, &cfg).replicate(3).unwrap();
    let r2 = scenario(&system, &traffic, &cfg).replicate(3).unwrap();
    assert_eq!(r1.mean_latency.to_bits(), r2.mean_latency.to_bits());
    assert_eq!(
        r1.halfwidth_95.expect("3 replications give a CI").to_bits(),
        r2.halfwidth_95.expect("3 replications give a CI").to_bits()
    );
    // The pool's replication 0 (seed 77) equals the standalone run with seed 77.
    assert_eq!(r1.replications[0].mean_latency.to_bits(), a.mean_latency.to_bits());
}

#[test]
fn fixed_seed_golden_values_are_pinned() {
    // Regression tripwire for the engine's observable behaviour, pinned at the
    // route-interning + lazy-release refactor (PR 1; see PERFORMANCE.md). The
    // pre-refactor engine no longer exists to compare against, so this golden
    // run is the testable form of "engine results did not drift": any future
    // change to event scheduling, hand-off order or route construction that
    // alters results must consciously update these constants (and justify the
    // change), rather than slipping through as noise. Values are bit-stable
    // across debug and release profiles.
    //
    // Swapping the future-event list's internals or compacting the message
    // lifecycle passes these constants unchanged: the event queue pops in
    // (time, seq) order by contract (tests/event_queue_props.rs), the arrival
    // queue preserves the RNG draw order, and retiring delivered messages
    // does not touch scheduling — so even the event count is bit-stable.
    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let r = run(&system, &traffic, &SimConfig::quick(77));
    assert_eq!(r.mean_latency.to_bits(), 0x4025663985b2ac4f, "mean_latency {}", r.mean_latency);
    assert_eq!(r.events, 21887);
    assert_eq!(r.generated_messages, 2400);
    // The delivered-stream digest pins the full delivery order and timing, a
    // far stronger tripwire than the mean alone. Pinned at the fault-injection
    // PR: a fault-free run must keep this digest bit-for-bit, with the fault
    // machinery completely inert.
    assert_eq!(r.digest, 0xe33a2dcc7d438c4b, "digest {:016x}", r.digest);
    assert_eq!(r.delivered_messages, r.generated_messages);
    assert_eq!(r.retransmits, 0);
    assert_eq!(r.dropped_messages, 0);
    assert!(r.time_series.is_empty(), "no fault plan, no degradation time series");
}

#[test]
fn replications_tighten_the_confidence_interval() {
    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let few = scenario(&system, &traffic, &SimConfig::quick(1)).replicate(2).unwrap();
    let many = scenario(&system, &traffic, &SimConfig::quick(1)).replicate(6).unwrap();
    assert_eq!(few.replications.len(), 2);
    assert_eq!(many.replications.len(), 6);
    // Same seeds prefix => the first two replications are identical across calls.
    assert_eq!(
        few.replications[0].mean_latency.to_bits(),
        many.replications[0].mean_latency.to_bits()
    );
    let few_hw = few.halfwidth_95.expect("2 replications give a CI");
    let many_hw = many.halfwidth_95.expect("6 replications give a CI");
    assert!(many_hw <= few_hw * 1.5 + 1e-9);
}

#[test]
fn hotspot_traffic_is_slower_than_uniform() {
    let system = organizations::small_test_org();
    let uniform = TrafficConfig::uniform(16, 256.0, 2e-3).unwrap();
    // A 0.6 hotspot fraction keeps the latency gap well clear of sampling noise
    // at the quick protocol's 2k measured messages; milder fractions (0.4) sit
    // within seed-to-seed noise on this small system.
    let hotspot =
        uniform.with_pattern(TrafficPattern::Hotspot { hotspot: 0, fraction: 0.6 }).unwrap();
    let u = run(&system, &uniform, &SimConfig::quick(31));
    let h = run(&system, &hotspot, &SimConfig::quick(31));
    assert!(
        h.mean_latency > u.mean_latency,
        "hotspot {} should exceed uniform {}",
        h.mean_latency,
        u.mean_latency
    );
}

#[test]
fn local_traffic_is_faster_than_uniform() {
    let system = organizations::medium_org();
    let uniform = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let local = uniform.with_pattern(TrafficPattern::LocalFavoring { locality: 0.9 }).unwrap();
    let u = run(&system, &uniform, &SimConfig::quick(41));
    let l = run(&system, &local, &SimConfig::quick(41));
    assert!(
        l.mean_latency < u.mean_latency,
        "local {} should be below uniform {}",
        l.mean_latency,
        u.mean_latency
    );
}

#[test]
fn larger_messages_take_longer_in_simulation() {
    let system = organizations::small_test_org();
    let small = TrafficConfig::uniform(8, 256.0, 5e-4).unwrap();
    let large = TrafficConfig::uniform(32, 256.0, 5e-4).unwrap();
    let s = run(&system, &small, &SimConfig::quick(51));
    let l = run(&system, &large, &SimConfig::quick(51));
    assert!(l.mean_latency > 2.0 * s.mean_latency);
}

#[test]
fn paper_org_a_simulates_end_to_end_at_low_load() {
    // The full 1120-node organization runs (with a reduced message budget) and produces
    // sane latencies: above the zero-load bound, below the saturation regime.
    let system = organizations::table1_org_a();
    let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
    let report = run(&system, &traffic, &SimConfig::quick(61));
    assert!(report.mean_latency > 20.0, "latency {}", report.mean_latency);
    assert!(report.mean_latency < 500.0, "latency {}", report.mean_latency);
    assert!(report.contention_ratio < 0.5);
}
