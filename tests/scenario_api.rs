//! Pins the Scenario API redesign: scenario-driven runs are frozen bit-for-bit
//! against golden digests and latency bit patterns captured from the legacy
//! `run_*` entry points before those wrappers were deleted, and every spec file
//! under `specs/` must round-trip through JSON and execute at quick protocol.

use mcnet::sim::{Protocol, Scenario, ScenarioSpec, SimConfig, SimError};
use mcnet::system::{organizations, TorusSystem, TrafficConfig};

const SPECS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");

fn spec_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(SPECS_DIR)
        .expect("specs/ directory exists at the workspace root")
        .map(|entry| entry.expect("readable specs/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "specs/ must keep its exemplars, found {files:?}");
    files
}

/// Golden values captured from the legacy `run_simulation` tree entry point at
/// these exact seeds before the wrapper was deleted. The delivery-stream digest
/// covers every (message id, class, delivery time) tuple; the latency bit
/// pattern freezes the aggregation arithmetic.
const TREE_GOLDENS: [(u64, u64, u64); 3] = [
    (1, 2697319415182810220, 0x40254007939692b6),
    (77, 16373449751557016651, 0x4025663985b2ac4f),
    (2006, 11172979118901272723, 0x40257022701ce6a5),
];

/// Same capture for the legacy `run_torus_simulation` entry point.
const TORUS_GOLDENS: [(u64, u64, u64); 2] =
    [(1, 15619143940259837087, 0x4023233d85c9d326), (77, 3540338484076490753, 0x402329825345cd2a)];

#[test]
fn scenario_run_matches_the_frozen_tree_goldens_bit_for_bit() {
    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    for (seed, digest, mean_bits) in TREE_GOLDENS {
        let report = Scenario::builder()
            .tree(system.clone())
            .traffic(traffic)
            .config(SimConfig::quick(seed))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.digest, digest, "seed {seed}");
        assert_eq!(report.mean_latency.to_bits(), mean_bits, "seed {seed}");
        assert_eq!(report.measured_messages, 2000, "seed {seed}");
        assert_eq!(report.delivered_messages, report.generated_messages, "seed {seed}");
        assert_eq!(report.routing, "deterministic", "seed {seed}");
    }
}

#[test]
fn scenario_run_matches_the_frozen_torus_goldens_bit_for_bit() {
    let torus = TorusSystem::new(4, 2).unwrap();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    for (seed, digest, mean_bits) in TORUS_GOLDENS {
        let report = Scenario::builder()
            .torus(torus.clone())
            .traffic(traffic)
            .config(SimConfig::quick(seed))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.digest, digest, "seed {seed}");
        assert_eq!(report.mean_latency.to_bits(), mean_bits, "seed {seed}");
        assert_eq!(report.measured_messages, 2000, "seed {seed}");
        assert_eq!(report.delivered_messages, report.generated_messages, "seed {seed}");
    }
}

#[test]
fn scenario_replicate_matches_the_frozen_replication_goldens() {
    // The replication driver fans seeds base..base+n over worker threads and
    // aggregates in replication order; these values were captured from the
    // legacy `run_replications`/`run_torus_replications` drivers at seed 42.
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let config = SimConfig::quick(42);

    let rep = Scenario::builder()
        .tree(organizations::small_test_org())
        .traffic(traffic)
        .config(config)
        .build()
        .unwrap()
        .replicate(3)
        .unwrap();
    assert_eq!(rep.mean_latency.to_bits(), 0x402581cc36d88395);
    assert_eq!(rep.halfwidth_95.unwrap().to_bits(), 0x3fad025712e9576b);
    assert_eq!(
        rep.replications.iter().map(|r| r.digest).collect::<Vec<_>>(),
        [5662518630029268569, 17143435895695001086, 5295411615315801976]
    );

    let rep = Scenario::builder()
        .torus(TorusSystem::new(4, 2).unwrap())
        .traffic(traffic)
        .config(config)
        .build()
        .unwrap()
        .replicate(3)
        .unwrap();
    assert_eq!(rep.mean_latency.to_bits(), 0x4023214428ee51ae);
    assert_eq!(rep.halfwidth_95.unwrap().to_bits(), 0x3f9e6cd1d1cf39ba);
    assert_eq!(
        rep.replications.iter().map(|r| r.digest).collect::<Vec<_>>(),
        [16739608433485872978, 16455721171644410621, 4864989507515034663]
    );
}

#[test]
fn every_spec_exemplar_round_trips_and_runs_at_quick_protocol() {
    for path in spec_files() {
        // `from_json_file` so the trace-replay exemplar's relative trace path
        // anchors to specs/ regardless of the test binary's working directory.
        let spec = ScenarioSpec::from_json_file(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // serialize → deserialize → the same spec.
        let round_tripped = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round_tripped, spec, "{} drifted through JSON", path.display());
        // build → run at quick protocol (CI runs the same spec set through the
        // `scenario` bin; this is the in-process equivalent).
        let scenario = spec
            .clone()
            .with_protocol(Protocol::Quick)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(scenario.name(), spec.name);
        let outcome = scenario.execute().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(outcome.mean_latency() > 0.0, "{}", path.display());
    }
}

#[test]
fn spec_exemplars_cover_both_fabrics_and_a_non_uniform_pattern() {
    let specs: Vec<ScenarioSpec> = spec_files()
        .iter()
        .map(|p| ScenarioSpec::from_json(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"paper_tree_org_b"), "{names:?}");
    assert!(names.contains(&"torus_8ary_2cube"), "{names:?}");
    assert!(names.contains(&"hotspot_small_tree"), "{names:?}");
    assert!(names.contains(&"torus_hotspot_4ary"), "{names:?}");
    assert!(specs.iter().any(|s| !s.traffic.pattern.is_uniform()));
    // Both non-deterministic routing policies ship as exemplars.
    assert!(names.contains(&"torus_8ary_adaptive"), "{names:?}");
    assert!(names.contains(&"tree_updown_random"), "{names:?}");
    let routings: Vec<&str> = specs.iter().map(|s| s.routing.spec_name()).collect();
    assert!(routings.contains(&"adaptive_torus"), "{routings:?}");
    assert!(routings.contains(&"randomized_updown"), "{routings:?}");
}

/// Exemplars that sit past the model's saturation rate on purpose: they pin
/// the engine's saturated path (the source-queue backlog outgrowing the
/// network), so the model must call them saturated.
const PAST_SATURATION: &[&str] = &["tree_saturated.json"];

#[test]
fn every_spec_exemplar_evaluates_analytically() {
    // One spec drives either world: each exemplar must also go through the
    // analytical model (Scenario::evaluate) with a steady state at its own
    // configured load — every shipped spec sits in the validated region,
    // except the deliberately saturated ones, which the model must reject.
    for path in spec_files() {
        let spec = ScenarioSpec::from_json_file(&path).unwrap();
        if PAST_SATURATION.iter().any(|name| path.ends_with(name)) {
            let outcome = spec.build().unwrap().evaluate();
            assert!(
                matches!(outcome, Err(SimError::ModelSaturated { .. })),
                "{}: must lie past the model's saturation rate, got {outcome:?}",
                path.display()
            );
            continue;
        }
        let report =
            spec.build().unwrap().evaluate().unwrap_or_else(|e| {
                panic!("{}: analytical evaluation failed: {e}", path.display())
            });
        assert!(report.mean_latency > 0.0, "{}", path.display());
        assert!(report.max_channel_utilization < 1.0, "{}", path.display());
        // The backend kind matches the fabric kind in the spec.
        let is_torus = matches!(spec.fabric, mcnet::sim::scenario::FabricSpec::Torus { .. });
        assert_eq!(report.backend_kind() == "torus", is_torus, "{}", path.display());
    }
}

#[test]
fn invalid_specs_are_rejected_with_typed_errors() {
    // Zero rate: parses, fails to build.
    let mut spec = ScenarioSpec::from_json(
        &std::fs::read_to_string(format!("{SPECS_DIR}/torus_8ary.json")).unwrap(),
    )
    .unwrap();
    spec.traffic.generation_rate = 0.0;
    assert!(matches!(spec.build(), Err(SimError::InvalidConfiguration { .. })));
    // Empty geometry: typed spec error, not a panic.
    let empty = r#"{
        "name": "empty", "fabric": {"kind": "tree", "groups": []},
        "traffic": {"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3},
        "protocol": "quick", "seed": 1, "replications": 1
    }"#;
    let parsed = ScenarioSpec::from_json(empty).unwrap();
    assert!(matches!(parsed.build(), Err(SimError::InvalidSpec { .. })));
    // Garbage documents: typed parse errors.
    assert!(matches!(ScenarioSpec::from_json("{ not json"), Err(SimError::InvalidSpec { .. })));
}

#[test]
fn adaptive_routing_beyond_eight_dimensions_fails_at_build() {
    // The engine routes adaptively on at most 8 torus dimensions. A spec past
    // that must fail at build, like every other invalid spec, and not first
    // when an engine is built for it.
    let spec = |dimensions: usize| {
        ScenarioSpec::from_json(&format!(
            r#"{{
                "name": "adaptive_{dimensions}d",
                "fabric": {{"kind": "torus", "radix": 2, "dimensions": {dimensions}}},
                "traffic": {{"message_flits": 8, "flit_bytes": 256.0, "generation_rate": 1e-3}},
                "protocol": "quick", "seed": 1, "replications": 1,
                "routing": {{"policy": "adaptive_torus", "adaptive_vcs": 2}}
            }}"#
        ))
        .unwrap()
    };
    assert!(spec(8).build().is_ok());
    let err = spec(9).build().unwrap_err();
    assert!(matches!(err, SimError::InvalidConfiguration { .. }), "{err:?}");
    assert!(err.to_string().contains("at most 8 dimensions"), "{err}");
}
