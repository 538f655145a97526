//! Every exemplar spec under `specs/` is pinned: each `specs/*.json` runs once
//! at the quick protocol (one replication, the spec's own seed) and its run
//! digest must equal the entry in `specs/goldens/digests.json`. A new spec
//! without a pin fails here, as does a pin whose spec is gone.
//!
//! The same runs audit the engine (`Simulation::audit`: conservation,
//! channel holders and waiters, the waiter arena and the route arena). The
//! specs cover deterministic, randomized and adaptive routing, with and
//! without faults and past saturation, and after every completed run each
//! message's route region must be back on a free list.

use std::collections::BTreeMap;
use std::path::Path;

use mcnet::sim::json::Json;
use mcnet::sim::{Protocol, ScenarioOutcome, ScenarioSpec};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn pinned_digests() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(format!("{ROOT}/specs/goldens/digests.json"))
        .expect("goldens file exists");
    let doc = Json::parse(&text).expect("goldens parse");
    doc.as_object().unwrap()["digests"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(spec, digest)| (spec.clone(), digest.as_str().expect("digest is a string").into()))
        .collect()
}

/// Repository-relative paths of every spec file, in name order.
fn spec_files() -> Vec<String> {
    let mut specs: Vec<String> = std::fs::read_dir(format!("{ROOT}/specs"))
        .expect("specs directory exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .map(|name| format!("specs/{name}"))
        .collect();
    specs.sort();
    specs
}

#[test]
fn every_spec_reproduces_its_pinned_digest() {
    let pins = pinned_digests();
    let specs = spec_files();
    let mut failures = Vec::new();
    for rel in &specs {
        let mut spec = ScenarioSpec::from_json_file(&Path::new(ROOT).join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .with_protocol(Protocol::Quick);
        spec.replications = 1;
        let scenario = spec.build().unwrap_or_else(|e| panic!("{rel}: {e}"));
        // Two runs on one engine: the second reuses the first run's regions.
        let mut engine = None;
        let mut digests = Vec::new();
        for _ in 0..2 {
            let report = match scenario.execute_reusing(&mut engine) {
                Ok(ScenarioOutcome::Single(report)) => report,
                Ok(ScenarioOutcome::Replicated(_)) => panic!("{rel}: one replication was asked"),
                Err(e) => panic!("{rel}: {e}"),
            };
            digests.push(format!("{:016x}", report.digest));
            let engine = engine.as_ref().expect("a completed run keeps its engine");
            let routes = engine.routes();
            assert_eq!(routes.live_scratch_routes(), 0, "{rel}: route regions outlived the run");
            if let Err(e) = engine.audit() {
                panic!("{rel}: {e}");
            }
        }
        assert_eq!(digests[0], digests[1], "{rel}: a reused engine moved the digest");
        let digest = digests.swap_remove(0);
        match pins.get(rel) {
            None => failures.push(format!("{rel}: no pin (digest {digest})")),
            Some(pin) if *pin != digest => {
                failures.push(format!("{rel}: digest {digest} moved from its pin {pin}"))
            }
            Some(_) => {}
        }
    }
    for rel in pins.keys().filter(|rel| !specs.contains(rel)) {
        failures.push(format!("{rel}: pinned but no such spec"));
    }
    assert!(failures.is_empty(), "spec goldens:\n{}", failures.join("\n"));
}

/// Past the knee the source-queue backlog outgrows the network, but it waits
/// as compact records: only messages granted their injection channel hold a
/// route region, so the region peak stays within the channel count while the
/// in-flight peak (network plus backlog) exceeds it.
#[test]
fn saturated_backlog_holds_no_route_regions() {
    let rel = "specs/tree_saturated.json";
    let scenario =
        ScenarioSpec::from_json_file(&Path::new(ROOT).join(rel)).unwrap().build().unwrap();
    let mut engine = None;
    scenario.execute_reusing(&mut engine).unwrap();
    let engine = engine.expect("a completed run keeps its engine");
    let (regions, channels) = (engine.routes().peak_scratch_routes(), engine.pool().len());
    assert!(regions <= channels, "{regions} route regions at peak for {channels} channels");
    assert!(
        channels < engine.peak_in_flight(),
        "{rel} must saturate: peak in flight {} within {channels} channels",
        engine.peak_in_flight()
    );
}
