//! End-to-end self-tests of the benchmark command: the printed metric names
//! equal those `BENCHMARK.json` declares; a different seed changes the
//! digest but not the metric set; the traced run emits spans for every layer.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use mcnet_sim::json::Json;

const WORKLOADS: [&str; 3] = ["fig4_paper", "campaign_screen", "torus_adaptive_faults"];
const LAYERS: [&str; 13] = [
    "scenario",
    "campaign",
    "model",
    "fabric",
    "routes",
    "topology",
    "engine",
    "event",
    "arrivals",
    "channels",
    "traffic_source",
    "fault",
    "parallel",
];

struct Run {
    stdout: String,
    result: Json,
}

impl Run {
    fn metric_names(&self) -> BTreeSet<String> {
        field(&self.result, "metrics")
            .as_object()
            .expect("metrics object")
            .keys()
            .cloned()
            .collect()
    }

    fn line_after(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{}", self.stdout))
    }

    fn digest(&self) -> String {
        self.line_after("workload: ").rsplit(' ').next().unwrap().to_string()
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.as_object().and_then(|o| o.get(key)).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} seed {seed} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(field(&result, "correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(field(&result, "failed").as_u64(), Some(0));
    assert!(field(&result, "attempted").as_u64().unwrap() >= 1);
    Run { stdout, result }
}

fn declared(kind: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    field(&doc, kind)
        .as_array()
        .unwrap()
        .iter()
        .map(|m| field(m, "name").as_str().unwrap().to_string())
        .collect()
}

#[test]
fn seeds_change_digests_but_not_the_declared_metric_set() {
    let end_to_end = declared("end_to_end");
    for workload in WORKLOADS {
        let a = run(workload, 1, false);
        let b = run(workload, 2, false);
        assert_eq!(a.metric_names(), end_to_end, "{workload}");
        assert_eq!(b.metric_names(), end_to_end, "{workload}");
        assert_ne!(a.digest(), b.digest(), "{workload}: the seed must change the inputs");
        for (name, m) in field(&a.result, "metrics").as_object().unwrap() {
            let value = field(m, "value").as_f64().unwrap();
            assert!(value.is_finite() && value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let traced = run(workload, 3, true);
        assert_eq!(traced.metric_names(), per_layer, "{workload}");
        let layers: BTreeSet<&str> = traced.line_after("layers with spans: ").split(',').collect();
        for layer in LAYERS {
            assert!(layers.contains(layer), "{workload}: no span for layer {layer}");
        }
    }
}
