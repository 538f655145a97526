//! Results do not depend on the worker count. Each bin runs once on a single
//! worker and once on two real threads (`MCNET_WORKERS`):
//!
//! * the `campaign` bin over `specs/` at the quick protocol must report the
//!   same status and the same run digest for every cell;
//! * the `figures` bin (Fig. 4, quick effort, 2 replications) must write a
//!   byte-identical `fig4.json`.

use std::path::Path;
use std::process::Command;

use mcnet_sim::json::Json;

/// Runs the `campaign` bin over `specs/` on `workers` pool threads and
/// returns `(name, status, run digests)` per cell, in report order. A single
/// run reports its digest at the cell level; a replicated cell carries one
/// per replication inside its outcome.
fn campaign_cells(workers: &str) -> Vec<(String, String, Vec<String>)> {
    let specs = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg(specs)
        .args(["--protocol", "quick"])
        .env("MCNET_WORKERS", workers)
        .output()
        .expect("the campaign bin runs");
    assert!(
        out.status.success(),
        "campaign with MCNET_WORKERS={workers} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8 report"))
        .expect("the report is one JSON document");
    let get = |json: &Json, key: &str| json.as_object().and_then(|o| o.get(key)).cloned();
    let text = |json: Option<Json>| json.and_then(|j| j.as_str().map(String::from));
    get(&report, "cells")
        .and_then(|cells| cells.as_array().map(<[Json]>::to_vec))
        .expect("a cells array")
        .iter()
        .map(|cell| {
            let report = get(cell, "outcome").and_then(|o| get(&o, "report"));
            let digests = match text(get(cell, "digest")) {
                Some(digest) => vec![digest],
                None => report
                    .and_then(|r| get(&r, "replications"))
                    .and_then(|runs| runs.as_array().map(<[Json]>::to_vec))
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|run| get(run, "digest").map(|d| d.to_compact()))
                    .collect(),
            };
            (text(get(cell, "name")).unwrap(), text(get(cell, "status")).unwrap(), digests)
        })
        .collect()
}

#[test]
fn campaign_digests_match_on_one_and_two_workers() {
    let single = campaign_cells("1");
    let pooled = campaign_cells("2");
    assert!(single.len() >= 8, "specs/ holds the exemplar suite");
    assert!(
        single.iter().all(|(_, status, digests)| status == "simulated" && !digests.is_empty()),
        "every quick-protocol cell simulates and reports its run digests: {single:?}"
    );
    assert_eq!(single, pooled, "cell statuses and digests depend on the worker count");
}

/// Runs `figures quick --reps 2 --fig 4` on `workers` pool threads and
/// returns the `fig4.json` it writes.
fn fig4_json(workers: &str) -> Vec<u8> {
    let out_dir = std::env::temp_dir()
        .join(format!("mcnet-worker-count-{}-fig4-w{workers}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["quick", "--reps", "2", "--fig", "4", "--out"])
        .arg(&out_dir)
        .env("MCNET_WORKERS", workers)
        .output()
        .expect("the figures bin runs");
    assert!(
        out.status.success(),
        "figures with MCNET_WORKERS={workers} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(out_dir.join("fig4.json")).expect("figures writes fig4.json");
    std::fs::remove_dir_all(&out_dir).expect("the output directory is removable");
    json
}

#[test]
fn figure_json_is_identical_on_one_and_two_workers() {
    let single = fig4_json("1");
    let pooled = fig4_json("2");
    assert!(!single.is_empty());
    assert!(single == pooled, "fig4.json depends on the worker count");
}
