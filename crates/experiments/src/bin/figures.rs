//! The figure driver: regenerates Figs. 3 and 4 with **replicated**
//! simulation points over the reused-engine fast path.
//!
//! The driver runs `--reps` independent replications per point (seeds
//! `seed … seed+reps-1`) through `Scenario::sweep_replicated`, which threads
//! one per-worker engine pool through the whole sweep — the replication fast
//! path end to end; `--reps 0` draws the analytical curves only. Each figure
//! is emitted twice: a markdown table for humans, ending with the
//! model-vs-simulation accuracy of every panel, and a JSON document for
//! machines, the latter carrying an FNV digest that pins every simulated
//! delivery stream (two invocations at the same effort, seed and replication
//! count must byte-match).
//!
//! Usage: `figures [quick|standard|paper] [--reps N] [--seed S] [--fig 3|4]
//!                 [--out DIR]`
//!
//! Defaults: paper effort, 3 replications, seed 2006, both figures, output
//! under `target/figures/`. `--reps 0` skips the simulation.

use mcnet_experiments::comparison::accuracy_report;
use mcnet_experiments::figures::{figure3_replicated, figure4_replicated, ReplicatedFigure};
use mcnet_experiments::report::{accuracy_to_markdown, panel_to_json, panel_to_markdown};
use mcnet_experiments::EvaluationEffort;
use mcnet_sim::json::{object, Json};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = match args.iter().map(String::as_str).find(|a| !a.starts_with("--")) {
        Some("quick") => EvaluationEffort::Quick,
        Some("standard") => EvaluationEffort::Standard,
        Some("paper") | None => EvaluationEffort::Paper,
        Some(other) => usage(&format!("unknown effort {other:?}")),
    };
    let reps = flag_value(&args, "--reps").map_or(3, |v| {
        v.parse().unwrap_or_else(|_| usage(&format!("--reps takes an integer, got {v:?}")))
    });
    let seed = flag_value(&args, "--seed").map_or(2006, |v| {
        v.parse().unwrap_or_else(|_| usage(&format!("--seed takes an integer, got {v:?}")))
    });
    let out_dir = PathBuf::from(
        flag_value(&args, "--out").map_or_else(|| "target/figures".to_string(), str::to_string),
    );
    let which = flag_value(&args, "--fig");

    let effort_name = match effort {
        EvaluationEffort::Quick => "quick",
        EvaluationEffort::Standard => "standard",
        EvaluationEffort::Paper => "paper",
    };
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", out_dir.display())));

    eprintln!(
        "# figure driver: effort={effort_name}, replications={reps}, seed={seed}, \
         out={}",
        out_dir.display()
    );

    type Builder = fn(EvaluationEffort, usize, u64) -> mcnet_experiments::Result<ReplicatedFigure>;
    let figures: Vec<(&str, Builder)> = match which {
        Some("3") => vec![("fig3", figure3_replicated as _)],
        Some("4") => vec![("fig4", figure4_replicated as _)],
        None | Some("both") => {
            vec![("fig3", figure3_replicated as _), ("fig4", figure4_replicated as _)]
        }
        Some(other) => usage(&format!("--fig takes 3, 4 or both, got {other:?}")),
    };

    for (name, build) in figures {
        let figure: ReplicatedFigure =
            build(effort, reps, seed).unwrap_or_else(|e| usage(&format!("{name} failed: {e}")));

        let mut markdown = String::new();
        for panel in &figure.panels {
            markdown.push_str(&panel_to_markdown(panel));
            markdown.push('\n');
        }
        if reps == 0 {
            markdown.push_str("*Analytical model only.*\n");
        } else {
            markdown.push_str(&format!(
                "*{reps} replications per point, seeds {seed}…{}; stream digest \
                 `{:016x}`.*\n",
                seed + reps as u64 - 1,
                figure.digest
            ));
            for panel in &figure.panels {
                let accuracy = accuracy_report(panel, 0.7);
                markdown.push('\n');
                markdown.push_str(&accuracy_to_markdown(&panel.title, &accuracy));
            }
        }

        let json = object([
            ("figure", Json::String(name.to_string())),
            ("effort", Json::String(effort_name.to_string())),
            ("replications", Json::from_u64(reps as u64)),
            ("seed", Json::from_u64(seed)),
            ("digest", Json::String(format!("{:016x}", figure.digest))),
            ("panels", Json::Array(figure.panels.iter().map(panel_to_json).collect())),
        ]);

        let md_path = out_dir.join(format!("{name}.md"));
        let json_path = out_dir.join(format!("{name}.json"));
        std::fs::write(&md_path, &markdown)
            .unwrap_or_else(|e| usage(&format!("cannot write {}: {e}", md_path.display())));
        std::fs::write(&json_path, json.to_pretty() + "\n")
            .unwrap_or_else(|e| usage(&format!("cannot write {}: {e}", json_path.display())));

        println!("{markdown}");
        eprintln!("# wrote {} and {}", md_path.display(), json_path.display());
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "error: {problem}\nusage: figures [quick|standard|paper] [--reps N] [--seed S] \
         [--fig 3|4|both] [--out DIR]"
    );
    std::process::exit(2);
}
