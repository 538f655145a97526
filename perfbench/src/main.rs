//! The repository benchmark: end-to-end metrics of three workloads and, in
//! the traced run, per-layer metrics. See README.md beside this file.
//!
//! ```text
//! perfbench --workload <fig4_paper|campaign_screen|torus_adaptive_faults|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin <first>..<last>      # regenerate pins.json for those seeds
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The command exits non-zero when any check fails.

mod campaign;
mod drive;
mod fig4;
mod measure;
mod probes;
mod torus;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use mcnet_sim::json::Json;

use crate::trace::Tracer;
use crate::workload::{Report, Workload};

const WORKLOADS: [&str; 3] = ["fig4_paper", "campaign_screen", "torus_adaptive_faults"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, pin: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--pin" => {
                let v = value()?;
                let (a, b) = v.split_once("..").ok_or("--pin takes <first>..<last>")?;
                args.pin = Some((
                    a.parse().map_err(|e| format!("--pin: {e}"))?,
                    b.parse().map_err(|e| format!("--pin: {e}"))?,
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.pin.is_none() && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\", got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run_named(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match name {
        "fig4_paper" => workload::run::<fig4::Fig4>(seed, seconds, trace),
        "campaign_screen" => workload::run::<campaign::CampaignScreen>(seed, seconds, trace),
        "torus_adaptive_faults" => workload::run::<torus::TorusFaults>(seed, seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One iteration of a workload's fixed work: its digest fold.
fn digest_of<W: Workload>(seed: u64) -> Result<u64, String> {
    let tr = Tracer::new(false);
    let mut w = W::setup(seed, &tr)?;
    let mut tally = drive::Tally::default();
    let summary = w.iterate(&tr, &mut tally)?;
    if let Some(e) = tally.errors.first() {
        return Err(e.clone());
    }
    Ok(summary.digest)
}

fn pin(first: u64, last: u64) -> Result<(), String> {
    let mut pins = measure::load_pins().unwrap_or_default();
    for seed in first..=last {
        for name in WORKLOADS {
            let digest = match name {
                "fig4_paper" => digest_of::<fig4::Fig4>(seed)?,
                "campaign_screen" => digest_of::<campaign::CampaignScreen>(seed)?,
                _ => digest_of::<torus::TorusFaults>(seed)?,
            };
            eprintln!("{name} seed {seed}: {digest:016x}");
            pins.entry(name.to_string())
                .or_default()
                .insert(seed.to_string(), format!("{digest:016x}"));
        }
        measure::save_pins(&pins)?;
    }
    Ok(())
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Number(*value)),
                    ("unit".to_string(), Json::String(unit.to_string())),
                ]);
                (name.clone(), Json::Object(entry))
            })
            .collect(),
    )
}

/// Fixes glibc's mmap threshold at its default of 128 KiB. Setting it turns
/// off the allocator's dynamic threshold, so large buffers (route tables,
/// engine arenas) are always mapped and unmapped; otherwise `VmHWM` varies
/// by a fifth between runs of one seed with the order in which pool threads
/// free them.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's allocator tuning call; it takes two plain
    // integers, is called before any other thread exists, and only adjusts
    // the allocator's own parameters.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, last)) = args.pin {
        return match pin(first, last) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("host: {}", measure::host_fingerprint());
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in &names {
        let report = match run_named(name, args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("workload: {name} seed {} digest {:016x}", args.seed, report.digest);
        for note in &report.notes {
            println!("  {note}");
        }
        for problem in &report.problems {
            println!("  FAILED: {problem}");
        }
        for m in &report.metrics {
            println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        attempted += report.attempted;
        failed += report.problems.len() as u64;
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        metrics.extend(
            report.metrics.into_iter().map(|m| (prefix.clone() + &m.name, m.value, m.unit)),
        );
    }
    let result = BTreeMap::from([
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::from_u64(attempted)),
        ("failed".to_string(), Json::from_u64(failed)),
        ("metrics".to_string(), metrics_json(&metrics)),
    ]);
    println!("{}", Json::Object(result).to_compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
