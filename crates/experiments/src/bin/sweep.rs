//! Free-form design-space sweep: evaluates the analytical model over a grid of message
//! lengths and flit sizes for a chosen organization, printing the latency and the
//! saturation rate of every combination. Demonstrates the "practical evaluation tool"
//! use-case the paper motivates. Exits non-zero if a saturation search fails.
//!
//! Usage: `sweep [a|b]`

use mcnet_model::{ModelBackend, ModelError, ModelOptions};
use mcnet_system::sweep::geometry_grid;
use mcnet_system::{organizations, TrafficConfig};

fn main() -> Result<(), ModelError> {
    let org = std::env::args().nth(1).unwrap_or_else(|| "b".into());
    let system = match org.as_str() {
        "a" => organizations::table1_org_a(),
        _ => organizations::table1_org_b(),
    };
    println!("# Design-space sweep for {}", system.summary());
    let backend = ModelBackend::Tree(system);
    println!("| M (flits) | L_m (bytes) | latency @ 1e-4 | saturation λ_g |");
    println!("|---|---|---|---|");
    for (flits, bytes) in geometry_grid(&[16, 32, 64, 128], &[128.0, 256.0, 512.0]) {
        let traffic = TrafficConfig::uniform(flits, bytes, 1e-4).expect("valid traffic");
        let latency = backend
            .mean_latency(&traffic, ModelOptions::default())?
            .map(|l| format!("{l:.1}"))
            .unwrap_or_else(|| "saturated".into());
        let sat = backend.find_saturation_rate(&traffic, ModelOptions::default(), 1e-4)?;
        println!("| {flits} | {bytes} | {latency} | {sat:.2e} |");
    }
    Ok(())
}
