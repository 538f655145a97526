//! Model validation in miniature: sweep the offered traffic on the paper's Org B and
//! print analysis vs simulation side by side — a fast, self-contained version of the
//! paper's Fig. 4 methodology (use the `figures` binary of `mcnet-experiments` for
//! the full protocol).
//!
//! Run with: `cargo run --release --example validate_model [-- <points>]`

use mcnet::sim::{Scenario, SimConfig, SimError};
use mcnet::system::{organizations, TrafficConfig};

fn main() {
    let points: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(6);
    let system = organizations::table1_org_b();
    println!("Validation sweep on {} (M = 32 flits, L_m = 256 bytes)\n", system.summary());
    println!("| λ_g      | analysis | simulation | rel. error |");
    println!("|----------|----------|------------|------------|");
    for i in 1..=points {
        let rate = 8.0e-4 * i as f64 / points as f64;
        let traffic = TrafficConfig::uniform(32, 256.0, rate).expect("valid traffic");
        let scenario = Scenario::builder()
            .tree(system.clone())
            .traffic(traffic)
            .config(SimConfig::quick(2006))
            .build()
            .expect("valid scenario");
        // Saturation on either side shows up as a missing value.
        let a = match scenario.evaluate() {
            Err(SimError::ModelSaturated { .. }) => None,
            r => Some(r.expect("model evaluation succeeds").mean_latency),
        };
        let s = match scenario.run() {
            Err(SimError::EventBudgetExhausted { .. }) => None,
            r => Some(r.expect("simulation succeeds").mean_latency),
        };
        let err = match (a, s) {
            (Some(a), Some(s)) if s > 0.0 => format!("{:.1}%", (a - s).abs() / s * 100.0),
            _ => "-".into(),
        };
        let fmt =
            |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "saturated".into());
        println!("| {rate:.2e} | {:>8} | {:>10} | {err:>10} |", fmt(a), fmt(s));
    }
    println!(
        "\nAs in the paper, the analytical model tracks the simulation closely in the\n\
         steady-state region and underestimates the latency as the system approaches\n\
         saturation (the simulator captures tree-saturation effects the model's\n\
         independence approximations miss)."
    );
}
