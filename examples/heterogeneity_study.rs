//! Heterogeneity study: what cluster-size heterogeneity does to message latency.
//!
//! The paper's core argument is that heterogeneity must be modelled explicitly. This
//! example compares, at equal total size:
//!   1. a homogeneous multi-cluster system,
//!   2. the paper's heterogeneous Org B (cluster-size heterogeneity).
//!
//! Run with: `cargo run --release --example heterogeneity_study`

use mcnet::model::AnalyticalModel;
use mcnet::system::{organizations, TrafficConfig};

fn main() {
    let hetero = organizations::table1_org_b();
    let homo = organizations::homogeneous_equivalent(&hetero).expect("equivalent exists");

    println!("Latency vs offered traffic (M = 32 flits, L_m = 256 bytes)\n");
    println!(
        "| λ_g      | homogeneous {} | size-heterogeneous {} |",
        homo.summary(),
        hetero.summary()
    );
    println!("|----------|---------------|----------------------|");
    for i in 1..=8 {
        let rate = 1e-4 * i as f64;
        let traffic = TrafficConfig::uniform(32, 256.0, rate).expect("valid traffic");
        let fmt =
            |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "saturated".into());
        let homo_latency =
            AnalyticalModel::new(&homo, &traffic).expect("model builds").total_latency();
        let hetero_latency =
            AnalyticalModel::new(&hetero, &traffic).expect("model builds").total_latency();
        println!("| {rate:.1e} | {:>13} | {:>20} |", fmt(homo_latency), fmt(hetero_latency));
    }

    println!(
        "\nReading: at the same total node count, the heterogeneous organization behaves\n\
         measurably differently from the homogeneous one — the gap the heterogeneity-aware\n\
         model exists to capture."
    );
}
