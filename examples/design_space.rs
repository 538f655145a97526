//! Design-space exploration: the use-case the paper motivates for analytical models.
//!
//! A system designer wants to know how the switch port count, cluster organization and
//! message geometry interact: for a fixed budget of ~500 nodes, is it better to build
//! few large clusters or many small ones? The analytical model answers in milliseconds
//! per configuration, which is what makes sweeping the space practical.
//!
//! Run with: `cargo run --release --example design_space`

use mcnet::model::{AnalyticalModel, ModelBackend, ModelOptions};
use mcnet::system::{organizations, ClusterSpec, MultiClusterSystem, TrafficConfig};

fn evaluate(label: &str, system: &MultiClusterSystem) {
    let traffic = TrafficConfig::uniform(32, 256.0, 1.5e-4).expect("valid traffic");
    let latency = AnalyticalModel::new(system, &traffic)
        .expect("model builds")
        .total_latency()
        .map(|l| format!("{l:.1}"))
        .unwrap_or_else(|| "saturated".into());
    let sat = ModelBackend::Tree(system.clone())
        .find_saturation_rate(&traffic, ModelOptions::default(), 1e-4)
        .map(|s| format!("{s:.2e}"))
        .unwrap_or_else(|_| "-".into());
    println!(
        "| {label:<28} | {:>5} | {:>3} | {latency:>9} | {sat:>9} |",
        system.total_nodes(),
        system.num_clusters()
    );
}

fn main() {
    println!("Design-space exploration at λ_g = 1.5e-4, M = 32 flits, L_m = 256 bytes\n");
    println!("| organization                 |     N |   C | latency   | sat. λ_g  |");
    println!("|------------------------------|-------|-----|-----------|-----------|");

    // Few large clusters vs many small clusters, at a similar total size.
    let few_large = MultiClusterSystem::new(vec![ClusterSpec::new(8, 3).expect("spec"); 4])
        .expect("valid system");
    evaluate("4 × 128-node clusters (m=8)", &few_large);

    let many_small = MultiClusterSystem::new(vec![ClusterSpec::new(8, 2).expect("spec"); 16])
        .expect("valid system");
    evaluate("16 × 32-node clusters (m=8)", &many_small);

    let very_small = MultiClusterSystem::new(vec![ClusterSpec::new(8, 1).expect("spec"); 64])
        .expect("valid system");
    evaluate("64 × 8-node clusters (m=8)", &very_small);

    // The paper's heterogeneous organizations for comparison.
    evaluate("paper Org A (heterogeneous)", &organizations::table1_org_a());
    evaluate("paper Org B (heterogeneous)", &organizations::table1_org_b());

    println!(
        "\nReading: larger clusters keep more traffic on the cheap intra-cluster network\n\
         (lower latency at this load), while many small clusters push almost all traffic\n\
         through the concentrators and ICN2 and therefore saturate earlier."
    );
}
