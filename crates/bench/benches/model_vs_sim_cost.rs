//! Cost of one analytical-model evaluation vs one simulation run — the
//! quantitative argument for using analytical models in design-space exploration,
//! which is the paper's stated motivation. The two rows share one Org B point; their
//! ratio is the simulation's cost in model evaluations.

use criterion::{criterion_group, criterion_main, Criterion};
use mcnet_bench::{model_latency, traffic};
use mcnet_sim::{Scenario, SimConfig};
use mcnet_system::organizations;

fn bench_cost(c: &mut Criterion) {
    let system = organizations::table1_org_b();
    let t = traffic(32, 256.0, 3e-4);
    let mut group = c.benchmark_group("model_vs_sim_cost");
    group.bench_function("analytical_model", |b| {
        b.iter(|| std::hint::black_box(model_latency(&system, &t)))
    });
    let scenario = Scenario::builder()
        .tree(system.clone())
        .traffic(t)
        .config(SimConfig::quick(7))
        .build()
        .expect("valid bench scenario");
    group.bench_function("simulation_quick", |b| {
        b.iter(|| std::hint::black_box(scenario.run().unwrap().mean_latency))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cost
}
criterion_main!(benches);
