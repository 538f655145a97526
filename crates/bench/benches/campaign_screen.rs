//! Substrate benches for the campaign engine.
//!
//! `campaign_model_screen`: the analytical pre-screen — one batched
//! `ModelBackend::evaluate_batch` over a 64-point rate grid versus 64
//! pointwise `evaluate` calls on the same backend and traffic. The batched
//! path builds the rate-independent structure once and rebinds every rate
//! over it; both paths memoize the per-class journey computations within each
//! point, which is what makes screening thousands of campaign cells cheap.
//! CI fails if the pointwise row's `min_ms` exceeds 1.5× the batched row's in
//! `BENCH_results.json`, so a pointwise path that loses the memo shows up.
//!
//! `campaign_run_reuse`: the zero-alloc cell execution — a block of same-fabric
//! cells at different seeds run through one cached engine
//! (`Scenario::execute_reusing`, the campaign worker's path) versus a fresh
//! engine per cell (`Scenario::execute`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcnet_bench::traffic;
use mcnet_model::{ModelBackend, ModelOptions};
use mcnet_sim::{Scenario, SimConfig};
use mcnet_system::{organizations, TorusSystem};

const GRID_POINTS: usize = 64;

fn rate_grid() -> Vec<f64> {
    // Spans the steady-state region up to Org B's approximate saturation, so
    // both paths do the same per-point work the campaign screen would.
    (1..=GRID_POINTS).map(|i| i as f64 * (3.0e-4 / GRID_POINTS as f64)).collect()
}

fn bench_model_screen(c: &mut Criterion) {
    let backend = ModelBackend::Tree(organizations::table1_org_b());
    let template = traffic(32, 256.0, 1e-4);
    let rates = rate_grid();

    let mut group = c.benchmark_group("campaign_model_screen");
    group.throughput(Throughput::Elements(GRID_POINTS as u64));
    group.bench_function("batched_sweep_64", |b| {
        b.iter(|| {
            backend
                .evaluate_batch(&template, &rates, ModelOptions::default())
                .unwrap()
                .iter()
                .filter(|r| r.is_ok())
                .count()
        })
    });
    group.bench_function("pointwise_sweep_64", |b| {
        b.iter(|| {
            rates
                .iter()
                .filter(|&&r| {
                    let point = template.with_rate(r).unwrap();
                    backend.evaluate(&point, ModelOptions::default()).is_ok()
                })
                .count()
        })
    });
    group.finish();
}

const REUSE_CELLS: u64 = 8;

fn reuse_cells() -> Vec<Scenario> {
    // Eight same-fabric cells at different seeds: the shape a campaign grid's
    // seed axis produces, where the worker's engine cache hits on every cell
    // after the first.
    (0..REUSE_CELLS)
        .map(|seed| {
            Scenario::builder()
                .torus(TorusSystem::new(8, 2).expect("valid bench torus"))
                .traffic(traffic(32, 256.0, 1e-3))
                .config(SimConfig::quick(seed))
                .build()
                .expect("valid bench scenario")
        })
        .collect()
}

fn bench_run_reuse(c: &mut Criterion) {
    let cells = reuse_cells();

    let mut group = c.benchmark_group("campaign_run_reuse");
    group.throughput(Throughput::Elements(REUSE_CELLS));
    group.bench_function("fresh_engine_per_cell", |b| {
        b.iter(|| cells.iter().filter(|s| s.execute().is_ok()).count())
    });
    group.bench_function("reused_engine", |b| {
        b.iter(|| {
            let mut slot = None;
            cells.iter().filter(|s| s.execute_reusing(&mut slot).is_ok()).count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_model_screen, bench_run_reuse
}
criterion_main!(benches);
