//! Fig. 4: mean message latency vs offered traffic for organization B
//! (N = 544, m = 4), M ∈ {32, 64} flits, L_m ∈ {256, 512} bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcnet_bench::{model_latency, sweep_fractions, traffic};
use mcnet_system::organizations;

fn bench_fig4(c: &mut Criterion) {
    let system = organizations::table1_org_b();
    let mut group = c.benchmark_group("fig4_analysis_sweep");
    for (m, max_rate) in [(32usize, 1.0e-3), (64usize, 5.0e-4)] {
        for lm in [256.0, 512.0] {
            let id = format!("M{m}_Lm{lm}");
            group.bench_with_input(BenchmarkId::new("sweep", id), &(m, lm), |b, &(m, lm)| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for f in sweep_fractions() {
                        let t = traffic(m, lm, f * max_rate);
                        acc += model_latency(&system, &t).unwrap_or(f64::NAN);
                    }
                    std::hint::black_box(acc)
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig4
}
criterion_main!(benches);
