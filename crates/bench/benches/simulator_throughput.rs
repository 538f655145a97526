//! Substrate bench: discrete-event simulator throughput (messages per second) on the
//! tree-backend scenarios (the small test organization and the paper's Org B at a
//! moderate load, plus Org B past saturation, where the source-queue backlog
//! dominates the engine's state). Messages — not events — are the cross-PR unit of account: the
//! events-per-message ratio itself moves as the engine sheds event traffic (see
//! `SimReport::events_per_message`), so an events/sec number would silently
//! re-baseline whenever it improves.
//!
//! Entries in `BENCH_results.json` are keyed by scenario name
//! (`scenario_throughput/quick_protocol/<scenario>`); the CI regression gate
//! watches `tree_org_b`. The `paper_protocol` rows run the same engine under
//! the full 10k/100k/10k measurement protocol — the workload of the figure
//! driver at paper effort — on the paper's Org B tree and an 8-ary 2-cube.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcnet_bench::{paper_throughput_scenarios, tree_throughput_scenarios};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_throughput");
    for scenario in tree_throughput_scenarios() {
        // Calibrate the message count once so Criterion can report messages/second
        // (the number PERFORMANCE.md and the CI regression gate track).
        let probe = scenario.run().unwrap();
        group.throughput(Throughput::Elements(probe.generated_messages));
        group.bench_with_input(
            BenchmarkId::new("quick_protocol", scenario.name()),
            &scenario,
            |b, s| b.iter(|| std::hint::black_box(s.run().unwrap().events)),
        );
    }
    for scenario in paper_throughput_scenarios() {
        let probe = scenario.run().unwrap();
        group.throughput(Throughput::Elements(probe.generated_messages));
        group.bench_with_input(
            BenchmarkId::new("paper_protocol", scenario.name()),
            &scenario,
            |b, s| b.iter(|| std::hint::black_box(s.run().unwrap().events)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
