//! The paper's accuracy claim: relative error of the analytical model against the
//! simulation, split into the steady-state and near-saturation regions, for Fig. 4's
//! organization (the smaller one, so the bench stays fast).
//!
//! The regenerated accuracy numbers are printed once; the measured kernel is the error
//! computation itself over a cached panel.

use criterion::{criterion_group, criterion_main, Criterion};
use mcnet_experiments::comparison::accuracy_report;
use mcnet_experiments::figures::figure4_replicated;
use mcnet_experiments::report::accuracy_to_markdown;
use mcnet_experiments::EvaluationEffort;

fn bench_accuracy(c: &mut Criterion) {
    let panels = figure4_replicated(EvaluationEffort::Quick, 1, 2006).expect("figure 4").panels;
    for panel in &panels {
        let acc = accuracy_report(panel, 0.7);
        println!("\n{}", accuracy_to_markdown(&panel.title, &acc));
    }

    c.bench_function("accuracy_report_fig4", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for panel in &panels {
                total += accuracy_report(panel, 0.7).steady_state_error;
            }
            std::hint::black_box(total)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_accuracy
}
criterion_main!(benches);
