//! Substrate bench: the future-event list under the classic *hold* model at
//! fixed pending depths. Each hold pops the earliest event and re-schedules
//! it 1..M flit times ahead (M = 32 flits, flit time 0.522, organization B's
//! t_cs), so the depth never changes and the event times cluster in the
//! narrow moving window the engine produces.
//!
//! Entries in `BENCH_results.json` are `event_queue/hold/<depth>`; every
//! iteration runs the same number of holds, so the `min_ms` ratio of two
//! depths is their per-hold cost ratio. The CI bench smoke fails if
//! `hold/1024` costs more than 3× `hold/32`: a heap pays `log n`, while a
//! depth-sensitive structure (a calendar queue whose bucket width stops
//! matching the event density) measured about 4× there.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcnet_sim::event::{EventKind, EventQueue};

/// Holds per timed iteration.
const HOLDS: u64 = 200_000;
const FLIT_TIME: f64 = 0.522;
const MESSAGE_FLITS: u64 = 32;

/// A deterministic xorshift64 stream of re-scheduling gaps (1..M flit times).
struct Gaps(u64);

impl Gaps {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        FLIT_TIME * (1 + self.0 % MESSAGE_FLITS) as f64
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(HOLDS));
    for depth in [32u32, 1024] {
        let mut gaps = Gaps(0x9e37_79b9_7f4a_7c15);
        let mut queue = EventQueue::new();
        for channel in 0..depth {
            queue.schedule_at(gaps.next(), EventKind::ChannelFree { channel });
        }
        let mut hold = move || {
            for _ in 0..HOLDS {
                let e = queue.pop().expect("the hold model keeps its depth");
                queue.schedule_at(e.time + gaps.next(), e.kind);
            }
            queue.now()
        };
        group.bench_with_input(BenchmarkId::new("hold", depth), &depth, |b, _| b.iter(&mut hold));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue
}
criterion_main!(benches);
