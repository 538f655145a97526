//! Substrate bench: the future-event list under the classic *hold* model at
//! fixed pending depths, in two shapes.
//!
//! - `event_queue/hold/<depth>`: each hold pops the earliest event and
//!   re-schedules it through `schedule_at` 1..M flit times ahead (M = 32
//!   flits, flit time 0.522, organization B's t_cs), so the depth never
//!   changes and the event times cluster in the narrow moving window the
//!   engine produces. This is the heap path alone.
//! - `event_queue/engine_hold/<depth>`: each hold pops and re-schedules the
//!   way the engine does — through `schedule_in` at t_cn = 0.276 or
//!   t_cs = 0.522 (organization B's header crossings, which fill the delay
//!   lanes), with every 8th re-schedule an absolute-time `schedule_at`
//!   wake-up 1..M flit times ahead (the heap path).
//!
//! Every iteration runs the same number of holds, so the `min_ms` ratio of
//! two depths is their per-hold cost ratio. The CI bench smoke fails if
//! `hold/1024` costs more than 3× `hold/32` (a heap pays `log n`, while a
//! depth-sensitive structure — a calendar queue whose bucket width stops
//! matching the event density — measured about 4× there), or if
//! `engine_hold/1024` costs more than 2× `engine_hold/32` (lane appends and
//! pops do not depend on depth; only the heap's wake-up share does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcnet_sim::event::{EventKind, EventQueue};

/// Holds per timed iteration.
const HOLDS: u64 = 200_000;
const FLIT_TIME: f64 = 0.522;
const MESSAGE_FLITS: u64 = 32;
/// Organization B's node and switch channel times for 32 flits of 256 bytes.
const T_CN: f64 = 0.276;
const T_CS: f64 = 0.522;

/// A deterministic xorshift64 stream of re-scheduling gaps (1..M flit times).
struct Gaps(u64);

impl Gaps {
    fn step(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn next(&mut self) -> f64 {
        FLIT_TIME * (1 + self.step() % MESSAGE_FLITS) as f64
    }

    fn coin(&mut self) -> bool {
        self.step() & 1 == 1
    }
}

/// A queue at `depth` pending events, spread over 1..M flit times.
fn filled_queue(depth: u32, gaps: &mut Gaps) -> EventQueue {
    let mut queue = EventQueue::new();
    for channel in 0..depth {
        queue.schedule_at(gaps.next(), EventKind::ChannelFree { channel });
    }
    queue
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(HOLDS));
    for depth in [32u32, 1024] {
        let mut gaps = Gaps(0x9e37_79b9_7f4a_7c15);
        let mut queue = filled_queue(depth, &mut gaps);
        let mut hold = move || {
            for _ in 0..HOLDS {
                let e = queue.pop().expect("the hold model keeps its depth");
                queue.schedule_at(e.time + gaps.next(), e.kind);
            }
            queue.now()
        };
        group.bench_with_input(BenchmarkId::new("hold", depth), &depth, |b, _| b.iter(&mut hold));
    }
    for depth in [32u32, 1024] {
        let mut gaps = Gaps(0x9e37_79b9_7f4a_7c15);
        let mut queue = filled_queue(depth, &mut gaps);
        let mut hold = move || {
            for i in 0..HOLDS {
                let e = queue.pop().expect("the hold model keeps its depth");
                if i % 8 == 7 {
                    queue.schedule_at(e.time + gaps.next(), e.kind);
                } else {
                    queue.schedule_in(if gaps.coin() { T_CN } else { T_CS }, e.kind);
                }
            }
            queue.now()
        };
        group.bench_with_input(BenchmarkId::new("engine_hold", depth), &depth, |b, _| {
            b.iter(&mut hold)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue
}
criterion_main!(benches);
