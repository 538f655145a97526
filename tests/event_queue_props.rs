//! Property tests of the event queue's determinism contract: over randomized
//! schedules — dense same-instant ties, interleaved pops, sparse wide delays,
//! burst/drain cycles and a deep tape thousands of events long — the
//! `EventQueue` must pop *exactly* the `(time, seq, kind)` sequence of a
//! hand-written reference future-event list with the same ordering and
//! clock/sequence bookkeeping. The tapes of the second block mix constant
//! delays (which the queue files into FIFO delay lanes) with absolute-time
//! wake-ups (which go to its heap), overflow the lanes with more distinct
//! delays than there are, and reset mid-tape so the lanes are re-keyed. This
//! suite is the executable form of the contract the engine's digests rest on.

use mcnet::sim::event::{Event, EventKind, EventQueue};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// The reference future-event list: a binary heap over the same `Event`
/// ordering (earliest time first, sequence number as tie-breaker), with the
/// clock/sequence bookkeeping the contract specifies.
struct ReferenceHeap {
    heap: BinaryHeap<Event>,
    now: f64,
    next_seq: u64,
}

impl ReferenceHeap {
    fn new() -> Self {
        ReferenceHeap { heap: BinaryHeap::new(), now: 0.0, next_seq: 0 }
    }

    fn schedule_in(&mut self, delay: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time: self.now + delay, seq, kind });
    }

    fn schedule_at(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    fn pop(&mut self) -> Option<Event> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }
}

/// One step of a mixed tape.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `schedule_in` at this delay (the lane path while lanes remain).
    In(f64),
    /// `schedule_at` this far past the current clock (the heap path).
    At(f64),
    Pop,
    Reset,
}

/// Runs `ops` on the queue and the reference, comparing every pop and, after
/// every step, `pending()`, `processed()` and `peek_time()`; then drains both.
fn check_tape(ops: &[Op]) {
    let mut queue = EventQueue::new();
    let mut reference = ReferenceHeap::new();
    let mut popped = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        let kind = match step % 3 {
            0 => EventKind::HeaderAdvance { message: step as u32 },
            1 => EventKind::TailArrived { message: step as u32 },
            _ => EventKind::ChannelFree { channel: step as u32 },
        };
        match op {
            Op::In(delay) => {
                queue.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            }
            Op::At(offset) => {
                assert_eq!(queue.now().to_bits(), reference.now.to_bits());
                queue.schedule_at(reference.now + offset, kind);
                reference.schedule_at(reference.now + offset, kind);
            }
            Op::Pop => match (queue.pop(), reference.pop()) {
                (None, None) => {}
                (Some(c), Some(r)) => {
                    assert_eq!(
                        (c.time.to_bits(), c.seq, c.kind),
                        (r.time.to_bits(), r.seq, r.kind),
                        "step {}",
                        step
                    );
                    popped += 1;
                }
                (c, r) => panic!("step {step}: emptiness diverged (queue {c:?}, reference {r:?})"),
            },
            Op::Reset => {
                queue.reset();
                reference = ReferenceHeap::new();
                popped = 0;
            }
        }
        assert_eq!(queue.pending(), reference.heap.len(), "step {}", step);
        assert_eq!(queue.processed(), popped, "step {}", step);
        assert_eq!(
            queue.peek_time().map(f64::to_bits),
            reference.heap.peek().map(|e| e.time.to_bits())
        );
    }
    while let Some(c) = queue.pop() {
        let r = reference.pop().expect("reference drained early");
        assert_eq!((c.time.to_bits(), c.seq, c.kind), (r.time.to_bits(), r.seq, r.kind));
        popped += 1;
    }
    assert!(reference.pop().is_none());
    assert_eq!((queue.pending(), queue.processed()), (0, popped));
}

/// Maps raw `(selector, pick)` pairs onto a tape: 4 in 10 steps schedule at
/// one of `delays`, 1 in 10 schedules an absolute wake-up `pick % 64` quanta
/// ahead, and the rest pop.
fn tape(raw: &[(u32, u32)], delays: &[f64], quantum: f64) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, pick)| match sel % 10 {
            0..=3 => Op::In(delays[pick as usize % delays.len()]),
            4 => Op::At(f64::from(pick % 64) * quantum),
            _ => Op::Pop,
        })
        .collect()
}

/// The engine's four relative delays for channel times `t_cn` and `t_cs`:
/// a header crossing of either class and a 32-flit tail drain of either.
fn engine_delays(t_cn: f64, t_cs: f64) -> [f64; 4] {
    [t_cn, t_cs, 31.0 * t_cn, 31.0 * t_cs]
}

/// Drives both queues through a `schedule_in`-only tape: 3 in 4 operations
/// schedule at a delay in {0, quantum, 2·quantum, …} and the rest pop.
/// `quantum` controls the tie density: delays are integer multiples of it,
/// so small tapes produce many exactly-equal timestamps.
fn check_equivalence(ops: &[(u32, u32)], quantum: f64, scale: u32) {
    let delay = |payload: u32| f64::from(payload % scale) * quantum;
    let tape: Vec<Op> = ops
        .iter()
        .map(|&(op, payload)| if op % 4 != 0 { Op::In(delay(payload)) } else { Op::Pop })
        .collect();
    check_tape(&tape);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queue_matches_reference_on_dense_clustered_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=600),
    ) {
        // Flit-time-like delays: multiples of 0.25 in [0, 8) — the simulator's
        // regime (narrow moving window, rampant exact ties).
        check_equivalence(&ops, 0.25, 32);
    }

    #[test]
    fn queue_matches_reference_on_all_tie_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=200),
    ) {
        // Every delay is 0: all events fire at the same instant and *only* the
        // sequence number orders them.
        check_equivalence(&ops, 0.0, 1);
    }

    #[test]
    fn queue_matches_reference_on_sparse_wide_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=300),
    ) {
        // Delays spread over four orders of magnitude: few ties, wide gaps.
        check_equivalence(&ops, 97.3, 1000);
    }

    #[test]
    fn queue_matches_reference_with_fault_events_among_ties(
        ops in collection::vec((0u32..8, 0u32..10_000, 0u32..4), 10..=600),
    ) {
        // Fault-plan events (ChannelDown/ChannelUp) and retransmission
        // wake-ups ride the same queue as the traffic events; mixing them
        // into dense same-instant ties must not perturb the (time, seq) pop
        // contract, and the payload must come back through the heap untouched.
        let mut queue = EventQueue::new();
        let mut reference = ReferenceHeap::new();
        for &(op, payload, kind_sel) in &ops {
            if op % 4 != 0 {
                let delay = f64::from(payload % 32) * 0.25;
                let kind = match kind_sel {
                    0 => EventKind::ChannelDown { channel: payload },
                    1 => EventKind::ChannelUp { channel: payload },
                    2 => EventKind::Retransmit { message: payload },
                    _ => EventKind::ChannelFree { channel: payload },
                };
                queue.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            } else {
                match (queue.pop(), reference.pop()) {
                    (None, None) => {}
                    (Some(c), Some(r)) => {
                        prop_assert_eq!(c.time.to_bits(), r.time.to_bits());
                        prop_assert_eq!(c.seq, r.seq);
                        prop_assert_eq!(c.kind, r.kind);
                    }
                    (c, r) => panic!("emptiness diverged (queue {c:?}, reference {r:?})"),
                }
            }
        }
        while let Some(c) = queue.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            prop_assert_eq!(c.kind, r.kind);
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn queue_matches_reference_across_resize_boundaries_with_fault_tape(
        burst in 60usize..=500,
        drain in 1usize..=59,
    ) {
        // The burst/drain tape of the test below, but alternating fault and
        // traffic kinds so the queue holds heterogeneous payloads while its
        // depth rises and falls.
        let mut queue = EventQueue::new();
        let mut reference = ReferenceHeap::new();
        for cycle in 0..4u32 {
            for i in 0..burst {
                let delay = (i % 13) as f64 * 0.5;
                let id = cycle * 1000 + i as u32;
                let kind = match i % 3 {
                    0 => EventKind::ChannelDown { channel: id },
                    1 => EventKind::ChannelUp { channel: id },
                    _ => EventKind::Retransmit { message: id },
                };
                queue.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            }
            for _ in 0..drain.min(queue.pending()) {
                let c = queue.pop().unwrap();
                let r = reference.pop().unwrap();
                prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
                prop_assert_eq!(c.kind, r.kind);
            }
            prop_assert_eq!(queue.pending(), reference.heap.len());
        }
        while let Some(c) = queue.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            prop_assert_eq!(c.kind, r.kind);
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn queue_matches_reference_across_resize_boundaries(
        burst in 60usize..=500,
        drain in 1usize..=59,
    ) {
        // Deterministic push-burst / partial-drain cycles: the pending depth
        // climbs by hundreds of events per cycle, several times over.
        let mut queue = EventQueue::new();
        let mut reference = ReferenceHeap::new();
        for cycle in 0..4 {
            for i in 0..burst {
                let delay = (i % 13) as f64 * 0.5;
                let kind = EventKind::HeaderAdvance { message: (cycle * 1000 + i) as u32 };
                queue.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            }
            for _ in 0..drain.min(queue.pending()) {
                let c = queue.pop().unwrap();
                let r = reference.pop().unwrap();
                prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            }
            prop_assert_eq!(queue.pending(), reference.heap.len());
        }
        while let Some(c) = queue.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn queue_matches_reference_on_deep_tape(
        seed in 1u32..u32::MAX,
        gap_flits in 1u32..=256,
    ) {
        // Thousands of pending events: schedule two per pop until the depth
        // passes 4,096, hold that depth with pop-then-reschedule steps
        // (perfbench's hold model, gaps of 1..M flit times), then drain.
        const DEEP: usize = 4_200;
        let flit = 0.522;
        let mut queue = EventQueue::new();
        let mut reference = ReferenceHeap::new();
        let mut state = seed;
        let mut gap = || {
            // xorshift32: a cheap, seedable stream of gap multiples.
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            flit * f64::from(1 + state % gap_flits)
        };
        let mut id = 0u32;
        let mut step = 0u32;
        while queue.pending() < DEEP {
            for _ in 0..2 {
                let delay = gap();
                let kind = EventKind::HeaderAdvance { message: id };
                queue.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
                id += 1;
            }
            if !step.is_multiple_of(3) {
                let (c, r) = (queue.pop().unwrap(), reference.pop().unwrap());
                prop_assert_eq!((c.time.to_bits(), c.seq, c.kind), (r.time.to_bits(), r.seq, r.kind));
            }
            step += 1;
        }
        prop_assert!(queue.pending() >= 4_096);
        for _ in 0..DEEP {
            let (c, r) = (queue.pop().unwrap(), reference.pop().unwrap());
            prop_assert_eq!((c.time.to_bits(), c.seq, c.kind), (r.time.to_bits(), r.seq, r.kind));
            let delay = gap();
            queue.schedule_in(delay, c.kind);
            reference.schedule_in(delay, r.kind);
        }
        prop_assert_eq!(queue.pending(), reference.heap.len());
        while let Some(c) = queue.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq, c.kind), (r.time.to_bits(), r.seq, r.kind));
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn lanes_match_reference_on_engine_shaped_tapes(
        t_cn in 0.05f64..3.0,
        t_cs in 0.05f64..3.0,
        lanes_used in 2usize..=4,
        raw in collection::vec((0u32..10, 0u32..10_000), 10..=800),
    ) {
        // `schedule_in` over 2–4 constant delays (header crossings and tail
        // drains), mixed with `schedule_at` wake-ups on the t_cn grid.
        let delays = engine_delays(t_cn, t_cs);
        check_tape(&tape(&raw, &delays[..lanes_used], t_cn));
    }

    #[test]
    fn lanes_match_reference_on_dense_ties_across_lanes_and_heap(
        raw in collection::vec((0u32..10, 0u32..10_000), 10..=600),
    ) {
        // Lane delays and wake-up offsets on one 0.25 grid (0 included), so
        // lane heads and the heap top tie exactly and only `seq` orders them.
        check_tape(&tape(&raw, &[0.0, 0.25, 0.5, 0.75], 0.25));
    }

    #[test]
    fn lanes_match_reference_when_delays_overflow_to_the_heap(
        distinct in 5usize..=12,
        raw in collection::vec((0u32..10, 0u32..10_000), 10..=600),
    ) {
        // More distinct delays than lanes: the first four claim the lanes
        // and the rest go to the heap alongside the wake-ups.
        let delays: Vec<f64> = (1..=distinct).map(|k| k as f64 * 0.375).collect();
        check_tape(&tape(&raw, &delays, 0.375));
    }

    #[test]
    fn lanes_match_reference_across_a_mid_tape_reset(
        t_cn in 0.05f64..3.0,
        t_cs in 0.05f64..3.0,
        before in collection::vec((0u32..10, 0u32..10_000), 1..=300),
        after in collection::vec((0u32..10, 0u32..10_000), 1..=300),
    ) {
        // Events still pending at the reset are discarded, and the second
        // half's delays differ from the first's, so the lanes are re-keyed.
        let mut ops = tape(&before, &engine_delays(t_cn, t_cs), t_cn);
        ops.push(Op::Reset);
        ops.extend(tape(&after, &engine_delays(t_cs * 1.5, t_cn * 0.75)[..3], t_cs));
        check_tape(&ops);
    }
}
