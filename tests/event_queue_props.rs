//! Property tests of the calendar event queue's determinism contract: over
//! randomized schedules — dense same-instant ties, interleaved pops, and
//! enough volume to cross bucket-resize boundaries in both directions — the
//! calendar queue must pop *exactly* the `(time, seq, kind)` sequence a
//! reference `BinaryHeap` future-event list produces. Bucket layout, width
//! calibration and resize timing are invisible to pop order by construction;
//! this suite is the executable form of that claim.

use mcnet::sim::event::{Event, EventKind, EventQueue};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// The seed engine's future-event list: a binary heap over the same `Event`
/// ordering (earliest time first, sequence number as tie-breaker), with the
/// same clock/sequence bookkeeping the calendar queue performs.
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

    fn pop(&mut self) -> Option<Event> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }
}

/// Drives both queues through the same operation tape and asserts every pop
/// matches. `quantum` controls the tie density: delays are integer multiples
/// of it, so small tapes produce many exactly-equal timestamps.
fn check_equivalence(ops: &[(u32, u32)], quantum: f64, scale: u32) {
    let mut calendar = EventQueue::new();
    let mut reference = ReferenceHeap::new();
    let mut pops = 0u64;
    for &(op, payload) in ops {
        if op % 4 != 0 {
            // Schedule (3/4 of operations): delay in {0, quantum, 2·quantum, …}.
            let delay = f64::from(payload % scale) * quantum;
            let kind = EventKind::ChannelFree { channel: payload };
            calendar.schedule_in(delay, kind);
            reference.schedule_in(delay, kind);
        } else {
            let (c, r) = (calendar.pop(), reference.pop());
            match (c, r) {
                (None, None) => {}
                (Some(c), Some(r)) => {
                    assert_eq!(c.time.to_bits(), r.time.to_bits(), "pop {pops}: time diverged");
                    assert_eq!(c.seq, r.seq, "pop {pops}: tie-break diverged");
                    assert_eq!(c.kind, r.kind, "pop {pops}: payload diverged");
                }
                (c, r) => panic!("pop {pops}: emptiness diverged (calendar {c:?}, heap {r:?})"),
            }
            pops += 1;
        }
    }
    // Drain both completely — this sweeps the calendar through its shrink
    // resizes and the final sparse tail.
    loop {
        match (calendar.pop(), reference.pop()) {
            (None, None) => break,
            (Some(c), Some(r)) => {
                assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
                assert_eq!(c.kind, r.kind);
            }
            (c, r) => panic!("drain: emptiness diverged (calendar {c:?}, heap {r:?})"),
        }
    }
    assert_eq!(calendar.pending(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_matches_heap_on_dense_clustered_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=600),
    ) {
        // Flit-time-like delays: multiples of 0.25 in [0, 8) — the simulator's
        // regime (narrow moving window, rampant exact ties).
        check_equivalence(&ops, 0.25, 32);
    }

    #[test]
    fn calendar_matches_heap_on_all_tie_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=200),
    ) {
        // Every delay is 0: all events fire at the same instant and *only* the
        // sequence number orders them.
        check_equivalence(&ops, 0.0, 1);
    }

    #[test]
    fn calendar_matches_heap_on_sparse_wide_schedules(
        ops in collection::vec((0u32..8, 0u32..10_000), 10..=300),
    ) {
        // Delays spread over four orders of magnitude force year-overflow
        // scans and width recalibration.
        check_equivalence(&ops, 97.3, 1000);
    }

    #[test]
    fn calendar_matches_heap_with_fault_events_among_ties(
        ops in collection::vec((0u32..8, 0u32..10_000, 0u32..4), 10..=600),
    ) {
        // Fault-plan events (ChannelDown/ChannelUp) and retransmission
        // wake-ups ride the same queue as the traffic events; mixing them
        // into dense same-instant ties must not perturb the (time, seq) pop
        // contract, and the payload must come back through the bucket rotation
        // untouched.
        let mut calendar = EventQueue::new();
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
                calendar.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            } else {
                match (calendar.pop(), reference.pop()) {
                    (None, None) => {}
                    (Some(c), Some(r)) => {
                        prop_assert_eq!(c.time.to_bits(), r.time.to_bits());
                        prop_assert_eq!(c.seq, r.seq);
                        prop_assert_eq!(c.kind, r.kind);
                    }
                    (c, r) => panic!("emptiness diverged (calendar {c:?}, heap {r:?})"),
                }
            }
        }
        while let Some(c) = calendar.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            prop_assert_eq!(c.kind, r.kind);
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn calendar_matches_heap_across_resize_boundaries_with_fault_tape(
        burst in 60usize..=500,
        drain in 1usize..=59,
    ) {
        // The resize-boundary tape of the test below, but alternating fault
        // and traffic kinds so grow/shrink rehashing is exercised while the
        // buckets hold heterogeneous payloads.
        let mut calendar = EventQueue::new();
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
                calendar.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            }
            for _ in 0..drain.min(calendar.pending()) {
                let c = calendar.pop().unwrap();
                let r = reference.pop().unwrap();
                prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
                prop_assert_eq!(c.kind, r.kind);
            }
            prop_assert_eq!(calendar.pending(), reference.heap.len());
        }
        while let Some(c) = calendar.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            prop_assert_eq!(c.kind, r.kind);
        }
        prop_assert!(reference.pop().is_none());
    }

    #[test]
    fn calendar_matches_heap_across_resize_boundaries(
        burst in 60usize..=500,
        drain in 1usize..=59,
    ) {
        // Deterministic push-burst / partial-drain cycles sized to cross the
        // grow threshold (2 events/bucket) on the way up and the shrink
        // threshold (0.5 events/bucket) on the way down, several times.
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceHeap::new();
        for cycle in 0..4 {
            for i in 0..burst {
                let delay = (i % 13) as f64 * 0.5;
                let kind = EventKind::HeaderAdvance { message: (cycle * 1000 + i) as u32 };
                calendar.schedule_in(delay, kind);
                reference.schedule_in(delay, kind);
            }
            for _ in 0..drain.min(calendar.pending()) {
                let c = calendar.pop().unwrap();
                let r = reference.pop().unwrap();
                prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
            }
            prop_assert_eq!(calendar.pending(), reference.heap.len());
        }
        while let Some(c) = calendar.pop() {
            let r = reference.pop().unwrap();
            prop_assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
        }
        prop_assert!(reference.pop().is_none());
    }
}
