//! Property tests of the event queue's determinism contract: over randomized
//! schedules — dense same-instant ties, interleaved pops, sparse wide delays,
//! burst/drain cycles and a deep tape thousands of events long — the
//! `EventQueue` must pop *exactly* the `(time, seq, kind)` sequence of a
//! hand-written reference future-event list with the same ordering and
//! clock/sequence bookkeeping. This suite is the executable form of the
//! contract the engine's digests rest on.

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
    let mut queue = EventQueue::new();
    let mut reference = ReferenceHeap::new();
    let mut pops = 0u64;
    for &(op, payload) in ops {
        if op % 4 != 0 {
            // Schedule (3/4 of operations): delay in {0, quantum, 2·quantum, …}.
            let delay = f64::from(payload % scale) * quantum;
            let kind = EventKind::ChannelFree { channel: payload };
            queue.schedule_in(delay, kind);
            reference.schedule_in(delay, kind);
        } else {
            let (c, r) = (queue.pop(), reference.pop());
            match (c, r) {
                (None, None) => {}
                (Some(c), Some(r)) => {
                    assert_eq!(c.time.to_bits(), r.time.to_bits(), "pop {pops}: time diverged");
                    assert_eq!(c.seq, r.seq, "pop {pops}: tie-break diverged");
                    assert_eq!(c.kind, r.kind, "pop {pops}: payload diverged");
                }
                (c, r) => panic!("pop {pops}: emptiness diverged (queue {c:?}, reference {r:?})"),
            }
            pops += 1;
        }
    }
    // Drain both completely, including the final sparse tail.
    loop {
        match (queue.pop(), reference.pop()) {
            (None, None) => break,
            (Some(c), Some(r)) => {
                assert_eq!((c.time.to_bits(), c.seq), (r.time.to_bits(), r.seq));
                assert_eq!(c.kind, r.kind);
            }
            (c, r) => panic!("drain: emptiness diverged (queue {c:?}, reference {r:?})"),
        }
    }
    assert_eq!(queue.pending(), 0);
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
}
