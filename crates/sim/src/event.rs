//! The discrete-event core: simulation clock and future-event list.
//!
//! Events are ordered by time; ties are broken by a monotonically increasing sequence
//! number so that runs are fully deterministic for a given seed regardless of floating
//! point coincidences.
//!
//! The future-event list is a plain binary heap (`std::collections::BinaryHeap`)
//! over the [`Event`] ordering. It is shallow: per-node arrivals live in the
//! engine's [`crate::arrivals::ArrivalQueue`] and blocked worms wait in channel
//! FIFOs, so at the paper protocol the list peaks at a few dozen events. At
//! that depth a heap's `log n` sift beats time-bucketed structures such as
//! Brown's calendar queue, whose cost grows with depth when the event times
//! cluster in a narrow window (see PERFORMANCE.md, "Future-event list").
//!
//! ## Determinism contract
//!
//! [`EventQueue::pop`] always returns the pending event with the smallest
//! `(time, seq)` pair. Sequence numbers are unique, so this order is total and
//! independent of the heap's internal layout. A property test drives the queue
//! and a hand-written reference model through randomized schedules
//! (`tests/event_queue_props.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a message inside one simulation run.
///
/// Since the message-lifecycle compaction this is a *slot* index into the
/// engine's in-flight message slab (slots are recycled once a message is
/// delivered), not a generation index.
pub type MessageId = u32;

/// The things that can happen in the simulation.
///
/// Every variant carries a single `u32` payload, so the whole event (time +
/// sequence number + kind) packs into 24 bytes — three words per future-event
/// slot. Channel releases with nobody waiting do not appear here at all: they
/// are recorded lazily as a per-channel `free_at` timestamp, and a
/// [`ChannelFree`](EventKind::ChannelFree) wakeup is only scheduled when a
/// message actually waits for the channel. Message generation does not appear
/// here either: per-node Poisson arrivals live in the engine's dedicated
/// [`crate::arrivals::ArrivalQueue`] and never round-trip the future-event
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The header flit of a message has finished crossing the channel it last acquired
    /// and now attempts to acquire the next channel of its segment (or, if the segment
    /// is finished, starts draining).
    HeaderAdvance {
        /// The message in flight.
        message: MessageId,
    },
    /// A released channel becomes free while messages wait for it: it is handed
    /// to the oldest waiter.
    ChannelFree {
        /// The channel being handed off.
        channel: u32,
    },
    /// The tail flit of a message has reached its destination; the message is
    /// delivered and its latency recorded.
    TailArrived {
        /// The message in flight.
        message: MessageId,
    },
    /// A channel goes down (fault injection): its holder and queued waiters are
    /// aborted and the channel joins the pool's disabled set until a matching
    /// [`ChannelUp`](EventKind::ChannelUp). Scheduled at simulation build time
    /// from a resolved fault plan; fault-free runs never contain one.
    ChannelDown {
        /// The channel being disabled.
        channel: u32,
    },
    /// A downed channel comes back up and leaves the disabled set.
    ChannelUp {
        /// The channel being re-enabled.
        channel: u32,
    },
    /// An aborted message's exponential-backoff delay has elapsed: the message
    /// restarts acquisition from its source (injection channel).
    Retransmit {
        /// The aborted message.
        message: MessageId,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Simulation time at which the event fires.
    pub time: f64,
    /// Tie-breaking sequence number (assigned by the queue).
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap<Event>` is a max-heap; reverse the comparison so the earliest
        // event pops first, with the sequence number as a deterministic tie-breaker.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The future-event list plus the simulation clock.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    now: f64,
    next_seq: u64,
    processed: u64,
}

impl EventQueue {
    /// Creates an empty queue at time 0. The heap grows to the run's peak
    /// pending depth and keeps that capacity across [`reset`](Self::reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the queue to time 0 with no pending events, keeping the heap's
    /// capacity: a reused engine schedules without allocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.now = 0.0;
        self.next_seq = 0;
        self.processed = 0;
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Advances the clock to `time` without popping an event — used by the
    /// engine when an externally-queued occurrence (a batched arrival) fires
    /// before every pending event.
    ///
    /// # Panics
    /// Panics in debug builds if `time` lies in the past.
    #[inline]
    pub fn advance_to(&mut self, time: f64) {
        debug_assert!(time >= self.now && time.is_finite(), "clock moved backwards to {time}");
        self.now = time;
    }

    /// Schedules `kind` to fire `delay` time units from now.
    ///
    /// # Panics
    /// Panics in debug builds if `delay` is negative or NaN (scheduling into the
    /// past is always a bug); release builds skip the validity check on this hot
    /// path and rely on the debug-tested engine invariants.
    #[inline]
    pub fn schedule_in(&mut self, delay: f64, kind: EventKind) {
        debug_assert!(delay >= 0.0 && delay.is_finite(), "invalid event delay {delay}");
        self.schedule_at(self.now + delay, kind);
    }

    /// Schedules `kind` at an absolute time (≥ now).
    ///
    /// # Panics
    /// Panics in debug builds if `time` lies in the past or is not finite.
    #[inline]
    pub fn schedule_at(&mut self, time: f64, kind: EventKind) {
        debug_assert!(
            time >= self.now && time.is_finite(),
            "event scheduled in the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Firing time of the next event without popping it, or `None` when empty.
    #[inline]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the next event, advancing the clock to its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_in(3.0, EventKind::ChannelFree { channel: 3 });
        q.schedule_in(1.0, EventKind::ChannelFree { channel: 1 });
        q.schedule_in(2.0, EventKind::ChannelFree { channel: 2 });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::ChannelFree { channel } => channel,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.processed(), 3);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for channel in 0..10u32 {
            q.schedule_at(5.0, EventKind::ChannelFree { channel });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::ChannelFree { channel } => channel,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_in(2.0, EventKind::TailArrived { message: 0 });
        q.schedule_in(1.0, EventKind::HeaderAdvance { message: 0 });
        assert_eq!(q.now(), 0.0);
        let first = q.pop().unwrap();
        assert_eq!(q.now(), first.time);
        // Scheduling relative to the new now.
        q.schedule_in(0.5, EventKind::ChannelFree { channel: 9 });
        let mut last = q.now();
        while let Some(e) = q.pop() {
            assert!(e.time >= last);
            last = e.time;
        }
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = EventQueue::new();
        q.schedule_in(4.0, EventKind::ChannelFree { channel: 4 });
        q.schedule_in(2.0, EventKind::ChannelFree { channel: 2 });
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.peek_time(), Some(2.0), "peek must not consume");
        // An insert below the cached minimum takes over the peek.
        q.schedule_in(1.0, EventKind::ChannelFree { channel: 1 });
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop().unwrap().time, 1.0);
        assert_eq!(q.peek_time(), Some(2.0));
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn advance_to_moves_the_clock_between_events() {
        let mut q = EventQueue::new();
        q.schedule_in(5.0, EventKind::ChannelFree { channel: 0 });
        q.advance_to(3.0);
        assert_eq!(q.now(), 3.0);
        // Scheduling is relative to the advanced clock.
        q.schedule_in(1.0, EventKind::ChannelFree { channel: 1 });
        let first = q.pop().unwrap();
        assert_eq!(first.time, 4.0);
        assert_eq!(q.pop().unwrap().time, 5.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid event delay")]
    fn negative_delay_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(-1.0, EventKind::ChannelFree { channel: 0 });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(5.0, EventKind::ChannelFree { channel: 0 });
        q.pop();
        q.schedule_at(1.0, EventKind::ChannelFree { channel: 1 });
    }

    #[test]
    fn sparse_schedules_trigger_recalibration_and_stay_ordered() {
        // Event times spread over many orders of magnitude, each with a
        // near-tie partner: pops must stay correctly ordered.
        let mut q = EventQueue::new();
        for i in 0..40u32 {
            q.schedule_at(f64::from(i) * 1e4, EventKind::ChannelFree { channel: i });
            q.schedule_at(f64::from(i) * 1e4 + 1e-3, EventKind::ChannelFree { channel: 1000 + i });
        }
        let mut last = -1.0f64;
        let mut count = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= last, "out of order at {count}: {} < {last}", e.time);
            last = e.time;
            count += 1;
        }
        assert_eq!(count, 80);
    }

    #[test]
    fn boundary_exact_event_times_pop_in_order() {
        // `a` is exactly 868 · 1.3522987986828883, yet truncating
        // `a / 1.3522987986828883` gives 867: a queue that files events by a
        // divided time key can misorder `a` against its neighbours. Pop order
        // must follow the times themselves.
        let width = 1.3522987986828883f64;
        let a = 1173.795357256747f64;
        assert_eq!((a / width) as u64, 867);
        assert_eq!(868.0 * width, a);
        let mut q = EventQueue::new();
        let t0 = 860.0 * width;
        q.schedule_at(a + 0.5, EventKind::ChannelFree { channel: 2 });
        q.schedule_at(a, EventKind::ChannelFree { channel: 1 });
        q.schedule_at(t0, EventKind::ChannelFree { channel: 0 });
        assert_eq!(q.pop().unwrap().time, t0);
        let second = q.pop().unwrap();
        assert_eq!(second.time, a, "boundary-exact event popped out of order");
        assert_eq!(second.seq, 1);
        assert_eq!(q.pop().unwrap().time, a + 0.5);
        assert_eq!(q.now(), a + 0.5);
    }

    #[test]
    fn processed_and_pending_stay_consistent_across_resizes() {
        let mut q = EventQueue::new();
        let mut scheduled = 0u64;
        let mut popped = 0u64;
        // Interleave bursts of pushes with partial drains so the pending
        // depth rises and falls repeatedly.
        for round in 0..6 {
            for i in 0..100u32 {
                q.schedule_in(
                    0.01 + f64::from(i % 17) * 0.3,
                    EventKind::ChannelFree { channel: i },
                );
                scheduled += 1;
            }
            for _ in 0..(40 + round * 10) {
                if q.pop().is_some() {
                    popped += 1;
                }
            }
            assert_eq!(q.pending() as u64, scheduled - popped);
            assert_eq!(q.processed(), popped);
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, scheduled);
        assert_eq!(q.processed(), scheduled);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn reset_rewinds_clock_sequence_and_counters() {
        // One tape of schedules and pops, replayed on a fresh queue and on
        // the same queue after `reset` (with events still pending), must
        // produce the same (time, seq, kind) stream and the same counters:
        // engine reuse relies on reset-then-run matching a fresh queue.
        fn replay(q: &mut EventQueue) -> (Vec<(f64, u64, EventKind)>, f64, u64, usize) {
            let mut out = Vec::new();
            for i in 0..200u32 {
                let kind = match i % 3 {
                    0 => EventKind::ChannelFree { channel: i },
                    1 => EventKind::HeaderAdvance { message: i },
                    _ => EventKind::TailArrived { message: i },
                };
                q.schedule_in(f64::from(i % 7) * 0.25, kind);
                if i % 4 == 3 {
                    let e = q.pop().unwrap();
                    out.push((e.time, e.seq, e.kind));
                }
            }
            (out, q.now(), q.processed(), q.pending())
        }
        let mut fresh = EventQueue::new();
        let expected = replay(&mut fresh);
        assert_eq!(expected.3, 150, "the tape leaves events pending");
        let mut reused = EventQueue::new();
        replay(&mut reused);
        reused.reset();
        assert_eq!((reused.now(), reused.processed(), reused.pending()), (0.0, 0, 0));
        assert_eq!(reused.peek_time(), None);
        let replayed = replay(&mut reused);
        assert_eq!(replayed.0.len(), expected.0.len());
        for (a, b) in replayed.0.iter().zip(&expected.0) {
            assert_eq!((a.0.to_bits(), a.1, a.2), (b.0.to_bits(), b.1, b.2));
        }
        assert_eq!(replayed.1.to_bits(), expected.1.to_bits());
        assert_eq!((replayed.2, replayed.3), (expected.2, expected.3));
    }
}
