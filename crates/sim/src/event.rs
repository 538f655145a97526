//! The discrete-event core: simulation clock and future-event list.
//!
//! Events are ordered by time; ties are broken by a monotonically increasing sequence
//! number so that runs are fully deterministic for a given seed regardless of floating
//! point coincidences.
//!
//! The future-event list is a binary heap (`std::collections::BinaryHeap`)
//! over the [`Event`] ordering plus a few FIFO *delay lanes*. Almost every
//! event the engine schedules lands a constant delay after `now` — a header
//! crossing one channel class (t_cn or t_cs), a tail draining a message — so
//! [`EventQueue::schedule_in`] files each event into the lane keyed by its
//! delay (lanes are claimed first-come, up to four, and re-keyed at
//! every [`EventQueue::reset`]) and appends it with no sifting. Absolute-time
//! events ([`EventQueue::schedule_at`]: channel wake-ups, fault plans) and
//! delays first seen after every lane is claimed go to the heap, which stays
//! shallow: per-node arrivals live in the engine's
//! [`crate::arrivals::ArrivalQueue`] and blocked worms wait in channel FIFOs.
//! The queue caches the `(time, seq)` key of every lane head and of the heap
//! top, and which of them is earliest, so [`EventQueue::peek_time`] is O(1)
//! and [`EventQueue::pop`] rescans five keys (see PERFORMANCE.md,
//! "Future-event list").
//!
//! ## Determinism contract
//!
//! [`EventQueue::pop`] always returns the pending event with the smallest
//! `(time, seq)` pair. Sequence numbers are unique, so this order is total and
//! independent of where an event is filed. Each lane is already sorted in that
//! order: the clock never moves backwards and IEEE addition is monotone, so
//! for a fixed delay `d`, `now₁ ≤ now₂` implies `now₁ + d ≤ now₂ + d`, while
//! the later event always carries the larger sequence number. The earliest
//! pending event is therefore always a lane head or the heap top, and the
//! queue pops exactly what a single heap over every event would. A property
//! test drives the queue and a hand-written reference heap through randomized
//! schedules (`tests/event_queue_props.rs`).

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

/// Number of constant-delay FIFO lanes in an [`EventQueue`]. The engine
/// schedules relative events at two to four distinct delays per fabric (a
/// header crossing per channel class and a tail drain); delays first seen
/// after every lane is claimed (late retransmission back-offs) share the heap.
const LANES: usize = 4;

/// Index of the heap in [`EventQueue::heads`]; lanes are `0..LANES`.
const HEAP: usize = LANES;

/// The order key of an empty source: above every event's key.
const EMPTY: u128 = u128::MAX;

/// Smallest ring a lane allocates on first use.
const MIN_RING: usize = 16;

/// `event`'s position in the queue's `(time, seq)` total order as one
/// integer: the time's [`f64::total_cmp`] order in the high word, the
/// sequence number in the low word.
#[inline]
fn order_key(event: &Event) -> u128 {
    let bits = event.time.to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
    (u128::from(ordered) << 64) | u128::from(event.seq)
}

/// The time an [`order_key`] was made from.
#[inline]
fn key_time(key: u128) -> f64 {
    let signed = ((key >> 64) as u64) ^ (1 << 63);
    f64::from_bits(signed ^ ((((signed as i64) >> 63) as u64) >> 1))
}

/// A FIFO of events scheduled at one constant delay: a power-of-two ring
/// that keeps its capacity across [`EventQueue::reset`].
#[derive(Debug, Default)]
struct Lane {
    ring: Vec<Event>,
    head: usize,
    len: usize,
}

impl Lane {
    #[inline]
    fn front(&self) -> Option<&Event> {
        (self.len > 0).then(|| &self.ring[self.head])
    }

    #[inline]
    fn back(&self) -> Option<&Event> {
        (self.len > 0).then(|| &self.ring[(self.head + self.len - 1) & (self.ring.len() - 1)])
    }

    #[inline]
    fn push_back(&mut self, event: Event) {
        if self.len == self.ring.len() {
            self.grow(event);
        }
        let slot = (self.head + self.len) & (self.ring.len() - 1);
        self.ring[slot] = event;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Event {
        let event = self.ring[self.head];
        self.head = (self.head + 1) & (self.ring.len() - 1);
        self.len -= 1;
        event
    }

    /// Doubles the ring, unwrapping the pending events to its start and
    /// filling the new slots with `filler`.
    #[cold]
    fn grow(&mut self, filler: Event) {
        let mask = self.ring.len().wrapping_sub(1);
        let size = (self.ring.len() * 2).max(MIN_RING);
        let mut ring = Vec::with_capacity(size);
        ring.extend((0..self.len).map(|i| self.ring[(self.head + i) & mask]));
        ring.resize(size, filler);
        self.ring = ring;
        self.head = 0;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// The future-event list plus the simulation clock.
#[derive(Debug)]
pub struct EventQueue {
    /// `delay.to_bits()` of each claimed lane; `lanes[..claimed]` are in use.
    delays: [u64; LANES],
    claimed: usize,
    lanes: [Lane; LANES],
    heap: BinaryHeap<Event>,
    /// [`order_key`] of each lane's front event and of the heap top
    /// ([`EMPTY`] for an empty source).
    heads: [u128; LANES + 1],
    /// Index into `heads` of the earliest pending event.
    first: usize,
    now: f64,
    next_seq: u64,
    processed: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            delays: [0; LANES],
            claimed: 0,
            lanes: Default::default(),
            heap: BinaryHeap::new(),
            heads: [EMPTY; LANES + 1],
            first: HEAP,
            now: 0.0,
            next_seq: 0,
            processed: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue at time 0. The heap and the lane rings grow to
    /// the run's peak pending depth and keep that capacity across
    /// [`reset`](Self::reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the queue to time 0 with no pending events and every lane
    /// unclaimed, keeping the heap's and the rings' capacity: a reused engine
    /// schedules without allocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(Lane::clear);
        self.claimed = 0;
        self.heads = [EMPTY; LANES + 1];
        self.first = HEAP;
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
        self.heap.len() + self.lanes.iter().map(|lane| lane.len).sum::<usize>()
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

    /// Schedules `kind` to fire `delay` time units from now, in the lane
    /// keyed by `delay` (claiming a free lane for a new delay), or in the
    /// heap once every lane is claimed by another delay.
    ///
    /// # Panics
    /// Panics in debug builds if `delay` is negative or NaN (scheduling into the
    /// past is always a bug); release builds skip the validity check on this hot
    /// path and rely on the debug-tested engine invariants.
    #[inline]
    pub fn schedule_in(&mut self, delay: f64, kind: EventKind) {
        debug_assert!(delay >= 0.0 && delay.is_finite(), "invalid event delay {delay}");
        let bits = delay.to_bits();
        let lane = match self.delays[..self.claimed].iter().position(|&d| d == bits) {
            Some(lane) => lane,
            None if self.claimed < LANES => {
                self.delays[self.claimed] = bits;
                self.claimed += 1;
                self.claimed - 1
            }
            None => return self.schedule_at(self.now + delay, kind),
        };
        let event = self.stamp(self.now + delay, kind);
        let ring = &mut self.lanes[lane];
        debug_assert!(
            ring.back().is_none_or(|tail| order_key(tail) < order_key(&event)),
            "lane {lane} out of (time, seq) order"
        );
        ring.push_back(event);
        if ring.len == 1 {
            self.offer(order_key(&event), lane);
        }
        self.debug_check_first();
    }

    /// Schedules `kind` at an absolute time (≥ now), in the heap.
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
        let event = self.stamp(time, kind);
        self.heap.push(event);
        let key = order_key(&event);
        if key < self.heads[HEAP] {
            self.offer(key, HEAP);
        }
        self.debug_check_first();
    }

    /// Firing time of the next event without popping it, or `None` when empty.
    #[inline]
    pub fn peek_time(&self) -> Option<f64> {
        let key = self.heads[self.first];
        (key != EMPTY).then(|| key_time(key))
    }

    /// Pops the next event, advancing the clock to its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let source = self.first;
        if self.heads[source] == EMPTY {
            return None;
        }
        let ev = if source == HEAP {
            let ev = self.heap.pop().expect("the heap top is cached");
            self.heads[HEAP] = self.heap.peek().map_or(EMPTY, order_key);
            ev
        } else {
            let ring = &mut self.lanes[source];
            let ev = ring.pop_front();
            self.heads[source] = ring.front().map_or(EMPTY, order_key);
            ev
        };
        self.first = self.earliest();
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }

    /// Assigns the next sequence number.
    #[inline]
    fn stamp(&mut self, time: f64, kind: EventKind) -> Event {
        let seq = self.next_seq;
        self.next_seq += 1;
        Event { time, seq, kind }
    }

    /// Records `key` as the new head of `source` and, when it fires before
    /// the cached earliest event, makes `source` the earliest.
    #[inline]
    fn offer(&mut self, key: u128, source: usize) {
        self.heads[source] = key;
        if key < self.heads[self.first] {
            self.first = source;
        }
    }

    /// Index of the smallest entry of `heads`, by a full scan.
    #[inline]
    fn earliest(&self) -> usize {
        let mut best = HEAP;
        let mut key = self.heads[HEAP];
        for (source, &head) in self.heads[..LANES].iter().enumerate() {
            let earlier = head < key;
            best = if earlier { source } else { best };
            key = if earlier { head } else { key };
        }
        best
    }

    /// Debug builds: the cached heads equal the sources' actual heads, and
    /// the cached earliest event equals a full scan of them.
    #[inline]
    fn debug_check_first(&self) {
        debug_assert!(
            self.lanes
                .iter()
                .map(|ring| ring.front().map_or(EMPTY, order_key))
                .eq(self.heads[..LANES].iter().copied())
                && self.heap.peek().map_or(EMPTY, order_key) == self.heads[HEAP],
            "cached source heads diverged from the sources"
        );
        debug_assert_eq!(
            self.heads[self.first],
            self.heads.iter().copied().min().unwrap_or(EMPTY),
            "cached earliest event diverged from a full scan"
        );
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
    fn constant_delays_fill_lanes_and_the_rest_overflow_to_the_heap() {
        let mut q = EventQueue::new();
        for (i, delay) in [0.5, 1.5, 0.5, 2.5, 3.5, 4.5, 1.5, 5.5].into_iter().enumerate() {
            q.schedule_in(delay, EventKind::HeaderAdvance { message: i as u32 });
        }
        q.schedule_at(0.25, EventKind::ChannelFree { channel: 0 });
        let keys: Vec<f64> = q.delays[..q.claimed].iter().map(|&k| f64::from_bits(k)).collect();
        assert_eq!(keys, [0.5, 1.5, 2.5, 3.5], "lanes are claimed first-come");
        let lane_lens: Vec<usize> = q.lanes.iter().map(|lane| lane.len).collect();
        assert_eq!(lane_lens, [2, 2, 1, 1]);
        assert_eq!(q.heap.len(), 3, "two overflow delays and one absolute time");
        assert_eq!(q.pending(), 9);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, [0.25, 0.5, 0.5, 1.5, 1.5, 2.5, 3.5, 4.5, 5.5]);
    }

    #[test]
    fn reset_rekeys_lanes_and_keeps_ring_capacity() {
        let mut q = EventQueue::new();
        for message in 0..100u32 {
            q.schedule_in(1.0, EventKind::HeaderAdvance { message });
            q.schedule_in(31.0, EventKind::TailArrived { message });
        }
        for _ in 0..150 {
            q.pop();
        }
        let rings: Vec<usize> = q.lanes.iter().map(|lane| lane.ring.len()).collect();
        assert!(rings[0] >= 100 && rings[1] >= 100 && rings[0].is_power_of_two());
        q.reset();
        assert_eq!((q.claimed, q.pending(), q.peek_time()), (0, 0, None));
        // A different delay set claims the lanes afresh, in first-come order,
        // and reuses the grown rings.
        q.schedule_in(0.75, EventKind::HeaderAdvance { message: 0 });
        q.schedule_in(2.0, EventKind::HeaderAdvance { message: 1 });
        q.schedule_in(0.75, EventKind::HeaderAdvance { message: 2 });
        assert_eq!(&q.delays[..q.claimed], &[0.75f64.to_bits(), 2.0f64.to_bits()]);
        assert_eq!(q.lanes.iter().map(|lane| lane.ring.len()).collect::<Vec<_>>(), rings);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, [0, 2, 1]);
    }

    #[test]
    fn lane_ring_wraps_and_grows_in_fifo_order() {
        // Hold the lane near its ring size so the write index wraps, then
        // overfill it so `grow` unwraps the live events.
        let mut q = EventQueue::new();
        let mut next = 0u32;
        let mut expected = 0u32;
        for round in 0..6 {
            for _ in 0..(MIN_RING - 2 + round * 7) {
                q.schedule_in(1.0, EventKind::HeaderAdvance { message: next });
                next += 1;
            }
            for _ in 0..(MIN_RING - 3) {
                match q.pop().unwrap().kind {
                    EventKind::HeaderAdvance { message } => assert_eq!(message, expected),
                    other => panic!("unexpected {other:?}"),
                }
                expected += 1;
            }
        }
        while let Some(e) = q.pop() {
            assert_eq!(e.kind, EventKind::HeaderAdvance { message: expected });
            expected += 1;
        }
        assert_eq!(expected, next);
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
