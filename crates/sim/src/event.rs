//! The discrete-event core: simulation clock and future-event list.
//!
//! Events are ordered by time; ties are broken by a monotonically increasing sequence
//! number so that runs are fully deterministic for a given seed regardless of floating
//! point coincidences.
//!
//! The future-event list is a **calendar queue** (Brown's O(1) priority queue,
//! the standard structure for network simulators): a circular array of time
//! buckets of width `w`, where an event at time `t` lives in bucket
//! `⌊t/w⌋ mod nbuckets`. The engine's event times are sums of a handful of
//! fixed flit times, so they cluster densely in a narrow moving window — the
//! worst case for a binary heap's `log n` sift, the best case for time
//! buckets: enqueue is a push onto the target bucket, dequeue scans the
//! current bucket (kept near one event on average by the resize policy).
//! Buckets are deliberately **unsorted** (lazy intra-bucket ordering): the
//! dequeue min-scan of a ~1-event bucket is cheaper than keeping every insert
//! ordered.
//!
//! ## Determinism contract
//!
//! [`EventQueue::pop`] always returns the pending event with the smallest
//! `(time, seq)` pair — *exactly* the order a `BinaryHeap` with the [`Event`]
//! ordering would produce. Bucket layout, bucket width and resize timing can
//! never change which event is the minimum (sequence numbers are unique), so
//! the calendar queue is pop-order-identical to the reference heap. This is
//! enforced by a property test driving both structures through randomized
//! schedules (`tests/event_queue_props.rs`).
//!
//! ## Recalibration
//!
//! The queue resizes itself from observed event density: it doubles the bucket
//! count when occupancy exceeds two events per bucket, halves it when
//! occupancy falls below one half, and recalibrates the bucket width on every
//! rebuild from the mean gap of a sorted sample of pending event times. A
//! dequeue that had to fall back to a full scan (event times far sparser than
//! the current width) also triggers a recalibrating rebuild, so a queue whose
//! density drifts without crossing a size threshold still adapts.

use std::cmp::Ordering;

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
        // The calendar queue below reproduces exactly this order; the impl is kept
        // so a reference heap can be built against it in equivalence tests.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Cached position of the pending minimum, valid until the next pop or rebuild.
#[derive(Debug, Clone, Copy)]
struct MinPos {
    bucket: u32,
    slot: u32,
    time: f64,
    seq: u64,
}

/// One calendar slot: an event plus the absolute day it was filed under.
///
/// The day is computed once at insertion with the queue's current
/// [`day_of`](EventQueue::day_of) map and stored, so the dequeue scan's
/// day-membership test is a single integer compare instead of re-deriving
/// the day from the float time. Storing it also makes the membership test
/// *definitionally* identical to insertion — the rounding hazard of a
/// recomputed bucket edge (see [`EventQueue::ensure_min`]) cannot arise.
#[derive(Debug, Clone, Copy)]
struct Slot {
    day: u64,
    ev: Event,
}

/// Smallest number of buckets the calendar ever shrinks to.
const MIN_BUCKETS: usize = 16;
/// Largest number of buckets the calendar ever grows to (a full year scan must
/// stay affordable; 1 << 20 buckets ≈ 16 MiB of empty `Vec` headers).
const MAX_BUCKETS: usize = 1 << 20;
/// How many pending events are sampled when recalibrating the bucket width.
const WIDTH_SAMPLE: usize = 64;
/// Width multiplier over the mean adjacent-event gap (Brown's rule of thumb).
const WIDTH_FACTOR: f64 = 2.0;

/// The future-event list plus the simulation clock.
#[derive(Debug)]
pub struct EventQueue {
    /// Physical bucket storage. May be longer than the live calendar
    /// ([`logical`](Self::logical)): shrinking the calendar only lowers the
    /// logical size, so bucket capacities survive shrink/grow cycles and a
    /// steady-state rebuild allocates nothing.
    buckets: Vec<Vec<Slot>>,
    /// Live calendar size (a power of two ≤ `buckets.len()`); the circular
    /// index mask is `logical - 1`.
    logical: usize,
    /// Drain scratch for [`rebuild`](Self::rebuild), retained across rebuilds.
    scratch: Vec<Slot>,
    /// Bucket time width.
    width: f64,
    /// Precomputed `1.0 / width`: the day index is `(t * inv_width) as u64`.
    /// Multiplication replaces the hot-path division; any monotone map from
    /// time to days yields the same pop order (see the determinism contract),
    /// so the exact rounding of the product is immaterial — it only has to be
    /// the *same* map for insertion and scan, which sharing this field
    /// guarantees.
    inv_width: f64,
    /// Number of pending events.
    len: usize,
    /// Cached position of the pending minimum (see [`MinPos`]).
    cached_min: Option<MinPos>,
    /// Set when a dequeue scan overflowed a full year: the width is stale and
    /// the next pop rebuilds with a recalibrated width.
    recalibrate: bool,
    now: f64,
    next_seq: u64,
    processed: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue at time 0, at the minimum calendar size.
    ///
    /// There is deliberately no capacity-hint constructor: a pre-sized
    /// calendar starts almost empty (below the shrink threshold), so the
    /// first pops would tear it straight back down through a chain of
    /// rebuilds — and the bucket *width* can only be calibrated from observed
    /// event times anyway. Growing from the minimum costs `log₂(steady-state
    /// len)` cheap rebuilds during ramp-up, each of which also recalibrates
    /// the width from real gaps.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            logical: MIN_BUCKETS,
            scratch: Vec::new(),
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            cached_min: None,
            recalibrate: false,
            now: 0.0,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Rewinds the queue to time 0 with no pending events, keeping the bucket
    /// storage and the width calibrated during the previous run. Pop order is
    /// independent of bucket layout and width (see the determinism contract
    /// above), so starting the next run on a grown, calibrated calendar is
    /// bit-transparent to its event order — it only skips the ramp-up
    /// rebuilds a fresh queue would pay.
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
        self.cached_min = None;
        self.recalibrate = false;
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
        self.len
    }

    /// Number of buckets currently in the calendar (diagnostics / tests).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.logical
    }

    /// Current bucket width (diagnostics / tests).
    #[inline]
    pub fn bucket_width(&self) -> f64 {
        self.width
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
    pub fn schedule_in(&mut self, delay: f64, kind: EventKind) {
        debug_assert!(delay >= 0.0 && delay.is_finite(), "invalid event delay {delay}");
        self.schedule_at(self.now + delay, kind);
    }

    /// Schedules `kind` at an absolute time (≥ now).
    ///
    /// # Panics
    /// Panics in debug builds if `time` lies in the past or is not finite.
    pub fn schedule_at(&mut self, time: f64, kind: EventKind) {
        debug_assert!(
            time >= self.now && time.is_finite(),
            "event scheduled in the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = self.day_of(time);
        let live = &mut self.buckets[..self.logical];
        let bucket = (day & (live.len() as u64 - 1)) as usize;
        live[bucket].push(Slot { day, ev: Event { time, seq, kind } });
        self.len += 1;
        // Keep the cached minimum valid: a push never moves existing events, so
        // the cache only changes if the new event beats it.
        if let Some(min) = self.cached_min {
            if time < min.time || (time == min.time && seq < min.seq) {
                self.cached_min = Some(MinPos {
                    bucket: bucket as u32,
                    slot: (self.buckets[bucket].len() - 1) as u32,
                    time,
                    seq,
                });
            }
        }
        if self.len > 2 * self.logical && self.logical < MAX_BUCKETS {
            self.rebuild(self.logical * 2);
        }
    }

    /// Firing time of the next event without popping it, or `None` when empty.
    /// (`&mut` because the scan that locates the minimum is memoized for the
    /// following [`pop`](Self::pop).)
    #[inline]
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        self.ensure_min();
        Some(self.cached_min.expect("ensure_min fills the cache").time)
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        self.ensure_min();
        let min = self.cached_min.take().expect("ensure_min fills the cache");
        let ev = self.buckets[min.bucket as usize].swap_remove(min.slot as usize).ev;
        debug_assert!(ev.time == min.time && ev.seq == min.seq);
        self.len -= 1;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.processed += 1;
        if self.recalibrate {
            // A scan overflowed the year: the width no longer matches the event
            // density. Rebuild at the current size with a fresh width.
            self.recalibrate = false;
            self.rebuild(self.logical);
        } else if self.len < self.logical / 2 && self.logical > MIN_BUCKETS {
            self.rebuild(self.logical / 2);
        }
        Some(ev)
    }

    /// The absolute day (bucket-grid index) of a time instant.
    #[inline]
    fn day_of(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }

    /// Locates the pending minimum `(time, seq)` and memoizes its position.
    ///
    /// Standard calendar scan: walk days starting at the day of `now`; the
    /// first bucket holding an event *of that day* contains the global minimum
    /// (`day_of` is monotone in time, so every earlier day was empty, and a
    /// same-time tie always lands on the same day, where the min-scan breaks
    /// it by `seq`). Day membership is the stored insertion day ([`Slot`]) —
    /// never a recomputed bucket edge (`(day+1)·width` can round to the
    /// opposite side of the truncation at a boundary-exact time, which would
    /// skip the event and pop out of order). If a whole year passes without a
    /// hit the events are far sparser than the width: fall back to a direct
    /// scan of everything and flag the width for recalibration.
    fn ensure_min(&mut self) {
        if self.cached_min.is_some() {
            return;
        }
        debug_assert!(self.len > 0);
        let mask = self.logical as u64 - 1;
        let start = self.day_of(self.now);
        // Slicing to exactly `logical` buckets lets the masked index below be
        // provably in bounds (mask = len - 1), eliding the per-day check.
        let live = &self.buckets[..self.logical];
        for day in start..start + self.logical as u64 {
            let bucket = (day & mask) as usize;
            // Day-restricted min-scan, fused inline: on the bench profile this
            // is the single hottest loop in the engine, and the tracked best
            // is kept in locals (no `Option` in the inner comparisons).
            let mut best_slot = usize::MAX;
            let (mut best_time, mut best_seq) = (f64::INFINITY, u64::MAX);
            for (slot, s) in live[bucket].iter().enumerate() {
                if s.day != day {
                    continue; // an event of another year sharing this bucket
                }
                let e = &s.ev;
                if e.time < best_time || (e.time == best_time && e.seq < best_seq) {
                    best_slot = slot;
                    best_time = e.time;
                    best_seq = e.seq;
                }
            }
            if best_slot != usize::MAX {
                #[allow(clippy::cast_possible_truncation)]
                {
                    self.cached_min = Some(MinPos {
                        bucket: bucket as u32,
                        slot: best_slot as u32,
                        time: best_time,
                        seq: best_seq,
                    });
                }
                return;
            }
        }
        // Sparse fallback: direct search over all buckets for the global min.
        self.recalibrate = self.len >= 4;
        let global = (0..self.logical)
            .filter_map(|b| self.bucket_min(b))
            .min_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        self.cached_min = global;
        debug_assert!(self.cached_min.is_some(), "non-empty queue always has a minimum");
    }

    /// Minimum `(time, seq)` event of one bucket, ignoring days (the sparse
    /// fallback path of [`ensure_min`](Self::ensure_min)).
    fn bucket_min(&self, bucket: usize) -> Option<MinPos> {
        let mut best: Option<MinPos> = None;
        #[allow(clippy::cast_possible_truncation)]
        for (slot, s) in self.buckets[bucket].iter().enumerate() {
            let e = &s.ev;
            let better = match best {
                None => true,
                Some(m) => e.time < m.time || (e.time == m.time && e.seq < m.seq),
            };
            if better {
                best = Some(MinPos {
                    bucket: bucket as u32,
                    slot: slot as u32,
                    time: e.time,
                    seq: e.seq,
                });
            }
        }
        best
    }

    /// Rebuilds the calendar with `new_buckets` buckets and a width
    /// recalibrated from the observed event density.
    ///
    /// Allocation-free at steady state: pending events drain into the retained
    /// [`scratch`](Self::scratch), shrinking only lowers the logical size (the
    /// physical buckets and their capacities stay), and growing past the
    /// physical size — which can only happen while capacities are still
    /// ramping up — extends the bucket spine with fresh empty `Vec`s.
    fn rebuild(&mut self, new_buckets: usize) {
        let new_buckets = new_buckets.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let Self { buckets, scratch, logical, .. } = self;
        scratch.clear();
        for bucket in &mut buckets[..*logical] {
            scratch.append(bucket);
        }
        debug_assert_eq!(self.scratch.len(), self.len);
        self.width = self.calibrated_width(&self.scratch);
        self.inv_width = 1.0 / self.width;
        if self.buckets.len() < new_buckets {
            self.buckets.resize_with(new_buckets, Vec::new);
        }
        self.logical = new_buckets;
        self.cached_min = None;
        let mask = new_buckets as u64 - 1;
        let mut slot = 0;
        while slot < self.scratch.len() {
            let mut s = self.scratch[slot];
            s.day = self.day_of(s.ev.time);
            self.buckets[(s.day & mask) as usize].push(s);
            slot += 1;
        }
        self.scratch.clear();
    }

    /// Pins the bucket width (tests only): lets boundary-exact event times be
    /// constructed against a known width, which normal calibration would
    /// perturb.
    #[cfg(test)]
    fn set_width_for_test(&mut self, width: f64) {
        assert_eq!(self.len, 0, "set the width before scheduling");
        self.width = width;
        self.inv_width = 1.0 / width;
    }

    /// A bucket width matched to the pending events: [`WIDTH_FACTOR`] times the
    /// mean positive gap between adjacent event times in a sorted sample. Falls
    /// back to the current width when there are too few events (or only ties)
    /// to estimate a gap. The sample lives on the stack — rebuilds allocate
    /// nothing.
    fn calibrated_width(&self, events: &[Slot]) -> f64 {
        if events.len() < 2 {
            return self.width;
        }
        let mut sample = [0.0f64; WIDTH_SAMPLE];
        let n = events.len().min(WIDTH_SAMPLE);
        for (dst, s) in sample[..n].iter_mut().zip(events) {
            *dst = s.ev.time;
        }
        let sample = &mut sample[..n];
        sample.sort_by(f64::total_cmp);
        let (mut sum, mut gaps) = (0.0f64, 0usize);
        for pair in sample.windows(2) {
            let gap = pair[1] - pair[0];
            if gap > 0.0 {
                sum += gap;
                gaps += 1;
            }
        }
        if gaps == 0 {
            return self.width;
        }
        let width = WIDTH_FACTOR * sum / gaps as f64;
        if width.is_finite() && width > f64::MIN_POSITIVE {
            width
        } else {
            self.width
        }
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
    fn new_queue_starts_minimal_and_adapts() {
        // The calendar must start at its minimum size: a pre-sized,
        // almost-empty calendar would immediately shrink itself back down
        // through a chain of rebuilds (see the constructor docs).
        let q = EventQueue::new();
        assert_eq!(q.pending(), 0);
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.num_buckets(), MIN_BUCKETS);
    }

    #[test]
    fn calendar_grows_and_shrinks_with_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.num_buckets(), MIN_BUCKETS);
        // Push far past 2 events/bucket: the calendar must grow.
        for i in 0..400u32 {
            q.schedule_at(i as f64 * 0.5, EventKind::ChannelFree { channel: i });
        }
        assert!(q.num_buckets() >= 128, "grew to {}", q.num_buckets());
        assert!(q.bucket_width() > 0.0);
        // Drain most of it: the calendar must shrink back down.
        let mut last = -1.0f64;
        for _ in 0..390 {
            let e = q.pop().unwrap();
            assert!(e.time >= last);
            last = e.time;
        }
        assert!(q.num_buckets() < 128, "shrank to {}", q.num_buckets());
        assert_eq!(q.pending(), 10);
        assert_eq!(q.processed(), 390);
    }

    #[test]
    fn sparse_schedules_trigger_recalibration_and_stay_ordered() {
        // Event times spread over many orders of magnitude force year-overflow
        // scans; pops must stay correctly ordered and the width must adapt.
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
        // Regression: day membership must use the same `time / width`
        // truncation as insertion. With this width, A = fl(868·width) exactly,
        // yet trunc(A/width) = 867 — a recomputed bucket edge
        // `top = (day+1)·width` would classify A as "next day" while it sits
        // in day 867's bucket, skip it during the scan of day 867, and pop the
        // later event B first (clock moving backwards).
        let width = 1.3522987986828883f64;
        let a = 1173.795357256747f64; // == fl(868 * width), trunc(a/width) == 867
        assert_eq!((a / width) as u64, 867);
        assert_eq!(868.0 * width, a);
        let mut q = EventQueue::new();
        q.set_width_for_test(width);
        let t0 = 860.0 * width; // brings `now` within one year of day 867
        q.schedule_at(t0, EventKind::ChannelFree { channel: 0 });
        q.schedule_at(a, EventKind::ChannelFree { channel: 1 });
        q.schedule_at(a + 0.5, EventKind::ChannelFree { channel: 2 }); // day 868
        assert_eq!(q.pop().unwrap().time, t0);
        let second = q.pop().unwrap();
        assert_eq!(second.time, a, "boundary-exact event popped out of order");
        assert_eq!(second.seq, 1);
        assert_eq!(q.pop().unwrap().time, a + 0.5);
    }

    #[test]
    fn processed_and_pending_stay_consistent_across_resizes() {
        let mut q = EventQueue::new();
        let mut scheduled = 0u64;
        let mut popped = 0u64;
        // Interleave bursts of pushes with partial drains so the calendar
        // crosses grow and shrink thresholds repeatedly.
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
}
