//! Channel occupancy tracking for wormhole flow control.
//!
//! Every unidirectional channel of every network instance is represented by one slot in
//! the [`ChannelPool`]: a busy flag (the channel is part of some worm's path and has
//! not been released yet), a FIFO of messages waiting to acquire it (paper assumption 4:
//! one flit buffer per channel — the worm behind simply blocks in place) and the
//! per-flit transfer time of the channel (`t_cn` for node↔switch channels, `t_cs` for
//! switch↔switch channels).
//!
//! Waiter FIFOs are **allocation-free for the uncontended majority**: instead of
//! one `VecDeque` per channel (thousands of eager heap allocations, almost all
//! of which never see a waiter), every channel carries only a `(head, tail)`
//! pair of indices into one pool-wide `WaiterArena` of singly-linked nodes.
//! A link node is taken from the arena's free list only when a message actually
//! has to wait, and returns to it at hand-off — so steady-state contention
//! recycles a handful of nodes and an uncontended run allocates nothing at all.

use crate::event::MessageId;

/// Global identifier of a channel across all network instances of the simulation.
pub type GlobalChannelId = u32;

/// Sentinel for "no link node" in the waiter arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// Sentinel for "no holder" in [`HotChannel::holder`] (message slab slots
/// never reach `u32::MAX`).
const NO_HOLDER: u32 = u32::MAX;

/// The per-channel state read by every acquisition attempt, packed into one
/// 16-byte record so the hot path (grant test, occupancy probe, release) and
/// the adaptive candidate scan touch a single dense array. Everything an
/// acquisition does *not* need — the FIFO tail, the busy-time accounting, the
/// fault flags — lives in parallel cold arrays of the [`ChannelPool`].
#[derive(Debug, Clone, Copy)]
struct HotChannel {
    /// Time at which a lazily released channel becomes free again. When the
    /// holder's tail passes with nobody waiting, no release event is scheduled;
    /// the channel simply records its future free time and the next acquirer
    /// compares against it.
    free_at: f64,
    /// The message currently holding the channel, or [`NO_HOLDER`].
    holder: u32,
    /// First waiter link node in the shared [`WaiterArena`], or [`NIL`].
    waiters_head: u32,
}

impl HotChannel {
    /// An idle channel: free since time 0, no holder, no waiters.
    const IDLE: HotChannel = HotChannel { free_at: 0.0, holder: NO_HOLDER, waiters_head: NIL };
}

/// One singly-linked FIFO node of the shared waiter storage.
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    message: MessageId,
    next: u32,
}

/// Pool-wide storage for every channel's waiter FIFO: a slab of link nodes with
/// a free list. Grows only under real contention and recycles nodes forever.
#[derive(Debug, Default)]
struct WaiterArena {
    nodes: Vec<WaiterNode>,
    free: Vec<u32>,
}

impl WaiterArena {
    fn alloc(&mut self, message: MessageId) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = WaiterNode { message, next: NIL };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(WaiterNode { message, next: NIL });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> WaiterNode {
        self.free.push(idx);
        self.nodes[idx as usize]
    }
}

/// All channels of the simulated system.
#[derive(Debug)]
pub struct ChannelPool {
    /// Hot per-channel records (see [`HotChannel`]).
    hot: Vec<HotChannel>,
    /// Last waiter link node per channel, or [`NIL`] (push-back is O(1)).
    /// Cold: touched only when a FIFO actually grows or shrinks.
    waiters_tail: Vec<u32>,
    /// Simulation time at which each current holder acquired its channel.
    /// Cold: busy-time accounting only.
    held_since: Vec<f64>,
    /// Accumulated busy time per channel. Cold: utilisation reporting only.
    busy_time: Vec<f64>,
    /// Per-flit transfer time of each channel.
    flit_times: Vec<f64>,
    /// Shared waiter-FIFO storage (see [`WaiterArena`]).
    waiters: WaiterArena,
    /// Total number of acquisitions that had to wait (contention events), for
    /// diagnostics.
    contention_events: u64,
    /// Total number of acquisitions.
    acquisitions: u64,
    /// Disabled (faulted) channels. Allocated lazily on the first
    /// [`set_disabled`](Self::set_disabled) call so fault-free runs pay only an
    /// `is_empty` check on the acquisition path.
    disabled: Vec<bool>,
    /// Number of waiter link nodes currently queued across all channels. Must
    /// equal `waiters.nodes.len() - waiters.free.len()` at all times — the
    /// invariant that proves fault aborts reclaim every arena node.
    live_waiters: usize,
}

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquire {
    /// The channel was free and is now held by the requesting message.
    Granted,
    /// The channel is busy; the message was appended to its FIFO and an already
    /// pending hand-off (the holder's release or an earlier waiter's wakeup)
    /// will reach it.
    Queued,
    /// The channel was released lazily and becomes free at the returned time;
    /// the message is the first waiter, so the caller must schedule a wakeup
    /// ([`ChannelPool::handoff`]) at exactly that time.
    QueuedUntil(f64),
}

impl ChannelPool {
    /// Creates a pool of `count` channels with the given per-flit times.
    pub fn new(flit_times: Vec<f64>) -> Self {
        let n = flit_times.len();
        ChannelPool {
            hot: vec![HotChannel::IDLE; n],
            waiters_tail: vec![NIL; n],
            held_since: vec![0.0; n],
            busy_time: vec![0.0; n],
            flit_times,
            waiters: WaiterArena::default(),
            contention_events: 0,
            acquisitions: 0,
            disabled: Vec::new(),
            live_waiters: 0,
        }
    }

    /// Rewinds every channel to idle and forgets all waiter, fault and
    /// diagnostic state — field-for-field what [`ChannelPool::new`] produces
    /// over the same flit times, but keeping the channel-state storage, the
    /// waiter arena's node capacity and the disabled set's allocation.
    pub fn reset(&mut self) {
        debug_assert_eq!(self.live_waiters, 0, "reset with waiters still queued");
        self.hot.fill(HotChannel::IDLE);
        self.waiters_tail.fill(NIL);
        self.held_since.fill(0.0);
        self.busy_time.fill(0.0);
        self.waiters.nodes.clear();
        self.waiters.free.clear();
        self.contention_events = 0;
        self.acquisitions = 0;
        for down in &mut self.disabled {
            *down = false;
        }
        self.live_waiters = 0;
    }

    /// Number of channels in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// `true` if the pool has no channels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Per-flit transfer time of a channel.
    #[inline]
    pub fn flit_time(&self, ch: GlobalChannelId) -> f64 {
        self.flit_times[ch as usize]
    }

    /// The message currently holding the channel, if any.
    #[inline]
    pub fn holder(&self, ch: GlobalChannelId) -> Option<MessageId> {
        let holder = self.hot[ch as usize].holder;
        (holder != NO_HOLDER).then_some(holder)
    }

    /// Number of messages waiting on a channel (diagnostic; walks the FIFO).
    pub fn queue_len(&self, ch: GlobalChannelId) -> usize {
        self.waiters(ch).count()
    }

    /// The waiters of a channel, oldest first (walks the FIFO).
    pub fn waiters(&self, ch: GlobalChannelId) -> impl Iterator<Item = MessageId> + '_ {
        let mut idx = self.hot[ch as usize].waiters_head;
        std::iter::from_fn(move || {
            let node = self.waiters.nodes.get(idx as usize)?;
            idx = node.next;
            Some(node.message)
        })
    }

    /// Number of waiter link nodes ever allocated (diagnostic: the peak of
    /// simultaneous waiting across the whole pool, not per channel).
    pub fn waiter_nodes_allocated(&self) -> usize {
        self.waiters.nodes.len()
    }

    /// Fraction of acquisitions that had to wait, over the whole run.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contention_events as f64 / self.acquisitions as f64
        }
    }

    /// Checks the arena accounting invariant: every link node is either live in
    /// some channel's FIFO or on the free list. A violation means an aborted
    /// waiter leaked its node (or one was double-freed).
    #[inline]
    fn check_arena(&self) {
        debug_assert_eq!(
            self.waiters.nodes.len() - self.waiters.free.len(),
            self.live_waiters,
            "waiter arena leak: allocated nodes do not match live waiters"
        );
    }

    /// Appends a waiter to a channel's FIFO.
    fn push_waiter(&mut self, ch: GlobalChannelId, message: MessageId) {
        let node = self.waiters.alloc(message);
        let tail = self.waiters_tail[ch as usize];
        if tail == NIL {
            self.hot[ch as usize].waiters_head = node;
        } else {
            self.waiters.nodes[tail as usize].next = node;
        }
        self.waiters_tail[ch as usize] = node;
        self.live_waiters += 1;
        self.check_arena();
    }

    /// Removes and returns the oldest waiter of a channel, if any.
    fn pop_waiter(&mut self, ch: GlobalChannelId) -> Option<MessageId> {
        let head = self.hot[ch as usize].waiters_head;
        if head == NIL {
            return None;
        }
        let node = self.waiters.release(head);
        self.hot[ch as usize].waiters_head = node.next;
        if node.next == NIL {
            self.waiters_tail[ch as usize] = NIL;
        }
        self.live_waiters -= 1;
        self.check_arena();
        Some(node.message)
    }

    /// Number of messages currently waiting across all channels. Zero after a
    /// completed run: every waiter is eventually granted or aborted, and both
    /// paths reclaim the arena node.
    #[inline]
    pub fn live_waiters(&self) -> usize {
        self.live_waiters
    }

    /// Checks that the waiter arena is partitioned: every link node sits in
    /// exactly one channel's FIFO or on the free list, each FIFO's tail is
    /// its last node, and the live count matches. A violation means a leaked,
    /// double-freed or cross-linked node.
    pub fn audit(&self) -> Result<(), String> {
        let mut seen = vec![false; self.waiters.nodes.len()];
        let mut mark = |idx: u32| match seen.get_mut(idx as usize) {
            Some(slot) if !*slot => {
                *slot = true;
                Ok(())
            }
            Some(_) => Err(format!("waiter node {idx} is linked twice")),
            None => Err(format!("waiter node {idx} is out of the arena")),
        };
        let mut queued = 0;
        for ch in 0..self.hot.len() {
            let (mut idx, mut last) = (self.hot[ch].waiters_head, NIL);
            while idx != NIL {
                mark(idx)?;
                queued += 1;
                last = idx;
                idx = self.waiters.nodes[idx as usize].next;
            }
            if self.waiters_tail[ch] != last {
                return Err(format!("channel {ch}: waiter tail is not the FIFO's last node"));
            }
        }
        for &idx in &self.waiters.free {
            mark(idx)?;
        }
        if queued != self.live_waiters {
            return Err(format!("{queued} queued waiters but {} counted live", self.live_waiters));
        }
        match seen.iter().position(|&s| !s) {
            Some(idx) => Err(format!("waiter node {idx} is neither queued nor free")),
            None => Ok(()),
        }
    }

    /// Whether a channel is currently disabled by a fault.
    #[inline]
    pub fn is_disabled(&self, ch: GlobalChannelId) -> bool {
        !self.disabled.is_empty() && self.disabled[ch as usize]
    }

    /// Sets or clears a channel's disabled (faulted) flag. Overlapping fault
    /// targets may share channels; the flag reflects the last action applied,
    /// so callers skip redundant transitions rather than asserting on them.
    pub fn set_disabled(&mut self, ch: GlobalChannelId, down: bool) {
        if self.disabled.is_empty() {
            self.disabled = vec![false; self.hot.len()];
        }
        self.disabled[ch as usize] = down;
    }

    /// Removes and returns every waiter of a channel in FIFO order — the first
    /// step of taking a channel down. All arena nodes are reclaimed.
    pub fn drain_waiters(&mut self, ch: GlobalChannelId) -> Vec<MessageId> {
        let mut drained = Vec::new();
        while let Some(message) = self.pop_waiter(ch) {
            drained.push(message);
        }
        self.check_arena();
        drained
    }

    /// Unlinks `message` from a channel's waiter FIFO, reclaiming its arena
    /// node. Returns `false` if the message was not queued there (it is mid
    /// crossing with a pending event instead).
    pub fn remove_waiter(&mut self, ch: GlobalChannelId, message: MessageId) -> bool {
        let mut prev = NIL;
        let mut idx = self.hot[ch as usize].waiters_head;
        while idx != NIL {
            let node = self.waiters.nodes[idx as usize];
            if node.message == message {
                if prev == NIL {
                    self.hot[ch as usize].waiters_head = node.next;
                } else {
                    self.waiters.nodes[prev as usize].next = node.next;
                }
                if self.waiters_tail[ch as usize] == idx {
                    self.waiters_tail[ch as usize] = prev;
                }
                self.waiters.release(idx);
                self.live_waiters -= 1;
                self.check_arena();
                return true;
            }
            prev = idx;
            idx = node.next;
        }
        false
    }

    /// Whether a scheduled channel wakeup is still meaningful: the channel is
    /// enabled, unheld, and past any lazy free time. Fault aborts can orphan a
    /// wakeup (its waiter was removed and the channel re-acquired, re-released
    /// to a later free time, or disabled since) — the engine drops those.
    #[inline]
    pub fn can_handoff(&self, ch: GlobalChannelId, now: f64) -> bool {
        let hot = &self.hot[ch as usize];
        !self.is_disabled(ch) && hot.holder == NO_HOLDER && now >= hot.free_at
    }

    /// Attempts to acquire a channel for `message` at simulation time `now`: grants it
    /// immediately if free, otherwise queues the message in FIFO order.
    ///
    /// A channel is free when it has no holder, no earlier waiter, and any lazy
    /// release time has passed. A return of [`Acquire::QueuedUntil`] obliges the
    /// caller to schedule a [`handoff`](Self::handoff) at the returned time —
    /// the channel was released lazily (no event pending) and this message is
    /// the first waiter.
    pub fn acquire(&mut self, ch: GlobalChannelId, message: MessageId, now: f64) -> Acquire {
        debug_assert!(!self.is_disabled(ch), "acquiring a disabled channel");
        self.acquisitions += 1;
        let hot = &mut self.hot[ch as usize];
        if hot.holder == NO_HOLDER && hot.waiters_head == NIL && now >= hot.free_at {
            hot.holder = message;
            self.held_since[ch as usize] = now;
            Acquire::Granted
        } else {
            debug_assert_ne!(hot.holder, message, "message acquiring a channel twice");
            self.contention_events += 1;
            let first = hot.holder == NO_HOLDER && hot.waiters_head == NIL;
            let free_at = hot.free_at;
            self.push_waiter(ch, message);
            if first {
                Acquire::QueuedUntil(free_at)
            } else {
                Acquire::Queued
            }
        }
    }

    /// Marks the channel held by `message` as released at (the possibly future)
    /// time `at` — called when the holder's header is delivered and all release
    /// times along its path become known.
    ///
    /// If somebody is waiting, the caller must schedule a
    /// [`handoff`](Self::handoff) at exactly `at` (returned as `Some`). With no
    /// waiters the release is lazy: the channel records `free_at = at` and no
    /// event is needed — a later acquirer either finds the time passed (grant)
    /// or schedules the wakeup itself ([`Acquire::QueuedUntil`]).
    ///
    /// # Panics
    /// Panics (in debug builds) if the channel is not held by `message`.
    pub fn mark_released(
        &mut self,
        ch: GlobalChannelId,
        message: MessageId,
        at: f64,
    ) -> Option<f64> {
        let hot = &mut self.hot[ch as usize];
        debug_assert_eq!(hot.holder, message, "releasing a channel not held");
        hot.holder = NO_HOLDER;
        hot.free_at = at;
        let waiting = hot.waiters_head != NIL;
        self.busy_time[ch as usize] += at - self.held_since[ch as usize];
        if waiting {
            Some(at)
        } else {
            None
        }
    }

    /// Hands a released channel to the oldest waiter at simulation time `now`
    /// (the firing of a scheduled wakeup). Returns the new holder so the engine
    /// can resume it, or `None` if no waiter is left.
    pub fn handoff(&mut self, ch: GlobalChannelId, now: f64) -> Option<MessageId> {
        debug_assert!(self.hot[ch as usize].holder == NO_HOLDER, "hand-off on a held channel");
        debug_assert!(now >= self.hot[ch as usize].free_at, "hand-off before the channel is free");
        let next = self.pop_waiter(ch)?;
        self.hot[ch as usize].holder = next;
        self.held_since[ch as usize] = now;
        Some(next)
    }

    /// Renames the holder of a channel — the engine promotes a source-queue
    /// record to a message at the grant of its injection channel, and the
    /// channel must then name the message.
    #[inline]
    pub fn relabel_holder(&mut self, ch: GlobalChannelId, from: MessageId, to: MessageId) {
        let hot = &mut self.hot[ch as usize];
        debug_assert_eq!(hot.holder, from, "relabelling a channel held by someone else");
        hot.holder = to;
    }

    /// `true` if the channel is occupied at time `now`: either held by a worm's
    /// header or still draining a lazily released tail (`now < free_at`).
    #[inline]
    pub fn is_occupied(&self, ch: GlobalChannelId, now: f64) -> bool {
        let hot = &self.hot[ch as usize];
        hot.holder != NO_HOLDER || now < hot.free_at
    }

    /// Number of channels occupied at time `now` (diagnostic). Counts both held
    /// channels and lazily released channels whose free time has not yet passed,
    /// so a stuck or leaked channel cannot hide behind a cleared holder.
    pub fn busy_count(&self, now: f64) -> usize {
        (0..self.hot.len() as GlobalChannelId).filter(|&ch| self.is_occupied(ch, now)).count()
    }

    /// Time-average utilisation of one channel over `[0, now]` (fraction of time the
    /// channel was held). Returns 0 before any time has elapsed.
    pub fn utilization(&self, ch: GlobalChannelId, now: f64) -> f64 {
        if now <= 0.0 {
            return 0.0;
        }
        let in_flight = if self.hot[ch as usize].holder != NO_HOLDER {
            now - self.held_since[ch as usize]
        } else {
            0.0
        };
        ((self.busy_time[ch as usize] + in_flight) / now).clamp(0.0, 1.0)
    }

    /// `(mean, max)` utilisation over an arbitrary subset of channels at time `now`.
    pub fn utilization_summary<I: IntoIterator<Item = GlobalChannelId>>(
        &self,
        channels: I,
        now: f64,
    ) -> (f64, f64) {
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for ch in channels {
            let u = self.utilization(ch, now);
            sum += u;
            max = max.max(u);
            count += 1;
        }
        if count == 0 {
            (0.0, 0.0)
        } else {
            (sum / count as f64, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ChannelPool {
        ChannelPool::new(vec![0.5; n])
    }

    #[test]
    fn grant_and_release_without_contention() {
        let mut p = pool(2);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.acquire(0, 7, 0.0), Acquire::Granted);
        assert_eq!(p.holder(0), Some(7));
        assert_eq!(p.holder(1), None);
        // No waiters: the release is lazy (no wakeup needed). The holder is
        // cleared immediately, but the channel stays *occupied* until the
        // recorded free time passes.
        assert_eq!(p.mark_released(0, 7, 1.0), None);
        assert_eq!(p.holder(0), None);
        assert!(p.is_occupied(0, 0.5));
        assert!(!p.is_occupied(0, 1.0));
        assert_eq!(p.contention_ratio(), 0.0);
        assert_eq!(p.flit_time(1), 0.5);
        // After the free time has passed, the channel grants directly again.
        assert_eq!(p.acquire(0, 8, 1.0), Acquire::Granted);
        // An entirely uncontended history allocates no waiter storage at all.
        assert_eq!(p.waiter_nodes_allocated(), 0);
    }

    #[test]
    fn lazily_freed_channel_defers_early_acquirers() {
        let mut p = pool(1);
        assert_eq!(p.acquire(0, 1, 0.0), Acquire::Granted);
        assert_eq!(p.mark_released(0, 1, 5.0), None);
        // An acquire before the free time queues and must schedule the wakeup.
        assert_eq!(p.acquire(0, 2, 2.0), Acquire::QueuedUntil(5.0));
        // A second early acquirer just queues behind it.
        assert_eq!(p.acquire(0, 3, 3.0), Acquire::Queued);
        assert_eq!(p.queue_len(0), 2);
        // The wakeup grants FIFO order.
        assert_eq!(p.handoff(0, 5.0), Some(2));
        assert_eq!(p.holder(0), Some(2));
        assert_eq!(p.queue_len(0), 1);
    }

    #[test]
    fn fifo_handoff_on_release() {
        let mut p = pool(1);
        assert_eq!(p.acquire(0, 1, 0.0), Acquire::Granted);
        assert_eq!(p.acquire(0, 2, 0.1), Acquire::Queued);
        assert_eq!(p.acquire(0, 3, 0.2), Acquire::Queued);
        assert_eq!(p.queue_len(0), 2);
        // With waiters present the release demands a scheduled hand-off, which
        // grants message 2 (FIFO), then 3.
        assert_eq!(p.mark_released(0, 1, 1.0), Some(1.0));
        assert_eq!(p.handoff(0, 1.0), Some(2));
        assert_eq!(p.holder(0), Some(2));
        assert_eq!(p.mark_released(0, 2, 2.0), Some(2.0));
        assert_eq!(p.handoff(0, 2.0), Some(3));
        assert_eq!(p.mark_released(0, 3, 3.0), None);
        assert!(p.contention_ratio() > 0.0);
    }

    #[test]
    fn waiter_nodes_are_recycled_across_channels() {
        let mut p = pool(2);
        // Contend on channel 0: two link nodes get allocated.
        p.acquire(0, 1, 0.0);
        p.acquire(0, 2, 0.1);
        p.acquire(0, 3, 0.2);
        assert_eq!(p.waiter_nodes_allocated(), 2);
        p.mark_released(0, 1, 1.0);
        p.handoff(0, 1.0);
        p.mark_released(0, 2, 2.0);
        p.handoff(0, 2.0);
        assert_eq!(p.queue_len(0), 0);
        // Later contention on a *different* channel reuses the freed nodes.
        p.acquire(1, 4, 3.0);
        p.acquire(1, 5, 3.1);
        p.acquire(1, 6, 3.2);
        assert_eq!(p.queue_len(1), 2);
        assert_eq!(p.waiter_nodes_allocated(), 2, "freed link nodes must be reused");
        assert_eq!(p.mark_released(1, 4, 4.0), Some(4.0));
        assert_eq!(p.handoff(1, 4.0), Some(5));
        assert_eq!(p.queue_len(1), 1, "message 6 still waits behind the new holder");
    }

    #[test]
    fn busy_count_tracks_holders() {
        let mut p = pool(4);
        p.acquire(0, 1, 0.0);
        p.acquire(2, 1, 0.0);
        p.acquire(3, 2, 0.0);
        assert_eq!(p.busy_count(0.0), 3);
        p.mark_released(2, 1, 1.0);
        // The lazily released channel counts as occupied until its free time.
        assert_eq!(p.busy_count(0.5), 3);
        assert_eq!(p.busy_count(1.0), 2);
    }

    #[test]
    fn utilization_accounts_for_busy_time() {
        let mut p = pool(2);
        // Channel 0 busy over [0, 4] and [6, 8]; channel 1 never used.
        p.acquire(0, 1, 0.0);
        p.mark_released(0, 1, 4.0);
        p.acquire(0, 2, 6.0);
        p.mark_released(0, 2, 8.0);
        assert!((p.utilization(0, 10.0) - 0.6).abs() < 1e-12);
        assert_eq!(p.utilization(1, 10.0), 0.0);
        assert_eq!(p.utilization(0, 0.0), 0.0);
        // A currently-held channel counts its in-flight time.
        p.acquire(1, 3, 5.0);
        assert!((p.utilization(1, 10.0) - 0.5).abs() < 1e-12);
        let (mean, max) = p.utilization_summary([0u32, 1u32], 10.0);
        assert!((mean - 0.55).abs() < 1e-12);
        assert!((max - 0.6).abs() < 1e-12);
        assert_eq!(p.utilization_summary(std::iter::empty(), 10.0), (0.0, 0.0));
    }

    #[test]
    fn continuous_handoff_counts_as_continuously_busy() {
        let mut p = pool(1);
        p.acquire(0, 1, 0.0);
        p.acquire(0, 2, 1.0);
        assert_eq!(p.mark_released(0, 1, 3.0), Some(3.0));
        assert_eq!(p.handoff(0, 3.0), Some(2));
        p.mark_released(0, 2, 5.0);
        assert!((p.utilization(0, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not held")]
    fn releasing_unheld_channel_panics() {
        let mut p = pool(1);
        p.mark_released(0, 9, 0.0);
    }

    #[test]
    fn drain_waiters_returns_fifo_order_and_reclaims_nodes() {
        let mut p = pool(1);
        p.acquire(0, 1, 0.0);
        p.acquire(0, 2, 0.1);
        p.acquire(0, 3, 0.2);
        p.acquire(0, 4, 0.3);
        assert_eq!(p.live_waiters(), 3);
        assert_eq!(p.waiters(0).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(p.audit(), Ok(()));
        assert_eq!(p.drain_waiters(0), vec![2, 3, 4]);
        assert_eq!(p.audit(), Ok(()));
        assert_eq!(p.live_waiters(), 0);
        assert_eq!(p.queue_len(0), 0);
        // The nodes went back to the free list, not leaked: fresh contention
        // reuses them without growing the arena.
        p.acquire(0, 5, 1.0);
        p.acquire(0, 6, 1.1);
        assert_eq!(p.waiter_nodes_allocated(), 3);
    }

    #[test]
    fn remove_waiter_unlinks_head_middle_and_tail() {
        let mut p = pool(1);
        p.acquire(0, 1, 0.0);
        for (i, m) in [2, 3, 4, 5].into_iter().enumerate() {
            p.acquire(0, m, 0.1 + i as f64 * 0.1);
        }
        assert!(p.remove_waiter(0, 3), "middle");
        assert!(p.remove_waiter(0, 2), "head");
        assert!(p.remove_waiter(0, 5), "tail");
        assert!(!p.remove_waiter(0, 9), "absent message is reported, not invented");
        assert_eq!(p.queue_len(0), 1);
        assert_eq!(p.live_waiters(), 1);
        assert_eq!(p.audit(), Ok(()));
        // The surviving waiter still hands off normally, and a push after a
        // tail removal re-links correctly.
        p.acquire(0, 6, 1.0);
        assert_eq!(p.mark_released(0, 1, 2.0), Some(2.0));
        assert_eq!(p.handoff(0, 2.0), Some(4));
        assert_eq!(p.queue_len(0), 1);
        assert_eq!(p.live_waiters(), 1);
    }

    #[test]
    fn relabelled_holder_releases_under_its_new_name() {
        let mut p = pool(1);
        assert_eq!(p.acquire(0, 1 << 31, 0.0), Acquire::Granted);
        p.relabel_holder(0, 1 << 31, 4);
        assert_eq!(p.holder(0), Some(4));
        assert_eq!(p.mark_released(0, 4, 1.0), None);
    }

    #[test]
    fn audit_catches_a_leaked_waiter_node() {
        let mut p = pool(2);
        p.acquire(0, 1, 0.0);
        p.acquire(0, 2, 0.1);
        p.acquire(1, 3, 0.0);
        p.acquire(1, 4, 0.1);
        assert_eq!(p.audit(), Ok(()));
        // Unlinking a node without freeing it leaks it.
        p.hot[1].waiters_head = NIL;
        p.waiters_tail[1] = NIL;
        p.live_waiters -= 1;
        assert!(p.audit().unwrap_err().contains("neither queued nor free"));
    }

    #[test]
    fn disabled_set_is_lazy_and_gates_handoff_readiness() {
        let mut p = pool(2);
        assert!(!p.is_disabled(0));
        assert!(p.can_handoff(0, 0.0));
        p.set_disabled(0, true);
        assert!(p.is_disabled(0));
        assert!(!p.is_disabled(1));
        assert!(!p.can_handoff(0, 5.0));
        p.set_disabled(0, false);
        assert!(p.can_handoff(0, 5.0));
        // A held or still-draining channel is not ready for a hand-off either.
        p.acquire(1, 7, 0.0);
        assert!(!p.can_handoff(1, 1.0));
        p.mark_released(1, 7, 3.0);
        assert!(!p.can_handoff(1, 2.0));
        assert!(p.can_handoff(1, 3.0));
    }
}
