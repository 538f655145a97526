//! Batched message generation: the per-node next-arrival queue.
//!
//! Every node runs an independent Poisson process, so at any instant the engine
//! knows each node's *next* arrival time. Scheduling those arrivals through the
//! future-event list costs a queue round-trip per message (plus a popped no-op
//! event per node at the end of the generation phase). The [`ArrivalQueue`]
//! keeps them out of the future-event list entirely: a tournament (loser) tree
//! over one leaf per node, where drawing a node's next arrival is a
//! [`replace_min`](ArrivalQueue::replace_min) — one leaf-to-root replay of
//! branch-free compares, no allocation, no push/pop pair. The engine's main
//! loop fires whichever of (earliest future event, earliest arrival) comes
//! first; at equal instants the future-event list wins (a fixed, documented
//! tie-break — see `PERFORMANCE.md`).
//!
//! Ordering among arrivals is by `(time, node)`, a strict total order, so runs
//! remain fully deterministic even if two nodes' exponential draws ever
//! coincide exactly, and the pop order is the one any correct priority queue
//! over that order produces.

/// The time part of an absent (never armed, retired or cleared) node's key:
/// above every armed key's.
const ABSENT_TIME: u64 = u64::MAX;

/// The node part of an absent node's key.
const ABSENT_NODE: u32 = u32::MAX;

/// The integer time key: the time's bits, transformed so that unsigned order
/// is `f64` order (the transform of `event.rs`'s `order_key`).
#[inline]
fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The time a [`time_key`] was made from.
#[inline]
fn key_time(key: u64) -> f64 {
    let signed = key ^ (1 << 63);
    f64::from_bits(signed ^ ((((signed as i64) >> 63) as u64) >> 1))
}

/// A min-queue of per-node next-arrival times: a loser tree.
///
/// Node `x` is leaf `leaves + x` of an implicit complete binary tree with a
/// power-of-two number of leaves. For internal node `p`, `(time[p], node[p])`
/// is the `(time key, node)` that lost the match between the winners of `p`'s
/// two subtrees, and slot 0 holds the overall winner. Every leaf's key is
/// therefore held exactly once; absent nodes and the leaves past the last
/// node hold `(ABSENT_TIME, ABSENT_NODE)`. The two halves of a key live in
/// parallel arrays so that a match is a branch-free compare and select on
/// two machine words.
#[derive(Debug, Clone)]
pub struct ArrivalQueue {
    time: Vec<u64>,
    node: Vec<u32>,
    /// Armed nodes.
    len: usize,
}

impl Default for ArrivalQueue {
    fn default() -> Self {
        ArrivalQueue::with_capacity(0)
    }
}

impl ArrivalQueue {
    /// Creates an empty queue with a leaf for each of `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let leaves = nodes.next_power_of_two();
        ArrivalQueue { time: vec![ABSENT_TIME; leaves], node: vec![ABSENT_NODE; leaves], len: 0 }
    }

    /// Number of pending arrivals.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no arrival is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest pending `(time, node)`, if any.
    #[inline]
    pub fn peek(&self) -> Option<(f64, u32)> {
        let node = self.node[0];
        (node != ABSENT_NODE).then(|| (key_time(self.time[0]), node))
    }

    /// Arms a node that has no pending arrival (`O(log n)`). A node past the
    /// current capacity grows the tree.
    pub fn push(&mut self, time: f64, node: u32) {
        debug_assert!(node != ABSENT_NODE, "node index {node} is reserved");
        if node as usize >= self.node.len() {
            self.grow(node as usize + 1);
        }
        let old = self.set(node, time_key(time));
        debug_assert_eq!(old, ABSENT_TIME, "node {node} pushed while already armed");
        self.len += 1;
    }

    /// Replaces the earliest arrival (the one just fired) with the same node's
    /// next draw — one leaf-to-root replay, the whole cost of keeping a node's
    /// Poisson process alive.
    ///
    /// # Panics
    /// Panics if the queue is empty (debug) or used before a fire (the new time
    /// must not precede the fired one).
    pub fn replace_min(&mut self, time: f64) {
        debug_assert!(self.node[0] != ABSENT_NODE, "replace_min on an empty arrival queue");
        debug_assert!(time >= key_time(self.time[0]), "a node's next arrival precedes its last");
        self.replay(self.node[0], time_key(time));
    }

    /// Removes and returns the earliest arrival — used when its node's source
    /// is exhausted (finite traces) and has no next draw to re-arm with.
    pub fn pop_min(&mut self) -> Option<(f64, u32)> {
        let min = self.peek()?;
        self.replay(min.1, ABSENT_TIME);
        self.len -= 1;
        Some(min)
    }

    /// Replaces every pending arrival with one per node: the `i`-th item is
    /// node `i`'s first arrival, `None` leaving the node unarmed (as a node
    /// absent from a trace). A bottom-up build in `O(n)`, where `n`
    /// [`push`](Self::push)es cost `O(n log n)`; the tree is the one those
    /// pushes build, so it pops in the same order. More items than the
    /// capacity grow the tree.
    pub fn rebuild(&mut self, arrivals: impl ExactSizeIterator<Item = Option<f64>>) {
        if arrivals.len() > self.node.len() {
            *self = ArrivalQueue::with_capacity(arrivals.len());
        } else {
            self.clear();
        }
        let leaves = self.node.len();
        // Each key starts in the slot `winner_slot` gives its leaf; the
        // matches are then played level by level, each in place between its
        // two contestants' slots: the loser stays at the internal node and the
        // winner moves to where the match above expects it.
        for (node, time) in arrivals.enumerate() {
            if let Some(time) = time {
                let slot = winner_slot(leaves, node);
                (self.time[slot], self.node[slot]) = (time_key(time), node as u32);
                self.len += 1;
            }
        }
        // The `m` matches one level above `2m` contestants: match `j` is
        // internal node `m + j`, its contestants wait at `m + j` and
        // `winner_slot(m, j)`.
        let mut m = leaves / 2;
        while m > 0 {
            for j in 0..m {
                let (at, to) = (m + j, winner_slot(m, j));
                if (self.time[at], self.node[at]) < (self.time[to], self.node[to]) {
                    self.time.swap(at, to);
                    self.node.swap(at, to);
                }
            }
            m /= 2;
        }
    }

    /// Removes every pending arrival (the generation phase is over), keeping
    /// the capacity.
    pub fn clear(&mut self) {
        self.time.fill(ABSENT_TIME);
        self.node.fill(ABSENT_NODE);
        self.len = 0;
    }

    /// Replays the matches on the path from `node`'s leaf to the root with
    /// the leaf holding time key `time` (`ABSENT_TIME` retires the node).
    /// Valid when every internal node on the path holds the winner of the
    /// subtree off the path: the case on the current winner's path (it won
    /// every match on it) and what [`ArrivalQueue::set`] arranges for any
    /// other leaf.
    #[inline]
    fn replay(&mut self, node: u32, time: u64) {
        let (mut win_time, mut win_node) =
            (time, if time == ABSENT_TIME { ABSENT_NODE } else { node });
        let mut p = (self.node.len() + node as usize) >> 1;
        while p > 0 {
            let (time, node) = (self.time[p], self.node[p]);
            let held_wins = (time < win_time) | ((time == win_time) & (node < win_node));
            // Word-wise selects, so the match compiles to conditional moves.
            self.time[p] = if held_wins { win_time } else { time };
            self.node[p] = if held_wins { win_node } else { node };
            win_time = if held_wins { time } else { win_time };
            win_node = if held_wins { node } else { win_node };
            p >>= 1;
        }
        (self.time[0], self.node[0]) = (win_time, win_node);
    }

    /// Sets `node`'s leaf to time key `time` and returns its previous time
    /// key. Walking down from the root, the winner of the subtree being
    /// entered is carried along; where it came from off the path it is
    /// exchanged with the loser held there, so each internal node on the path
    /// ends up holding the winner of its subtree off the path and the carried
    /// key ends as the leaf's own. The replay back up then rebuilds the path.
    fn set(&mut self, node: u32, time: u64) -> u64 {
        let leaves = self.node.len();
        let leaf = leaves + node as usize;
        let mut carried = (self.time[0], self.node[0]);
        for level in (1..=leaves.trailing_zeros()).rev() {
            // An absent winner means the whole subtree is absent: nothing to
            // exchange.
            if carried.1 != ABSENT_NODE
                && (leaves + carried.1 as usize) >> (level - 1) != leaf >> (level - 1)
            {
                let p = leaf >> level;
                let held = (self.time[p], self.node[p]);
                (self.time[p], self.node[p]) = carried;
                carried = held;
            }
        }
        self.replay(node, time);
        carried.0
    }

    /// Rebuilds the tree with room for at least `nodes` nodes, re-arming every
    /// pending arrival (each leaf's key is held exactly once).
    fn grow(&mut self, nodes: usize) {
        let armed: Vec<(u64, u32)> = self
            .time
            .iter()
            .zip(&self.node)
            .filter(|&(_, &n)| n != ABSENT_NODE)
            .map(|(&t, &n)| (t, n))
            .collect();
        *self = ArrivalQueue { len: self.len, ..ArrivalQueue::with_capacity(nodes) };
        for (time, node) in armed {
            self.set(node, time);
        }
    }
}

/// Where [`ArrivalQueue::rebuild`] keeps contestant `j` of a level of `m`
/// (a power of two) until its match. Contestants `2i` and `2i + 1` meet at
/// internal node `m/2 + i`: the even one waits at that node, where the loser
/// stays, and the odd one where the winner goes, the slot of contestant `i`
/// one level up. Unrolling that over a run of `t` trailing one bits gives the
/// closed form. Over `j < m` the slots are a permutation of `0..m`.
#[inline]
fn winner_slot(m: usize, j: usize) -> usize {
    let t = j.trailing_ones();
    ((m >> t) + (j >> t)) >> 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_fire_in_time_then_node_order() {
        let mut q = ArrivalQueue::with_capacity(4);
        q.push(3.0, 0);
        q.push(1.0, 1);
        q.push(1.0, 2); // same instant as node 1: node index breaks the tie
        q.push(2.0, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((1.0, 1)));
        q.replace_min(5.0);
        assert_eq!(q.peek(), Some((1.0, 2)));
        q.replace_min(4.0);
        assert_eq!(q.peek(), Some((2.0, 3)));
        q.replace_min(6.0);
        assert_eq!(q.peek(), Some((3.0, 0)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn pop_min_retires_exhausted_nodes_in_order() {
        let mut q = ArrivalQueue::with_capacity(4);
        q.push(3.0, 0);
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(2.0, 3);
        assert_eq!(q.pop_min(), Some((1.0, 1)));
        assert_eq!(q.pop_min(), Some((1.0, 2)));
        // Interleaves with re-arms: the remaining heap stays ordered.
        q.replace_min(4.0);
        assert_eq!(q.pop_min(), Some((3.0, 0)));
        assert_eq!(q.pop_min(), Some((4.0, 3)));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn replace_min_keeps_the_heap_ordered_over_many_draws() {
        // A deterministic pseudo-Poisson workload: each fire re-arms the node
        // with a quasi-random increment; the observed fire times must be
        // globally non-decreasing.
        let mut q = ArrivalQueue::with_capacity(8);
        for node in 0..8u32 {
            q.push(f64::from(node % 3) + 0.1, node);
        }
        let mut last = 0.0f64;
        for step in 0..1000u64 {
            let (time, node) = q.peek().unwrap();
            assert!(time >= last, "step {step}: {time} < {last}");
            last = time;
            let increment = 0.05 + ((step * 7 + u64::from(node) * 13) % 11) as f64 * 0.11;
            q.replace_min(time + increment);
        }
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn rebuild_makes_the_tree_pushes_make() {
        for nodes in [0usize, 1, 2, 3, 5, 8, 13, 64, 100] {
            // Coarse times (ties everywhere), every third node unarmed.
            let time = |node: usize| (node % 3 != 1).then(|| ((node * 7) % 5) as f64 * 0.5);
            let mut pushed = ArrivalQueue::with_capacity(nodes);
            for node in 0..nodes {
                if let Some(t) = time(node) {
                    pushed.push(t, node as u32);
                }
            }
            // A used queue, rebuilt in place.
            let mut rebuilt = ArrivalQueue::with_capacity(nodes);
            for node in 0..nodes {
                rebuilt.push(9.0 - node as f64, node as u32);
            }
            rebuilt.rebuild((0..nodes).map(time));
            assert_eq!((&rebuilt.time, &rebuilt.node), (&pushed.time, &pushed.node), "{nodes}");
            assert_eq!(rebuilt.len(), pushed.len());
        }
        // Past the capacity, the tree grows first.
        let mut grown = ArrivalQueue::with_capacity(2);
        grown.rebuild([Some(3.0), None, Some(1.0), Some(1.0), Some(0.5)].into_iter());
        let order: Vec<_> = std::iter::from_fn(|| grown.pop_min()).collect();
        assert_eq!(order, [(0.5, 4), (1.0, 2), (1.0, 3), (3.0, 0)]);
    }

    #[test]
    fn winner_slots_are_a_permutation() {
        for m in [1usize, 2, 4, 8, 64] {
            let mut slots: Vec<_> = (0..m).map(|j| winner_slot(m, j)).collect();
            slots.sort_unstable();
            assert!(slots.iter().copied().eq(0..m), "{m}");
        }
    }

    #[test]
    fn time_keys_order_like_times() {
        let times = [0.0, 1e-300, 0.5, 1.0, 1.0 + f64::EPSILON, 7.25e9, f64::INFINITY];
        for (a, &ta) in times.iter().enumerate() {
            assert_eq!(key_time(time_key(ta)).to_bits(), ta.to_bits());
            for &tb in &times[a + 1..] {
                assert!(time_key(ta) < time_key(tb));
            }
            assert!(time_key(ta) < ABSENT_TIME);
        }
    }

    #[test]
    fn push_arms_nodes_in_any_order_and_past_the_capacity() {
        let mut q = ArrivalQueue::with_capacity(3);
        for (node, time) in [(5u32, 2.0), (0, 4.0), (2, 2.0), (9, 1.0), (1, 3.0)] {
            q.push(time, node);
        }
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop_min()).collect();
        assert_eq!(order, [(1.0, 9), (2.0, 2), (2.0, 5), (3.0, 1), (4.0, 0)]);
        assert!(q.is_empty());
        // A cleared queue re-arms retired nodes.
        q.push(0.5, 5);
        assert_eq!(q.peek(), Some((0.5, 5)));
    }
}
