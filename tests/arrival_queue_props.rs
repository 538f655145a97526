//! Property tests of the arrival queue's ordering contract: over randomized
//! tapes of `push`, `replace_min`, `pop_min` and `clear` — with arrival times
//! on a coarse grid, so exact ties between nodes are the rule — the
//! `ArrivalQueue` must report exactly the `(time, node)` minimum of a
//! reference binary heap after every step, and drain in exactly its order.

use mcnet::sim::arrivals::ArrivalQueue;
use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending arrival, ordered by time then node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival(f64, u32);

impl Eq for Arrival {}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The reference: a binary min-heap with a per-node armed flag.
struct Reference {
    heap: BinaryHeap<Reverse<Arrival>>,
    armed: Vec<bool>,
}

impl Reference {
    fn peek(&self) -> Option<(f64, u32)> {
        self.heap.peek().map(|&Reverse(Arrival(t, n))| (t, n))
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let Reverse(Arrival(t, n)) = self.heap.pop()?;
        self.armed[n as usize] = false;
        Some((t, n))
    }
}

/// Runs one tape of raw `(selector, node, step)` triples over `nodes` nodes:
/// 3 in 8 steps arm the picked node if it is idle (re-arming the minimum
/// otherwise), 3 in 8 re-arm the minimum, 1 in 8 retires it and 1 in 64
/// clears. Times are multiples of 0.5, so ties are everywhere. The queue is
/// built for `capacity` nodes, which may be fewer than `nodes`.
fn check_tape(raw: &[(u32, u32, u32)], nodes: u32, capacity: usize) {
    let mut queue = ArrivalQueue::with_capacity(capacity);
    let mut reference = Reference { heap: BinaryHeap::new(), armed: vec![false; nodes as usize] };
    let mut clock = 0.0f64;
    for (index, &(selector, pick, step)) in raw.iter().enumerate() {
        let delta = f64::from(step % 8) * 0.5;
        let node = pick % nodes;
        match selector % 64 {
            0 => {
                queue.clear();
                reference.heap.clear();
                reference.armed.fill(false);
            }
            s if s % 8 < 3 && !reference.armed[node as usize] => {
                queue.push(clock + delta, node);
                reference.heap.push(Reverse(Arrival(clock + delta, node)));
                reference.armed[node as usize] = true;
            }
            s if s % 8 == 7 => assert_eq!(queue.pop_min(), reference.pop(), "step {index}"),
            _ => {
                if let Some((time, node)) = reference.pop() {
                    clock = time;
                    queue.replace_min(time + delta);
                    reference.heap.push(Reverse(Arrival(time + delta, node)));
                    reference.armed[node as usize] = true;
                }
            }
        }
        assert_eq!(queue.peek(), reference.peek(), "step {index}");
        assert_eq!(queue.len(), reference.heap.len(), "step {index}");
        assert_eq!(queue.is_empty(), reference.heap.is_empty(), "step {index}");
    }
    while let Some(got) = queue.pop_min() {
        assert_eq!(Some(got), reference.pop());
    }
    assert!(reference.heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_matches_reference_on_small_fabrics(
        raw in collection::vec((0u32..64, 0u32..1000, 0u32..1000), 1..=400),
        nodes in 1u32..12,
    ) {
        check_tape(&raw, nodes, nodes as usize);
    }

    #[test]
    fn queue_matches_reference_on_uneven_fabrics(
        raw in collection::vec((0u32..64, 0u32..1000, 0u32..1000), 100..=1500),
        nodes in 13u32..600,
    ) {
        // Node counts that are rarely powers of two, as on Org B's 544 nodes.
        check_tape(&raw, nodes, nodes as usize);
    }

    #[test]
    fn queue_matches_reference_when_pushes_grow_the_tree(
        raw in collection::vec((0u32..64, 0u32..1000, 0u32..1000), 1..=600),
        nodes in 2u32..80,
        capacity in 0usize..8,
    ) {
        check_tape(&raw, nodes, capacity);
    }
}

#[test]
fn queue_matches_reference_at_paper_scale() {
    // Org B's 544 nodes primed in node order, then two million re-arms of
    // the minimum with every arrival on a 0.5 grid.
    let nodes = 544u32;
    let mut queue = ArrivalQueue::with_capacity(nodes as usize);
    let mut reference = Reference { heap: BinaryHeap::new(), armed: vec![false; nodes as usize] };
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        f64::from((state % 16) as u32) * 0.5
    };
    for node in 0..nodes {
        let t = next();
        queue.push(t, node);
        reference.heap.push(Reverse(Arrival(t, node)));
        reference.armed[node as usize] = true;
    }
    for _ in 0..2_000_000 {
        let (time, node) = reference.pop().expect("every node stays armed");
        assert_eq!(queue.peek(), Some((time, node)));
        let t = time + next();
        queue.replace_min(t);
        reference.heap.push(Reverse(Arrival(t, node)));
        reference.armed[node as usize] = true;
    }
}
