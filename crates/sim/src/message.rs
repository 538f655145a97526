//! Message records and their slot-reusing stores.
//!
//! A generated message lives in one of two forms:
//!
//! * **Source record** (`SourceRecord`, 24 bytes) while it waits in its
//!   source queue: generation time, endpoints, generation index and the
//!   measurement flag — nothing that depends on the route. It sits in its
//!   injection channel's waiter FIFO as a tagged id (`SOURCE_TAG`).
//! * **Message** ([`MessageState`], ≤ 40 bytes) from the moment it is granted
//!   its injection channel: the record is promoted, its route is composed into
//!   its own region of the simulation's [`crate::routes::RouteTable`] arena
//!   (the wormhole path through one or — for inter-cluster messages — all
//!   three networks and the two bridge buffers), and it tracks its progress
//!   along that itinerary until delivery or drop recycle the slot and the
//!   region.
//!
//! Generation is open-loop, so past saturation the source-queue backlog grows
//! with the run; keeping it as compact records bounds the route regions and
//! slab slots by the population actually inside the network instead.
//!
//! The message record is deliberately small (compile-time-checked at ≤ 40
//! bytes): the cluster indices are 16-bit, the traffic class is derived from
//! them instead of stored, the measurement flag is one byte, and there is no
//! delivery timestamp at all — a delivered message's latency is computed and
//! folded into the statistics at its `TailArrived` event, after which the
//! record is retired and its [`MessageSlab`] slot recycled. Holding an
//! `(offset, len)` arena slice instead of an owned `Vec` keeps message
//! promotion allocation-free.

use crate::channels::GlobalChannelId;
use crate::event::MessageId;
use crate::routes::{RouteEntry, RouteRef};

/// Whether a message stays inside its source cluster or crosses to another cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageClass {
    /// Source and destination are in the same cluster; the message uses ICN1.
    Intra,
    /// Source and destination are in different clusters; the message uses
    /// ECN1 → concentrator → ICN2 → dispatcher → ECN1.
    Inter,
}

/// The state of one message inside the network: from the grant of its
/// injection channel to its delivery or drop (retransmissions included).
#[derive(Debug, Clone, Copy)]
pub struct MessageState {
    /// Simulation time at which the message was generated (entered its source queue).
    pub generation_time: f64,
    /// The slowest per-flit channel time on the path (drain bottleneck).
    pub bottleneck_time: f64,
    /// The full ordered channel list the worm must acquire, as the message's
    /// own region of the route table arena.
    pub route: RouteRef,
    /// Cluster of the source node (16-bit: see [`RouteEntry`]'s packing contract).
    pub src_cluster: u16,
    /// Cluster of the destination node.
    pub dst_cluster: u16,
    /// Number of channels acquired so far; the next channel to acquire is
    /// `path[acquired]` where `path` is the resolved route slice.
    pub acquired: u16,
    /// Stable generation index of the message (its position in the generated
    /// stream). Slab slots are recycled, so `MessageId` is not an identity;
    /// the run digest folds this index instead.
    pub gen_id: u32,
    /// Number of failed delivery attempts so far (fault aborts). Zero on the
    /// fault-free path.
    pub attempts: u8,
    /// Set when a channel-down killed this message while a stale event for it
    /// is still in flight; the abort resolves when that event fires.
    pub aborted: bool,
    /// Whether this message falls into the measurement window (not warm-up, not drain).
    pub measured: bool,
}

// The whole point of the compact lifecycle: if a field is added back, it must
// be argued against this budget (the record used to be 64 bytes).
const _: () = assert!(std::mem::size_of::<MessageState>() <= 40, "MessageState grew past 40B");

impl MessageState {
    /// Creates a new, not-yet-started message from its route-table entry.
    pub fn new(entry: RouteEntry, generation_time: f64, measured: bool, gen_id: u32) -> Self {
        debug_assert!(!entry.route.is_empty(), "messages always cross at least one channel");
        debug_assert!(
            entry.src_cluster <= u32::from(u16::MAX) && entry.dst_cluster <= u32::from(u16::MAX),
            "cluster index exceeds the 16-bit packing"
        );
        MessageState {
            generation_time,
            bottleneck_time: entry.bottleneck,
            route: entry.route,
            src_cluster: entry.src_cluster as u16,
            dst_cluster: entry.dst_cluster as u16,
            acquired: 0,
            gen_id,
            attempts: 0,
            aborted: false,
            measured,
        }
    }

    /// Traffic class, derived from the cluster pair instead of stored.
    #[inline]
    pub fn class(&self) -> MessageClass {
        if self.src_cluster == self.dst_cluster {
            MessageClass::Intra
        } else {
            MessageClass::Inter
        }
    }

    /// The next channel the header must acquire, or `None` if the whole path has
    /// been acquired (the header has reached the destination). `path` is the
    /// resolved route slice (`RouteTable::channels(self.route)`).
    #[inline]
    pub fn next_channel(&self, path: &[GlobalChannelId]) -> Option<GlobalChannelId> {
        path.get(self.acquired as usize).copied()
    }

    /// Marks the next channel as acquired and returns it.
    ///
    /// # Panics
    /// Panics if the path is already fully acquired.
    #[inline]
    pub fn advance(&mut self, path: &[GlobalChannelId]) -> GlobalChannelId {
        let ch = path[self.acquired as usize];
        self.acquired += 1;
        ch
    }

    /// Whether the header has acquired the full path.
    #[inline]
    pub fn header_delivered(&self) -> bool {
        self.acquired as usize == self.route.len()
    }

    /// Tail-to-tail latency given the delivery instant. The delivery time is not
    /// stored on the record — it is only ever known at the `TailArrived` event,
    /// where the latency goes straight into the statistics and the record dies.
    #[inline]
    pub fn latency_at(&self, delivered_time: f64) -> f64 {
        delivered_time - self.generation_time
    }
}

/// A generated message still waiting in its source queue for its injection
/// channel. It carries no route: the route is composed when the record is
/// promoted to a [`MessageState`] at the grant (randomized up\*/down\* paths,
/// drawn at generation, are kept beside the record by the engine).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceRecord {
    /// Simulation time at which the message was generated.
    pub generation_time: f64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Stable generation index (see [`MessageState::gen_id`]).
    pub gen_id: u32,
    /// Whether the message falls into the measurement window.
    pub measured: bool,
}

const _: () = assert!(std::mem::size_of::<SourceRecord>() <= 24, "SourceRecord grew past 24B");

/// Waiter-FIFO entries with this bit set name a [`SourceRecord`] slot (the
/// remaining bits), not a [`MessageSlab`] message. Slab slots never reach
/// 2³¹, so the two id spaces cannot collide.
pub(crate) const SOURCE_TAG: MessageId = 1 << 31;

/// Slot-reusing store: an id is an index into `slots`, and removing an entry
/// returns its slot to a free list, so the backing vector grows to the peak
/// *live* count instead of the total count of the run.
///
/// The engine keeps two: the [`MessageSlab`] of messages inside the network
/// (near the node count at any load — every live message holds or drains at
/// least one channel) and the `RecordSlab` of the source-queue backlog
/// (near zero below saturation, growing with the run past it, since
/// generation is open-loop). Under the paper's 120k-message protocol that is
/// the difference between a few KiB that stay cache-hot and several MiB
/// streamed exactly once.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

/// The messages inside the network.
pub type MessageSlab = Slab<MessageState>;

/// The source-queue backlog.
pub(crate) type RecordSlab = Slab<SourceRecord>;

impl<T: Copy> Slab<T> {
    /// Creates an empty slab with room for `capacity` simultaneous entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab { slots: Vec::with_capacity(capacity), free: Vec::new() }
    }

    /// Removes every entry, keeping the slot storage for the next run.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Number of live entries.
    #[inline]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Per-slot liveness (diagnostics: the engine audit).
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![true; self.slots.len()];
        for &id in &self.free {
            live[id as usize] = false;
        }
        live
    }

    /// Stores an entry, recycling a retired slot when one is available.
    #[inline]
    pub fn insert(&mut self, entry: T) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = entry;
            id
        } else {
            assert!(self.slots.len() < SOURCE_TAG as usize, "slab outgrew the 31-bit id space");
            let id = self.slots.len() as u32;
            self.slots.push(entry);
            id
        }
    }

    /// Retires an entry, returning its final state and freeing the slot for
    /// reuse. The id must not be used again afterwards.
    #[inline]
    pub fn remove(&mut self, id: u32) -> T {
        debug_assert!(!self.free.contains(&id), "double retirement of slot {id}");
        self.free.push(id);
        self.slots[id as usize]
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, id: u32) -> &T {
        &self.slots[id as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, id: u32) -> &mut T {
        &mut self.slots[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::RouteTable;
    use mcnet_system::{organizations, TrafficConfig};

    /// A real route table over the small test org, so message tests exercise the
    /// same arena-slice mechanics the engine uses.
    fn table() -> (crate::backend::FabricBackend, RouteTable) {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-4).unwrap();
        let backend = crate::backend::FabricBackend::tree(&system, &traffic).unwrap();
        let table = RouteTable::build(&backend).unwrap();
        (backend, table)
    }

    #[test]
    fn class_is_derived_from_clusters() {
        let (f, mut t) = table();
        let last = t.nodes() - 1;
        let inter = MessageState::new(t.entry(&f, 0, last), 10.0, true, 0);
        assert_eq!(inter.class(), MessageClass::Inter);
        let intra = MessageState::new(t.entry(&f, 0, 1), 0.0, false, 0);
        assert_eq!(intra.class(), MessageClass::Intra);
    }

    #[test]
    fn progress_through_the_path() {
        let (f, mut t) = table();
        let entry = t.entry(&f, 0, 1);
        let path: Vec<_> = t.channels(entry.route).to_vec();
        assert_eq!(path.len(), 2, "same-leaf intra journey crosses two links");
        let mut m = MessageState::new(entry, 10.0, true, 0);

        assert_eq!(m.next_channel(&path), Some(path[0]));
        assert!(!m.header_delivered());
        assert_eq!(m.advance(&path), path[0]);
        assert_eq!(m.next_channel(&path), Some(path[1]));
        m.advance(&path);
        assert!(m.header_delivered());
        assert_eq!(m.next_channel(&path), None);
    }

    #[test]
    fn latency_is_relative_to_generation() {
        let (f, mut t) = table();
        let m = MessageState::new(t.entry(&f, 0, 1), 10.0, true, 0);
        assert_eq!(m.latency_at(42.0), 32.0);
    }

    #[test]
    fn slab_recycles_retired_slots() {
        let (f, mut t) = table();
        let entry = t.entry(&f, 0, 1);
        let mut slab = MessageSlab::with_capacity(4);
        let a = slab.insert(MessageState::new(entry, 1.0, true, 0));
        let b = slab.insert(MessageState::new(entry, 2.0, false, 0));
        assert_ne!(a, b);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab[a].generation_time, 1.0);
        assert_eq!(slab[b].generation_time, 2.0);

        let retired = slab.remove(a);
        assert_eq!(retired.generation_time, 1.0);
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.live_mask(), [false, true]);

        // The freed slot is reused; the backing store does not grow.
        let c = slab.insert(MessageState::new(entry, 3.0, true, 0));
        assert_eq!(c, a);
        assert_eq!(slab.live_mask().len(), 2);
        assert_eq!(slab[c].generation_time, 3.0);

        slab[c].acquired = 1;
        assert_eq!(slab[c].acquired, 1);
    }
}
