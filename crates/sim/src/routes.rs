//! Route composition: every message's itinerary in its own recycled region of
//! one flat arena.
//!
//! The engine resolves each message's channel itinerary through the
//! [`RouteTable`] of its fabric backend ([`FabricBackend::Tree`] or
//! [`FabricBackend::Cube`]). Nothing is stored per `(src, dst)` pair: at
//! generation a message composes its route into a region of the arena, and it
//! hands the region back at delivery or drop.
//!
//! * **One flat arena.** A route is a [`RouteRef`], an `(offset, len)` pair,
//!   and resolving it is a bounds-checked slice of the arena. The arena starts
//!   with the tree's shared segments; per-message regions follow them.
//! * **Shared segments (tree).** A tree inter-cluster path is the concatenation
//!   `ascent(src) ⊕ concentrator ⊕ icn2(c_s, c_d) ⊕ dispatcher ⊕ descent(dst)`.
//!   The three variable segments are computed once per node or cluster pair at
//!   build time (`2N + C²` routing calls), so composing an inter-cluster route
//!   is three slice copies plus the two bridge ids. Intra-cluster routes share
//!   no segment; they run the allocation-free `NcaRouter::route_into` walker.
//! * **Direct walks (cube).** A torus route has no shareable middle segment
//!   (every hop's channel id depends on the node it leaves), so it runs the
//!   allocation-free dimension-order walker
//!   [`crate::cube::CubeFabric::route_into`].
//! * **Recycled regions.** Released regions go to per-length free lists and are
//!   reused before the arena grows, so the arena holds the `O(N + C²)` segments
//!   plus the peak in-flight population's routes. Adaptive policies carve their
//!   regions from the same lists and write their own channel choices into them.
//! * **Metadata with the route.** The drain bottleneck (slowest per-flit channel
//!   time) and the source/destination clusters (sub-ring neighborhoods on the
//!   torus) come out of the composition, so `handle_generate` never scans a
//!   path.
//!
//! A composed route is identical to [`FabricBackend::build_path`] for every
//! pair (covered by equivalence tests here, in `tests/property_tests.rs` and in
//! `tests/torus_invariants.rs`), and composing consumes nothing from the
//! simulation RNG, so where a route's channels sit in the arena never reaches
//! the engine's results.

use crate::backend::FabricBackend;
use crate::channels::GlobalChannelId;
use crate::fabric::{Fabric, Itinerary};
use crate::{Result, SimError};
use mcnet_topology::graph::ChannelId;
use mcnet_topology::kary_ncube::CubeHop;
use mcnet_topology::routing::NcaRouter;
use mcnet_topology::NodeId;

/// A route as a slice of the table's arena.
///
/// The offset is 32-bit so the whole reference packs into 6 bytes inside the
/// compact [`crate::message::MessageState`]; an arena of more than 2³²
/// channels is rejected when a region is carved rather than silently
/// truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRef {
    offset: u32,
    len: u16,
}

impl RouteRef {
    /// Number of channels on the route.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` if the route crosses no channel (never the case for real routes).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The route's index range in the arena.
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// What a composed route carries besides its channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteMeta {
    /// Slowest per-flit channel time on the path (drain bottleneck).
    pub bottleneck: f64,
    /// Source cluster (tree) / sub-ring neighborhood (torus) index.
    pub src_cluster: u32,
    /// Destination cluster (tree) / sub-ring neighborhood (torus) index.
    pub dst_cluster: u32,
}

impl RouteMeta {
    /// The entry of a message whose channels live in `route`.
    #[inline]
    pub fn with_route(self, route: RouteRef) -> RouteEntry {
        RouteEntry {
            route,
            bottleneck: self.bottleneck,
            src_cluster: self.src_cluster,
            dst_cluster: self.dst_cluster,
        }
    }
}

/// One message's route: its arena region plus the route metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// The message's region of the arena.
    pub route: RouteRef,
    /// Slowest per-flit channel time on the path (drain bottleneck).
    pub bottleneck: f64,
    /// Source cluster (tree) / sub-ring neighborhood (torus) index.
    pub src_cluster: u32,
    /// Destination cluster (tree) / sub-ring neighborhood (torus) index.
    pub dst_cluster: u32,
}

/// A precomputed path fragment (ascent, descent or ICN2 crossing).
#[derive(Debug, Clone, Copy)]
struct Segment {
    route: RouteRef,
    bottleneck: f64,
}

/// Tree-backend precompute: the shared inter-cluster segments plus the cluster
/// geometry needed to compose them.
#[derive(Debug, Clone)]
struct TreeSegments {
    /// Per-node ECN1 ascent (node → root switch, concentrator side).
    ascent: Vec<Segment>,
    /// Per-node ECN1 descent (home root switch → node, dispatcher side).
    descent: Vec<Segment>,
    /// Per-`(src_cluster, dst_cluster)` ICN2 crossing.
    icn2: Vec<Segment>,
    clusters: usize,
    /// Cluster of every global node.
    node_cluster: Vec<u32>,
    /// First global node of every cluster.
    cluster_start: Vec<usize>,
    /// Concentrator/dispatcher channel ids, `[concentrate(c), dispatch(c)]` per cluster.
    bridges: Vec<[GlobalChannelId; 2]>,
    /// Per-flit time of the bridge resources (the switch channel time).
    bridge_flit: f64,
    /// Per-cluster distance from a node's ICN1 channel ids up to its ECN1
    /// ones: the two trees of a cluster are built alike, so a node's ICN1
    /// injection channel is its ECN1 injection channel (the first of its
    /// ascent) minus this shift.
    icn1_shift: Vec<u32>,
    /// Reused buffer of the intra-cluster walks.
    walk: Vec<ChannelId>,
}

impl TreeSegments {
    /// Precomputes the shared segments of a tree fabric into `arena` (ascents,
    /// descents, ICN2 crossings) along with the bridge ids and cluster bounds.
    fn build(fabric: &Fabric, arena: &mut Vec<GlobalChannelId>) -> Result<Self> {
        let system = fabric.system();
        let nodes = system.total_nodes();
        let clusters = system.num_clusters();
        let mut segments = TreeSegments {
            ascent: Vec::with_capacity(nodes),
            descent: Vec::with_capacity(nodes),
            icn2: Vec::with_capacity(clusters * clusters),
            clusters,
            node_cluster: Vec::with_capacity(nodes),
            cluster_start: Vec::with_capacity(clusters),
            bridges: (0..clusters)
                .map(|c| [fabric.bridges().concentrate(c), fabric.bridges().dispatch(c)])
                .collect(),
            bridge_flit: fabric.t_cs(),
            icn1_shift: (0..clusters)
                .map(|c| fabric.ecn1(c).channel_base() - fabric.icn1(c).channel_base())
                .collect(),
            walk: Vec::new(),
        };
        let mut scratch = Vec::new();

        // ECN1 ascent and descent segments, one of each per node. The descent
        // starts at the node's *home* root switch — the same balanced root its
        // own ascents use — matching `Fabric::build_path`.
        for cluster in 0..clusters {
            let range = system.node_range(cluster).map_err(SimError::from)?;
            segments.cluster_start.push(range.start);
            segments.node_cluster.extend(std::iter::repeat_n(cluster as u32, range.len()));
            let net = fabric.ecn1(cluster);
            let router = NcaRouter::new(net.tree());
            for local in 0..range.len() {
                let node = NodeId::from_index(local);
                scratch.clear();
                let root = router.ascent_into(node, &mut scratch).map_err(SimError::from)?;
                segments.ascent.push(Segment::append(arena, fabric, net.channel_base(), &scratch));
                scratch.clear();
                router.descent_into(root, node, &mut scratch).map_err(SimError::from)?;
                segments.descent.push(Segment::append(arena, fabric, net.channel_base(), &scratch));
            }
        }
        debug_assert_eq!(segments.ascent.len(), nodes);

        // ICN2 crossings, one per ordered cluster pair (the diagonal stays empty).
        let net = fabric.icn2();
        let router = NcaRouter::new(net.tree());
        for c1 in 0..clusters {
            for c2 in 0..clusters {
                scratch.clear();
                if c1 != c2 {
                    router
                        .route_into(NodeId::from_index(c1), NodeId::from_index(c2), &mut scratch)
                        .map_err(SimError::from)?;
                }
                segments.icn2.push(Segment::append(arena, fabric, net.channel_base(), &scratch));
            }
        }
        Ok(segments)
    }

    /// The first channel of the route `src → dst`: the source's ECN1
    /// injection channel for an inter-cluster pair, its ICN1 one otherwise.
    fn injection(&self, arena: &[GlobalChannelId], src: usize, dst: usize) -> GlobalChannelId {
        let cluster = self.node_cluster[src];
        let ecn1 = arena[self.ascent[src].route.offset as usize];
        if cluster == self.node_cluster[dst] {
            ecn1 - self.icn1_shift[cluster as usize]
        } else {
            ecn1
        }
    }

    /// Writes the route `src → dst` into `out`: the shared segments of an
    /// inter-cluster pair, or a fresh ICN1 walk of an intra-cluster one.
    fn compose(
        &mut self,
        arena: &[GlobalChannelId],
        fabric: &Fabric,
        src: usize,
        dst: usize,
        out: &mut Vec<GlobalChannelId>,
    ) -> RouteMeta {
        let src_cluster = self.node_cluster[src];
        let dst_cluster = self.node_cluster[dst];
        let bottleneck = if src_cluster == dst_cluster {
            let cluster = src_cluster as usize;
            let start = self.cluster_start[cluster];
            let net = fabric.icn1(cluster);
            self.walk.clear();
            NcaRouter::new(net.tree())
                .route_into(
                    NodeId::from_index(src - start),
                    NodeId::from_index(dst - start),
                    &mut self.walk,
                )
                .expect("in-range distinct nodes are always routable");
            append_global(out, fabric, net.channel_base(), &self.walk)
        } else {
            let ascent = self.ascent[src];
            let icn2 = self.icn2[src_cluster as usize * self.clusters + dst_cluster as usize];
            let descent = self.descent[dst];
            out.extend_from_slice(&arena[ascent.route.range()]);
            out.push(self.bridges[src_cluster as usize][0]);
            out.extend_from_slice(&arena[icn2.route.range()]);
            out.push(self.bridges[dst_cluster as usize][1]);
            out.extend_from_slice(&arena[descent.route.range()]);
            ascent.bottleneck.max(icn2.bottleneck).max(descent.bottleneck).max(self.bridge_flit)
        };
        RouteMeta { bottleneck, src_cluster, dst_cluster }
    }
}

impl Segment {
    /// Appends a segment's globalized channels to the arena.
    fn append(
        arena: &mut Vec<GlobalChannelId>,
        fabric: &Fabric,
        channel_base: u32,
        channels: &[ChannelId],
    ) -> Segment {
        let offset = arena.len() as u32;
        let bottleneck = append_global(arena, fabric, channel_base, channels);
        debug_assert!(channels.len() <= u16::MAX as usize, "path longer than u16");
        Segment { route: RouteRef { offset, len: channels.len() as u16 }, bottleneck }
    }
}

/// Appends one network's channels to `out` as global ids and returns their
/// slowest per-flit time.
fn append_global(
    out: &mut Vec<GlobalChannelId>,
    fabric: &Fabric,
    channel_base: u32,
    channels: &[ChannelId],
) -> f64 {
    let mut bottleneck = 0.0f64;
    for ch in channels {
        let global = channel_base + ch.0;
        bottleneck = bottleneck.max(fabric.flit_time(global));
        out.push(global);
    }
    bottleneck
}

/// Backend-specific composition state.
#[derive(Debug, Clone)]
enum Composer {
    Tree(TreeSegments),
    /// The cube needs no precompute — only a reusable hop buffer.
    Cube {
        hop_scratch: Vec<CubeHop>,
    },
}

impl Composer {
    /// Writes the route `src → dst` into `out`, replacing its contents.
    fn compose(
        &mut self,
        arena: &[GlobalChannelId],
        backend: &FabricBackend,
        src: usize,
        dst: usize,
        out: &mut Vec<GlobalChannelId>,
    ) -> RouteMeta {
        assert_ne!(src, dst, "message from node {src} to itself");
        out.clear();
        match (self, backend) {
            (Composer::Tree(segments), FabricBackend::Tree(fabric)) => {
                segments.compose(arena, fabric, src, dst, out)
            }
            (Composer::Cube { hop_scratch }, FabricBackend::Cube(fabric)) => {
                fabric
                    .route_into(src, dst, hop_scratch, out)
                    .expect("in-range distinct nodes are always routable");
                debug_assert!(out.len() <= u16::MAX as usize, "path longer than u16");
                RouteMeta {
                    bottleneck: out.iter().map(|&c| fabric.flit_time(c)).fold(0.0f64, f64::max),
                    src_cluster: fabric.neighborhood_of(src) as u32,
                    dst_cluster: fabric.neighborhood_of(dst) as u32,
                }
            }
            _ => panic!("route table used with a backend of the wrong kind"),
        }
    }
}

/// The route composer and region arena of one [`FabricBackend`].
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    arena: Vec<GlobalChannelId>,
    composer: Composer,
    /// Reused buffer [`RouteTable::entry`] composes into.
    compose_buf: Vec<GlobalChannelId>,
    /// Free lists of released regions, indexed by region length in channels.
    /// Only offsets handed out by [`RouteTable::alloc_scratch`] ever land
    /// here, so the shared segments are never recycled.
    scratch_free: Vec<Vec<u32>>,
    /// Regions currently allocated (live messages).
    scratch_live: usize,
    /// High-water mark of simultaneously live regions, for diagnostics.
    scratch_peak: usize,
    /// Regions ever carved from the end of the arena.
    scratch_carved: usize,
}

impl RouteTable {
    /// Builds the composer for a fabric backend. For the tree this precomputes
    /// the shared inter-cluster segments (`2N + C²` routing calls); the cube
    /// needs no precompute.
    pub fn build(backend: &FabricBackend) -> Result<Self> {
        let mut arena = Vec::new();
        let composer = match backend {
            FabricBackend::Tree(fabric) => Composer::Tree(TreeSegments::build(fabric, &mut arena)?),
            FabricBackend::Cube(_) => Composer::Cube { hop_scratch: Vec::new() },
        };
        Ok(RouteTable {
            nodes: backend.total_nodes(),
            arena,
            composer,
            compose_buf: Vec::new(),
            scratch_free: Vec::new(),
            scratch_live: 0,
            scratch_peak: 0,
            scratch_carved: 0,
        })
    }

    /// Total number of nodes the table covers.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Always 0: no `(src, dst)` entry is stored, every route is composed per
    /// message. Kept for callers that report it.
    pub fn materialized_entries(&self) -> usize {
        0
    }

    /// Current arena length in channels: the shared segments plus every region
    /// carved so far (storage diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Resolves a route to its channel slice.
    #[inline]
    pub fn channels(&self, route: RouteRef) -> &[GlobalChannelId] {
        &self.arena[route.range()]
    }

    /// Writes the deterministic route `src → dst` into `out`, replacing its
    /// contents, and returns the route's metadata. No region is involved: this
    /// is the composer [`RouteTable::entry`] and [`RouteTable::itinerary`] run,
    /// exposed for callers that only compare against the deterministic path.
    ///
    /// # Panics
    /// Panics if `src == dst` or either index is out of range — the traffic
    /// layer never generates such messages.
    pub fn compose_into(
        &mut self,
        backend: &FabricBackend,
        src: usize,
        dst: usize,
        out: &mut Vec<GlobalChannelId>,
    ) -> RouteMeta {
        self.composer.compose(&self.arena, backend, src, dst, out)
    }

    /// The injection channel of the deterministic route `src → dst` — its
    /// first channel — in O(1), without composing the route. Randomized
    /// up\*/down\* paths start on the same channel (a node has one up link
    /// per network).
    pub fn injection(&self, backend: &FabricBackend, src: usize, dst: usize) -> GlobalChannelId {
        match (&self.composer, backend) {
            (Composer::Tree(segments), FabricBackend::Tree(_)) => {
                segments.injection(&self.arena, src, dst)
            }
            (Composer::Cube { .. }, FabricBackend::Cube(fabric)) => fabric.injection(src),
            _ => panic!("route table used with a backend of the wrong kind"),
        }
    }

    /// Composes the deterministic route `src → dst` into a fresh region. The
    /// caller owns the region and hands it back with
    /// [`RouteTable::release_scratch`].
    ///
    /// Tree inter-cluster pairs copy the precomputed segments; tree
    /// intra-cluster and all torus pairs run an allocation-free route walker.
    ///
    /// # Panics
    /// As [`RouteTable::compose_into`].
    #[inline]
    pub fn entry(&mut self, backend: &FabricBackend, src: usize, dst: usize) -> RouteEntry {
        let meta = self.composer.compose(&self.arena, backend, src, dst, &mut self.compose_buf);
        let route = self.alloc_scratch(self.compose_buf.len());
        self.arena[route.range()].copy_from_slice(&self.compose_buf);
        meta.with_route(route)
    }

    /// Allocates a per-message region of exactly `len` channels in the arena,
    /// reusing a previously released region of the same length when one
    /// exists. Its contents are whatever the last holder left: the caller
    /// writes them ([`RouteTable::set_channel`] / [`RouteTable::fill_scratch`])
    /// and returns the region with [`RouteTable::release_scratch`] when the
    /// message leaves the network, so steady-state runs allocate nothing per
    /// message — the arena grows to the peak number of in-flight messages and
    /// then cycles.
    pub fn alloc_scratch(&mut self, len: usize) -> RouteRef {
        assert!(len >= 1 && len <= u16::MAX as usize, "route length {len} out of range");
        self.scratch_live += 1;
        self.scratch_peak = self.scratch_peak.max(self.scratch_live);
        if let Some(offset) = self.scratch_free.get_mut(len).and_then(Vec::pop) {
            return RouteRef { offset, len: len as u16 };
        }
        assert!(
            self.arena.len() + len <= u32::MAX as usize,
            "route arena exceeds the 32-bit RouteRef offset"
        );
        self.scratch_carved += 1;
        let offset = self.arena.len() as u32;
        self.arena.resize(self.arena.len() + len, 0);
        RouteRef { offset, len: len as u16 }
    }

    /// Returns a region to its free list for reuse.
    ///
    /// Must only be called once per region handed out by
    /// [`RouteTable::alloc_scratch`] or [`RouteTable::entry`].
    pub fn release_scratch(&mut self, route: RouteRef) {
        let len = route.len();
        if self.scratch_free.len() <= len {
            self.scratch_free.resize_with(len + 1, Vec::new);
        }
        self.scratch_free[len].push(route.offset);
        debug_assert!(self.scratch_live > 0, "release without a live route region");
        self.scratch_live -= 1;
    }

    /// Writes one channel of a region (adaptive per-hop commitment).
    #[inline]
    pub fn set_channel(&mut self, route: RouteRef, idx: usize, channel: GlobalChannelId) {
        debug_assert!(idx < route.len());
        self.arena[route.offset as usize + idx] = channel;
    }

    /// Copies a full channel sequence into a region (randomized tree paths,
    /// which are drawn whole at generation time).
    pub fn fill_scratch(&mut self, route: RouteRef, channels: &[GlobalChannelId]) {
        debug_assert_eq!(channels.len(), route.len(), "region fill length mismatch");
        self.arena[route.range()].copy_from_slice(channels);
    }

    /// Rewinds the per-run diagnostics for a table reused across runs. The
    /// arena and its free lists are kept: every region is fully rewritten
    /// before it is read, so carrying them over is invisible to the next run.
    pub fn begin_run(&mut self) {
        debug_assert_eq!(self.scratch_live, 0, "route regions leaked across runs");
        self.scratch_live = 0;
        self.scratch_peak = 0;
    }

    /// Regions currently allocated (live messages).
    pub fn live_scratch_routes(&self) -> usize {
        self.scratch_live
    }

    /// High-water mark of simultaneously live regions in the current run.
    pub fn peak_scratch_routes(&self) -> usize {
        self.scratch_peak
    }

    /// Checks the region accounting: every region ever carved is either live
    /// or on exactly one free list, and no free list holds a region twice.
    pub fn audit(&self) -> std::result::Result<(), String> {
        let mut free: Vec<u32> = self.scratch_free.iter().flatten().copied().collect();
        if self.scratch_live + free.len() != self.scratch_carved {
            return Err(format!(
                "{} live + {} free route regions != {} carved",
                self.scratch_live,
                free.len(),
                self.scratch_carved
            ));
        }
        free.sort_unstable();
        if let Some(w) = free.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("route region at offset {} released twice", w[0]));
        }
        Ok(())
    }

    /// Composes an owned [`Itinerary`] for a pair — the verification view
    /// tests compare against [`FabricBackend::build_path`]. No region is used.
    pub fn itinerary(
        &mut self,
        backend: &FabricBackend,
        src: usize,
        dst: usize,
    ) -> Result<Itinerary> {
        if src == dst || src >= self.nodes || dst >= self.nodes {
            return Err(SimError::InvalidConfiguration {
                reason: format!("invalid route table pair {src} -> {dst}"),
            });
        }
        let mut channels = Vec::new();
        let meta = self.compose_into(backend, src, dst, &mut channels);
        Ok(Itinerary {
            channels,
            bottleneck: meta.bottleneck,
            src_cluster: meta.src_cluster,
            dst_cluster: meta.dst_cluster,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::{organizations, TorusSystem, TrafficConfig};

    fn build_pair() -> (FabricBackend, RouteTable) {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let backend = FabricBackend::tree(&system, &traffic).unwrap();
        let table = RouteTable::build(&backend).unwrap();
        (backend, table)
    }

    fn build_cube_pair() -> (FabricBackend, RouteTable) {
        let torus = TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        let backend = FabricBackend::cube(&torus, &traffic).unwrap();
        let table = RouteTable::build(&backend).unwrap();
        (backend, table)
    }

    /// Every pair's composed itinerary and region entry against a freshly
    /// computed `build_path`.
    fn assert_all_pairs_match(backend: &FabricBackend, table: &mut RouteTable) {
        let n = backend.total_nodes();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    assert!(table.itinerary(backend, src, dst).is_err());
                    continue;
                }
                let fresh = backend.build_path(src, dst).unwrap();
                let composed = table.itinerary(backend, src, dst).unwrap();
                assert_eq!(composed.channels, fresh.channels, "{src}->{dst}");
                assert_eq!(table.injection(backend, src, dst), fresh.channels[0], "{src}->{dst}");
                assert_eq!(composed.src_cluster, fresh.src_cluster);
                assert_eq!(composed.dst_cluster, fresh.dst_cluster);
                assert_eq!(composed.bottleneck.to_bits(), fresh.bottleneck.to_bits());

                let entry = table.entry(backend, src, dst);
                assert_eq!(table.channels(entry.route), &fresh.channels[..], "{src}->{dst}");
                assert_eq!(entry.bottleneck.to_bits(), fresh.bottleneck.to_bits());
                table.release_scratch(entry.route);
            }
        }
        assert_eq!(table.live_scratch_routes(), 0);
        assert_eq!(table.audit(), Ok(()));
        assert_eq!(table.materialized_entries(), 0, "no pair is ever stored");
    }

    #[test]
    fn all_pairs_match_freshly_computed_paths() {
        let (backend, mut table) = build_pair();
        assert_all_pairs_match(&backend, &mut table);
    }

    #[test]
    fn cube_all_pairs_match_freshly_computed_paths() {
        let (backend, mut table) = build_cube_pair();
        assert_all_pairs_match(&backend, &mut table);
    }

    /// Composes `src → dst` twice with a release in between: the second
    /// entry reuses the first one's region and the arena does not grow.
    fn assert_region_recycled(backend: &FabricBackend, table: &mut RouteTable, dst: usize) {
        let first = table.entry(backend, 0, dst);
        let grown = table.arena_len();
        table.release_scratch(first.route);
        let again = table.entry(backend, 0, dst);
        assert_eq!(again, first, "a released region of the same length is reused");
        assert_eq!(table.arena_len(), grown);
        table.release_scratch(again.route);
    }

    #[test]
    fn entries_compose_into_recycled_regions() {
        let (backend, mut table) = build_pair();
        let segments = table.arena_len();
        assert!(segments > 0, "the tree's shared segments open the arena");

        // An intra and an inter pair each carve one region past the segments.
        assert_region_recycled(&backend, &mut table, 1);
        let after_intra = table.arena_len();
        assert!(after_intra > segments);
        let last = table.nodes() - 1;
        assert_region_recycled(&backend, &mut table, last);
        assert!(table.arena_len() > after_intra);
        assert_eq!(table.peak_scratch_routes(), 1);
    }

    #[test]
    fn cube_entries_compose_into_recycled_regions() {
        let (backend, mut table) = build_cube_pair();
        assert_eq!(table.arena_len(), 0, "the cube needs no precomputed segments");
        assert_region_recycled(&backend, &mut table, 5);
        assert!(table.arena_len() > 0);
    }

    #[test]
    fn scratch_regions_recycle_by_length() {
        let (_backend, mut table) = build_cube_pair();
        let a = table.alloc_scratch(4);
        let b = table.alloc_scratch(4);
        let c = table.alloc_scratch(6);
        assert_eq!(table.live_scratch_routes(), 3);
        assert_eq!(a.len(), 4);
        assert_ne!(a, b, "distinct live regions never alias");

        table.fill_scratch(a, &[10, 11, 12, 13]);
        table.set_channel(b, 0, 99);
        assert_eq!(table.channels(a), &[10, 11, 12, 13]);
        assert_eq!(table.channels(b)[0], 99);

        table.release_scratch(a);
        let a2 = table.alloc_scratch(4);
        assert_eq!(a2, a, "freed region of the same length is reused");
        let d = table.alloc_scratch(6);
        assert_ne!(d, c, "length-6 region is still live, so a new one is carved");
        assert_eq!(table.live_scratch_routes(), 4);
        assert_eq!(table.peak_scratch_routes(), 4);
    }

    #[test]
    fn live_regions_never_alias_the_shared_segments() {
        let (backend, mut table) = build_pair();
        let last = table.nodes() - 1;
        let inter = table.entry(&backend, 0, last);
        let before = table.channels(inter.route).to_vec();

        // Scribble over a recycled region and a freshly carved one; neither
        // the live entry nor the segments later routes copy may change.
        let s = table.alloc_scratch(inter.route.len());
        table.fill_scratch(s, &vec![u32::MAX; s.len()]);
        table.release_scratch(s);
        let s2 = table.alloc_scratch(inter.route.len());
        assert_eq!(s2, s);
        table.fill_scratch(s2, &vec![7; s2.len()]);

        assert_eq!(table.channels(inter.route), &before[..]);
        let again = table.entry(&backend, 0, last);
        assert_ne!(again.route, inter.route, "two live messages hold two regions");
        assert_eq!(table.channels(again.route), &before[..]);
        assert_eq!(table.live_scratch_routes(), 3);
    }

    #[test]
    fn audit_accounts_for_every_carved_region() {
        let (backend, mut table) = build_pair();
        let routes: Vec<_> = (1..table.nodes()).map(|dst| table.entry(&backend, 0, dst)).collect();
        assert_eq!(table.audit(), Ok(()));
        for entry in &routes[..routes.len() / 2] {
            table.release_scratch(entry.route);
        }
        assert_eq!(table.audit(), Ok(()));

        // A region released twice shows up, even though the live count
        // alone would have balanced against a leaked one.
        let mut broken = table.clone();
        broken.release_scratch(routes[0].route);
        assert!(broken.audit().unwrap_err().contains("released twice"));

        for entry in &routes[routes.len() / 2..] {
            table.release_scratch(entry.route);
        }
        assert_eq!(table.live_scratch_routes(), 0);
        assert_eq!(table.audit(), Ok(()));
    }

    #[test]
    fn entries_carry_correct_metadata() {
        let (backend, mut table) = build_pair();
        let fabric = backend.as_tree().unwrap();
        let last = table.nodes() - 1;
        let inter = table.entry(&backend, 0, last);
        assert_ne!(inter.src_cluster, inter.dst_cluster);
        assert!((inter.bottleneck - fabric.t_cs()).abs() < 1e-12);
        let channels = table.channels(inter.route);
        assert!(channels.contains(&fabric.bridges().concentrate(inter.src_cluster as usize)));
        assert!(channels.contains(&fabric.bridges().dispatch(inter.dst_cluster as usize)));

        let intra = table.entry(&backend, 0, 1);
        assert_eq!(intra.src_cluster, 0);
        assert_eq!(intra.dst_cluster, 0);
        assert!((intra.bottleneck - fabric.t_cn()).abs() < 1e-12);
    }

    #[test]
    fn cube_entries_carry_correct_metadata() {
        let (backend, mut table) = build_cube_pair();
        let fabric = backend.as_cube().unwrap();
        // 0 and 3 share the dimension-0 sub-ring; 0 and 4 do not.
        let intra = table.entry(&backend, 0, 3);
        assert_eq!(intra.src_cluster, 0);
        assert_eq!(intra.dst_cluster, 0);
        let inter = table.entry(&backend, 0, 4);
        assert_eq!(inter.src_cluster, 0);
        assert_eq!(inter.dst_cluster, 1);
        assert!((inter.bottleneck - fabric.t_link()).abs() < 1e-12);
        let channels = table.channels(inter.route);
        assert_eq!(channels[0], fabric.injection(0));
        assert_eq!(*channels.last().unwrap(), fabric.ejection(4));
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn self_route_lookup_panics() {
        let (backend, mut table) = build_pair();
        table.entry(&backend, 3, 3);
    }
}
