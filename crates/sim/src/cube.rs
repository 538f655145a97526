//! The k-ary n-cube (torus) fabric: the direct-network backend of the wormhole
//! engine.
//!
//! [`CubeFabric`] materialises a [`TorusSystem`] into the same dense global
//! channel-id space the tree fabric uses, so the engine's occupancy table,
//! route arena and lazy-release machinery run unchanged over it:
//!
//! * **Link channels** — one id per unidirectional router↔router link *and
//!   virtual channel*. For `k > 2` every directed link carries two virtual
//!   channels with the classic Dally–Seitz dateline discipline: a message
//!   travels a ring on VC0 until (and unless) it crosses the ring's wrap-around
//!   edge, from which point it uses VC1. Dimension-order routing corrects
//!   dimensions strictly upwards and a minimal route crosses each ring's wrap
//!   edge at most once, so the channel dependency graph is acyclic and the
//!   torus cannot deadlock — the direct-network analogue of the tree's
//!   up-then-down acquisition order. For `k = 2` a route takes at most one hop
//!   per ring, no intra-ring dependency exists, and a single channel per link
//!   suffices.
//! * **Injection / ejection channels** — two per node at the tail of the id
//!   space, crossed first and last by every message. As in the tree fabric the
//!   injection channel is held for the message's entire network latency, which
//!   keeps the source queue the M/G/1 station the analytical lineage assumes,
//!   and makes every `(src, dst)` itinerary unique.
//!
//! Per-flit times mirror the tree's channel-kind mapping: injection/ejection
//! channels are node↔router connections at `t_cn`, link channels are
//! router↔router connections at `t_cs` (Eqs. 14–15 of the paper, evaluated for
//! the configured flit size).

use crate::channels::{ChannelPool, GlobalChannelId};
use crate::fabric::Itinerary;
use crate::{Result, SimError};
use mcnet_system::{TorusSystem, TrafficConfig};
use mcnet_topology::kary_ncube::CubeHop;
use mcnet_topology::{KaryNCube, NodeId};

/// A torus mapped into the global channel space.
#[derive(Debug, Clone)]
pub struct CubeFabric {
    torus: TorusSystem,
    cube: KaryNCube,
    /// Per-flit time of injection/ejection (node↔router) channels, `t_cn`.
    t_node: f64,
    /// Per-flit time of router↔router link channels, `t_cs`.
    t_link: f64,
    /// Virtual channels per directed link. The low `escape_vcs` indices are the
    /// escape class (dateline discipline): 2 for `k > 2`, 1 for `k = 2`. Under
    /// [`crate::policy::RoutingPolicy::AdaptiveTorus`] each link carries
    /// additional unrestricted adaptive VCs above the escape class, so
    /// `vcs = escape_vcs + adaptive_vcs`; deterministic fabrics have
    /// `vcs == escape_vcs` and the exact channel numbering of every previous
    /// release.
    vcs: u32,
    /// Virtual channels of the escape (dateline) class, always the low indices.
    escape_vcs: u32,
    /// Directions per dimension: 2 for `k > 2`, 1 for `k = 2` (where +1 and −1
    /// coincide).
    dirs: u32,
    /// Total number of link-channel ids (`num_nodes · n · dirs · vcs`);
    /// injection/ejection ids start here.
    link_channels: u32,
}

impl CubeFabric {
    /// Builds the deterministic torus fabric (escape VCs only — the channel
    /// numbering every composed route and pinned digest depends on).
    pub fn build(torus: &TorusSystem, traffic: &TrafficConfig) -> Result<Self> {
        Self::build_with(torus, traffic, 0)
    }

    /// Builds the torus fabric with `adaptive_vcs` unrestricted adaptive VCs
    /// per directed link on top of the escape class. `adaptive_vcs == 0` is the
    /// deterministic layout.
    pub fn build_with(
        torus: &TorusSystem,
        traffic: &TrafficConfig,
        adaptive_vcs: u8,
    ) -> Result<Self> {
        traffic.validate().map_err(SimError::from)?;
        let cube = KaryNCube::new(torus.radix(), torus.dimensions()).map_err(SimError::from)?;
        let tech = torus.technology();
        let (dirs, escape_vcs) = if torus.radix() == 2 { (1u32, 1u32) } else { (2u32, 2u32) };
        let vcs = escape_vcs + adaptive_vcs as u32;
        let link_channels = (cube.num_nodes() * cube.dimensions()) as u32 * dirs * vcs;
        Ok(CubeFabric {
            torus: torus.clone(),
            cube,
            t_node: tech.node_channel_time(traffic.flit_bytes),
            t_link: tech.switch_channel_time(traffic.flit_bytes),
            vcs,
            escape_vcs,
            dirs,
            link_channels,
        })
    }

    /// The system description the fabric was built from.
    pub fn torus(&self) -> &TorusSystem {
        &self.torus
    }

    /// The underlying topology.
    pub fn cube(&self) -> &KaryNCube {
        &self.cube
    }

    /// Total number of channels (links × VCs plus injection/ejection).
    pub fn num_channels(&self) -> usize {
        self.link_channels as usize + 2 * self.cube.num_nodes()
    }

    /// Per-flit node↔router channel time.
    pub fn t_node(&self) -> f64 {
        self.t_node
    }

    /// Per-flit router↔router channel time.
    pub fn t_link(&self) -> f64 {
        self.t_link
    }

    /// Per-flit transfer time of one global channel.
    #[inline]
    pub fn flit_time(&self, ch: GlobalChannelId) -> f64 {
        debug_assert!((ch as usize) < self.num_channels());
        if ch < self.link_channels {
            self.t_link
        } else {
            self.t_node
        }
    }

    /// Virtual channels per directed link (2 under the dateline discipline,
    /// 1 for `k = 2`, plus any adaptive VCs).
    pub fn virtual_channels(&self) -> u32 {
        self.vcs
    }

    /// Virtual channels of the escape (dateline) class per directed link.
    pub fn escape_vcs(&self) -> u32 {
        self.escape_vcs
    }

    /// Unrestricted adaptive virtual channels per directed link (0 on a
    /// deterministic fabric).
    pub fn adaptive_vcs(&self) -> u32 {
        self.vcs - self.escape_vcs
    }

    /// `true` if taking `hop` out of `from` crosses its ring's wrap-around
    /// (dateline) edge — the event that forces the escape class onto VC1.
    #[inline]
    pub fn hop_wraps(&self, from: usize, hop: &CubeHop) -> bool {
        self.cube.hop_crosses_dateline(self.cube.digit(from, hop.dimension), hop.direction)
    }

    /// The adaptive-class channel ids of one hop leaving `from` (empty on a
    /// deterministic fabric). Adaptive VCs are unrestricted: any of them is
    /// legal for any minimal hop, with deadlock freedom guaranteed by the
    /// always-reachable escape class (Duato's protocol).
    #[inline]
    pub fn adaptive_link_channels(
        &self,
        from: usize,
        hop: &CubeHop,
    ) -> std::ops::Range<GlobalChannelId> {
        let base = self.link_channel(from, hop, self.escape_vcs);
        base..base + self.adaptive_vcs()
    }

    /// The escape-class channel of one hop leaving `from`: the dateline VC the
    /// deterministic dimension-order route would use. `wrapped` must be `true`
    /// if the message has already crossed this dimension's wrap edge on any
    /// earlier hop (adaptive or escape) — a message past the dateline must
    /// never re-enter VC0, or the escape class's dependency graph would cycle.
    #[inline]
    pub fn escape_channel(&self, from: usize, hop: &CubeHop, wrapped: bool) -> GlobalChannelId {
        let vc = if self.escape_vcs > 1 && (wrapped || self.hop_wraps(from, hop)) { 1 } else { 0 };
        self.link_channel(from, hop, vc)
    }

    /// The injection channel of a node (crossed first by every message it sends).
    #[inline]
    pub fn injection(&self, node: usize) -> GlobalChannelId {
        self.link_channels + 2 * node as u32
    }

    /// The ejection channel of a node (crossed last by every message it receives).
    #[inline]
    pub fn ejection(&self, node: usize) -> GlobalChannelId {
        self.link_channels + 2 * node as u32 + 1
    }

    /// The sub-ring neighborhood of a node — the torus analogue of the cluster
    /// index used for the intra/inter message classification and the
    /// locality-favouring traffic pattern.
    #[inline]
    pub fn neighborhood_of(&self, node: usize) -> usize {
        node / self.torus.radix()
    }

    /// The channel id of one routed hop leaving `from`, on the virtual channel
    /// selected by the dateline discipline (`vc` is 0 before the ring's wrap
    /// edge, 1 from the wrap hop onwards; always 0 for `k = 2`). Exposed so
    /// equivalence tests can check composed routes against
    /// [`KaryNCube::route`] channel-by-channel.
    pub fn link_channel(&self, from: usize, hop: &CubeHop, vc: u32) -> GlobalChannelId {
        let dir_idx = if self.dirs == 1 || hop.direction == 1 { 0u32 } else { 1u32 };
        let per_node = self.cube.dimensions() as u32 * self.dirs * self.vcs;
        from as u32 * per_node + (hop.dimension as u32 * self.dirs + dir_idx) * self.vcs + vc
    }

    /// All virtual-channel ids of the directed ring link leaving `from` in
    /// dimension `dim` (`positive` selects the +1 or −1 direction; for `k = 2`
    /// the two coincide on the single channel). Fault targets resolve through
    /// this: cutting a ring edge means disabling every VC of the directed link.
    pub fn directed_link_channels(
        &self,
        from: usize,
        dim: usize,
        positive: bool,
    ) -> Vec<GlobalChannelId> {
        debug_assert!(from < self.cube.num_nodes() && dim < self.cube.dimensions());
        let dir_idx = if self.dirs == 1 || positive { 0u32 } else { 1u32 };
        let per_node = self.cube.dimensions() as u32 * self.dirs * self.vcs;
        let base = from as u32 * per_node + (dim as u32 * self.dirs + dir_idx) * self.vcs;
        (base..base + self.vcs).collect()
    }

    /// The ring neighbour of `node` in dimension `dim` (`positive` picks the
    /// +1 or −1 direction; they coincide for `k = 2`).
    pub fn ring_neighbor(&self, node: usize, dim: usize, positive: bool) -> usize {
        let k = self.torus.radix();
        let stride = k.pow(dim as u32);
        let coord = (node / stride) % k;
        let next = if positive { (coord + 1) % k } else { (coord + k - 1) % k };
        node - coord * stride + next * stride
    }

    /// Every channel incident to one node's router: its injection and ejection
    /// channels plus all VCs of every directed link leaving or entering it —
    /// the channel set a whole-switch fault disables. Sorted and deduplicated
    /// (for `k = 2` the two directions share channels).
    pub fn switch_channels(&self, node: usize) -> Vec<GlobalChannelId> {
        let mut out = vec![self.injection(node), self.ejection(node)];
        for dim in 0..self.cube.dimensions() {
            for positive in [true, false] {
                out.extend(self.directed_link_channels(node, dim, positive));
                let neighbor = self.ring_neighbor(node, dim, positive);
                out.extend(self.directed_link_channels(neighbor, dim, !positive));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Creates the channel-occupancy pool matching this fabric.
    pub fn channel_pool(&self) -> ChannelPool {
        let mut flit_times = vec![self.t_link; self.link_channels as usize];
        flit_times.extend(std::iter::repeat_n(self.t_node, 2 * self.cube.num_nodes()));
        ChannelPool::new(flit_times)
    }

    /// Appends the globalized itinerary of `src → dst` (injection, dimension-order
    /// link channels on dateline-selected VCs, ejection) to `out`, reusing
    /// `hop_scratch` for the topology walk. The route table composes every
    /// deterministic torus message with it, allocation-free once both buffers
    /// have grown; [`CubeFabric::build_path`] is the freshly-allocated
    /// verification view of the same computation.
    pub fn route_into(
        &self,
        src: usize,
        dst: usize,
        hop_scratch: &mut Vec<CubeHop>,
        out: &mut Vec<GlobalChannelId>,
    ) -> Result<()> {
        hop_scratch.clear();
        self.cube
            .route_into(NodeId::from_index(src), NodeId::from_index(dst), hop_scratch)
            .map_err(SimError::from)?;
        // The dateline VC of every hop comes from the topology layer — the one
        // shared definition the analytical torus model also consumes. `vcs == 1`
        // fabrics (k = 2) get all-zero VCs from the same helper.
        let datelines = self
            .cube
            .dateline_vcs_iter(NodeId::from_index(src), hop_scratch)
            .map_err(SimError::from)?;
        out.push(self.injection(src));
        let mut from = src;
        for (hop, vc) in hop_scratch.iter().zip(datelines) {
            out.push(self.link_channel(from, hop, vc as u32));
            from = hop.node.index();
        }
        debug_assert_eq!(from, dst, "dimension-order route must end at the destination");
        out.push(self.ejection(dst));
        Ok(())
    }

    /// Builds the wormhole itinerary for a message from node `src` to node `dst`
    /// from scratch — the per-message reference computation the route table's
    /// composed routes are checked against.
    pub fn build_path(&self, src: usize, dst: usize) -> Result<Itinerary> {
        if src == dst {
            return Err(SimError::InvalidConfiguration {
                reason: format!("message from node {src} to itself"),
            });
        }
        let mut hops = Vec::new();
        let mut channels = Vec::new();
        self.route_into(src, dst, &mut hops, &mut channels)?;
        let bottleneck = channels.iter().map(|&c| self.flit_time(c)).fold(0.0f64, f64::max);
        Ok(Itinerary {
            channels,
            bottleneck,
            src_cluster: self.neighborhood_of(src) as u32,
            dst_cluster: self.neighborhood_of(dst) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fabric(k: usize, n: usize) -> CubeFabric {
        let torus = TorusSystem::new(k, n).unwrap();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        CubeFabric::build(&torus, &traffic).unwrap()
    }

    #[test]
    fn channel_space_is_dense_and_disjoint() {
        let f = fabric(4, 2);
        // 16 nodes × 2 dims × 2 dirs × 2 VCs links + 32 injection/ejection.
        assert_eq!(f.num_channels(), 16 * 2 * 2 * 2 + 32);
        assert_eq!(f.channel_pool().len(), f.num_channels());
        let mut seen = HashSet::new();
        for node in 0..16 {
            assert!(seen.insert(f.injection(node)));
            assert!(seen.insert(f.ejection(node)));
            assert!(f.injection(node) >= f.link_channels);
        }
    }

    #[test]
    fn flit_times_follow_channel_kind() {
        let f = fabric(4, 2);
        // Paper constants for Lm = 256: t_cn = 0.276, t_cs = 0.522.
        assert!((f.t_node() - 0.276).abs() < 1e-12);
        assert!((f.t_link() - 0.522).abs() < 1e-12);
        let pool = f.channel_pool();
        assert!((pool.flit_time(0) - 0.522).abs() < 1e-12);
        assert!((pool.flit_time(f.injection(3)) - 0.276).abs() < 1e-12);
        assert!((f.flit_time(f.ejection(0)) - 0.276).abs() < 1e-12);
    }

    #[test]
    fn paths_match_topology_routes_hop_by_hop() {
        let f = fabric(4, 2);
        let cube = f.cube();
        for src in 0..cube.num_nodes() {
            for dst in 0..cube.num_nodes() {
                if src == dst {
                    assert!(f.build_path(src, dst).is_err());
                    continue;
                }
                let it = f.build_path(src, dst).unwrap();
                let hops = cube.route(NodeId::from_index(src), NodeId::from_index(dst)).unwrap();
                // injection + one channel per hop + ejection.
                assert_eq!(it.channels.len(), hops.len() + 2);
                assert_eq!(it.channels[0], f.injection(src));
                assert_eq!(*it.channels.last().unwrap(), f.ejection(dst));
                assert!((it.bottleneck - f.t_link()).abs() < 1e-12);
                // No channel repeats on a minimal dimension-order path.
                let unique: HashSet<_> = it.channels.iter().collect();
                assert_eq!(unique.len(), it.channels.len(), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn wrap_crossing_routes_switch_virtual_channel() {
        // On a 4-ring, 3 -> 0 (+1 across the wrap) and 0 -> 3 (−1 across the
        // wrap) must use VC1; 0 -> 1 stays on VC0 of the same physical link
        // family.
        let f = fabric(4, 1);
        let forward_wrap = f.build_path(3, 0).unwrap();
        let backward_wrap = f.build_path(0, 3).unwrap();
        let plain = f.build_path(0, 1).unwrap();
        // Link ids are (node·dirs + dir)·vcs + vc: odd ids are VC1.
        assert_eq!(forward_wrap.channels[1] % 2, 1, "wrap hop must ride VC1");
        assert_eq!(backward_wrap.channels[1] % 2, 1, "wrap hop must ride VC1");
        assert_eq!(plain.channels[1] % 2, 0, "non-wrap hop must ride VC0");
        // A two-hop route crossing the wrap keeps VC1 after the crossing.
        let two_hop = f.build_path(3, 1).unwrap();
        assert_eq!(two_hop.channels.len(), 4);
        assert_eq!(two_hop.channels[1] % 2, 1);
        assert_eq!(two_hop.channels[2] % 2, 1);
    }

    #[test]
    fn hypercube_uses_single_channels() {
        let f = fabric(2, 3);
        assert_eq!(f.num_channels(), 8 * 3 + 16);
        let it = f.build_path(0, 7).unwrap();
        assert_eq!(it.channels.len(), 3 + 2);
        let unique: HashSet<_> = it.channels.iter().collect();
        assert_eq!(unique.len(), it.channels.len());
    }

    #[test]
    fn directed_link_channels_match_hop_channels() {
        let f = fabric(4, 2);
        // The +1 hop out of node 5 in dimension 0 lands on node 6; its channel
        // set must be exactly the VCs the router would use for that hop.
        let hop = CubeHop { dimension: 0, direction: 1, node: NodeId::from_index(6) };
        let expected: Vec<_> =
            (0..f.virtual_channels()).map(|vc| f.link_channel(5, &hop, vc)).collect();
        assert_eq!(f.directed_link_channels(5, 0, true), expected);
        let back = CubeHop { dimension: 0, direction: -1, node: NodeId::from_index(5) };
        let expected: Vec<_> =
            (0..f.virtual_channels()).map(|vc| f.link_channel(6, &back, vc)).collect();
        assert_eq!(f.directed_link_channels(6, 0, false), expected);
        // k = 2: both directions collapse onto the single channel.
        let h = fabric(2, 3);
        assert_eq!(h.directed_link_channels(0, 1, true), h.directed_link_channels(0, 1, false));
    }

    #[test]
    fn ring_neighbors_wrap_per_dimension() {
        let f = fabric(4, 2);
        assert_eq!(f.ring_neighbor(5, 0, true), 6);
        assert_eq!(f.ring_neighbor(5, 0, false), 4);
        assert_eq!(f.ring_neighbor(3, 0, true), 0, "dimension-0 wrap");
        assert_eq!(f.ring_neighbor(5, 1, true), 9);
        assert_eq!(f.ring_neighbor(1, 1, false), 13, "dimension-1 wrap");
        let h = fabric(2, 3);
        assert_eq!(h.ring_neighbor(0, 2, true), 4);
        assert_eq!(h.ring_neighbor(0, 2, false), 4, "k = 2 directions coincide");
    }

    #[test]
    fn switch_channels_cover_all_incident_links() {
        let f = fabric(4, 2);
        let channels = f.switch_channels(5);
        // injection + ejection + (2 dims × 2 dirs × 2 VCs) outgoing + the same
        // incoming from the four neighbours.
        assert_eq!(channels.len(), 2 + 8 + 8);
        assert!(channels.contains(&f.injection(5)));
        assert!(channels.contains(&f.ejection(5)));
        for dim in 0..2 {
            for positive in [true, false] {
                for ch in f.directed_link_channels(5, dim, positive) {
                    assert!(channels.contains(&ch), "outgoing dim {dim}");
                }
                let nb = f.ring_neighbor(5, dim, positive);
                for ch in f.directed_link_channels(nb, dim, !positive) {
                    assert!(channels.contains(&ch), "incoming dim {dim}");
                }
            }
        }
        // Sorted and unique.
        let mut sorted = channels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, channels);
    }

    fn adaptive_fabric(k: usize, n: usize, adaptive_vcs: u8) -> CubeFabric {
        let torus = TorusSystem::new(k, n).unwrap();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
        CubeFabric::build_with(&torus, &traffic, adaptive_vcs).unwrap()
    }

    #[test]
    #[allow(clippy::identity_op)] // channel-count factors spelled out per leg
    fn adaptive_fabric_layers_vcs_above_the_escape_class() {
        let det = fabric(4, 2);
        let ad = adaptive_fabric(4, 2, 2);
        assert_eq!(det.adaptive_vcs(), 0);
        assert_eq!((ad.escape_vcs(), ad.adaptive_vcs(), ad.virtual_channels()), (2, 2, 4));
        assert_eq!(ad.num_channels(), 16 * 2 * 2 * 4 + 32);

        let hop = CubeHop { dimension: 0, direction: 1, node: NodeId::from_index(1) };
        assert!(det.adaptive_link_channels(0, &hop).is_empty());
        let range = ad.adaptive_link_channels(0, &hop);
        assert_eq!(range.len(), 2);
        assert_eq!(range.start, ad.link_channel(0, &hop, 2));

        // Escape selection: VC0 before the dateline, VC1 on the wrap hop and
        // for any message that already wrapped this dimension.
        assert_eq!(ad.escape_channel(0, &hop, false), ad.link_channel(0, &hop, 0));
        assert_eq!(ad.escape_channel(0, &hop, true), ad.link_channel(0, &hop, 1));
        let wrap_hop = CubeHop { dimension: 0, direction: 1, node: NodeId::from_index(0) };
        assert!(ad.hop_wraps(3, &wrap_hop));
        assert!(!ad.hop_wraps(1, &hop));
        assert_eq!(ad.escape_channel(3, &wrap_hop, false), ad.link_channel(3, &wrap_hop, 1));

        // Hypercube: single-VC escape class, adaptive layered above it.
        let h = adaptive_fabric(2, 3, 1);
        assert_eq!((h.escape_vcs(), h.adaptive_vcs()), (1, 1));
        assert_eq!(h.num_channels(), 8 * 3 * 1 * 2 + 16);
    }

    #[test]
    fn deterministic_routes_on_adaptive_fabrics_stay_in_the_escape_class() {
        let ad = adaptive_fabric(4, 2, 2);
        let vcs = ad.virtual_channels();
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                let it = ad.build_path(src, dst).unwrap();
                for &ch in &it.channels {
                    if ch < ad.link_channels {
                        assert!(ch % vcs < ad.escape_vcs(), "{src}->{dst} left the escape class");
                    }
                }
            }
        }
    }

    #[test]
    fn neighborhoods_are_dimension0_subrings() {
        let f = fabric(4, 2);
        assert_eq!(f.neighborhood_of(0), 0);
        assert_eq!(f.neighborhood_of(3), 0);
        assert_eq!(f.neighborhood_of(4), 1);
        let intra = f.build_path(0, 3).unwrap();
        assert_eq!(intra.src_cluster, intra.dst_cluster);
        let inter = f.build_path(0, 4).unwrap();
        assert_ne!(inter.src_cluster, inter.dst_cluster);
    }
}
