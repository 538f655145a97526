//! k-ary n-cube topology (torus) with deterministic dimension-order routing.
//!
//! The analytical-modeling lineage the paper builds on (its references \[6\]–\[9\]: Draper
//! & Ghosh, Ould-Khaoua, Sarbazi-Azad et al.) studies wormhole routing in k-ary
//! n-cubes. This module implements that topology so the benchmark suite can contrast
//! the fat-tree-based multi-cluster model with the classic direct-network setting, and
//! so the queueing substrate has a second, structurally different consumer exercised in
//! tests.
//!
//! Nodes are addressed by `n` digits in radix `k`; each node has `2n` neighbours
//! (±1 in every dimension, with wrap-around). Deterministic dimension-order routing
//! corrects dimensions from 0 upwards, taking the shorter way around each ring.

use crate::ids::NodeId;
use crate::{upow, Result, TopologyError};
use serde::{Deserialize, Serialize};

/// A k-ary n-cube (n-dimensional torus with k nodes per dimension).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KaryNCube {
    k: usize,
    n: usize,
    num_nodes: usize,
}

/// One hop of a dimension-order route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CubeHop {
    /// Dimension being corrected.
    pub dimension: usize,
    /// Direction of travel: `+1` or `-1` around the ring.
    pub direction: i8,
    /// Node reached after the hop.
    pub node: NodeId,
}

impl KaryNCube {
    /// Creates a k-ary n-cube.
    pub fn new(k: usize, n: usize) -> Result<Self> {
        if k < 2 {
            return Err(TopologyError::InvalidRadix { k });
        }
        if n == 0 {
            return Err(TopologyError::InvalidDimension { n });
        }
        let nodes_u128 = (k as u128).pow(n as u32);
        if nodes_u128 > crate::tree::MAX_NODES {
            return Err(TopologyError::TooLarge {
                nodes: nodes_u128,
                limit: crate::tree::MAX_NODES,
            });
        }
        Ok(KaryNCube { k, n, num_nodes: upow(k, n as u32) })
    }

    /// Radix (nodes per dimension).
    #[inline]
    pub fn radix(&self) -> usize {
        self.k
    }

    /// Number of dimensions.
    #[inline]
    pub fn dimensions(&self) -> usize {
        self.n
    }

    /// Total number of nodes, `k^n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of unidirectional channels: `2n` per node (`n` per node when `k == 2`,
    /// where +1 and −1 coincide).
    pub fn num_channels(&self) -> usize {
        if self.k == 2 {
            self.num_nodes * self.n
        } else {
            self.num_nodes * 2 * self.n
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId::from_index)
    }

    /// Decodes a node id into its digit vector (dimension 0 first).
    pub fn coordinates(&self, node: NodeId) -> Result<Vec<usize>> {
        self.check(node)?;
        let mut rest = node.index();
        let mut coords = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            coords.push(rest % self.k);
            rest /= self.k;
        }
        Ok(coords)
    }

    /// Encodes coordinates back into a node id.
    pub fn node_at(&self, coords: &[usize]) -> Result<NodeId> {
        if coords.len() != self.n || coords.iter().any(|&c| c >= self.k) {
            return Err(TopologyError::NodeOutOfRange {
                node: NodeId(u32::MAX),
                num_nodes: self.num_nodes,
            });
        }
        let mut v = 0usize;
        for (dim, &c) in coords.iter().enumerate() {
            v += c * upow(self.k, dim as u32);
        }
        Ok(NodeId::from_index(v))
    }

    /// Minimal hop distance between two nodes (sum of per-dimension ring distances).
    pub fn distance(&self, a: NodeId, b: NodeId) -> Result<usize> {
        self.check(a)?;
        self.check(b)?;
        let (mut x, mut y) = (a.index(), b.index());
        let mut total = 0;
        for _ in 0..self.n {
            let d = (x % self.k).abs_diff(y % self.k);
            total += d.min(self.k - d);
            x /= self.k;
            y /= self.k;
        }
        Ok(total)
    }

    /// Deterministic dimension-order route from `src` to `dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Vec<CubeHop>> {
        let mut hops = Vec::new();
        self.route_into(src, dst, &mut hops)?;
        Ok(hops)
    }

    /// Appends the dimension-order route from `src` to `dst` to `out` without
    /// allocating when `out` has capacity — the buffer-reusing walker consumed
    /// by the simulator's per-message route composition (mirroring
    /// [`crate::routing::NcaRouter::route_into`]). Digits are read off the node
    /// indices by `%`/`/`; no coordinate vector is built.
    pub fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<CubeHop>) -> Result<()> {
        if src == dst {
            return Err(TopologyError::SelfRouting { node: src });
        }
        self.check(src)?;
        self.check(dst)?;
        let mut cur = src.index();
        let (mut rest_src, mut rest_dst) = (cur, dst.index());
        let mut stride = 1;
        for dimension in 0..self.n {
            let (from, to) = (rest_src % self.k, rest_dst % self.k);
            let (direction, steps) = self.ring_way(from, to);
            let mut digit = from;
            for _ in 0..steps {
                (cur, digit) = self.step(cur, digit, stride, direction);
                out.push(CubeHop { dimension, direction, node: NodeId::from_index(cur) });
            }
            rest_src /= self.k;
            rest_dst /= self.k;
            stride *= self.k;
        }
        Ok(())
    }

    /// Appends the minimal ("productive") next hops from `current` towards
    /// `dst` onto `out`: one hop per still-unresolved dimension, each taking
    /// the shorter way around its ring with ties broken forward — exactly the
    /// per-dimension direction rule of [`KaryNCube::route_into`], so every
    /// candidate lies on a minimal path and the union of links reachable this
    /// way equals the links dimension-order routing uses. Candidates are
    /// ordered by dimension; the first entry is always the hop dimension-order
    /// routing would take (the natural escape choice of a Duato-style adaptive
    /// router). `current == dst` yields no candidates.
    pub fn adaptive_hops(
        &self,
        current: NodeId,
        dst: NodeId,
        out: &mut Vec<CubeHop>,
    ) -> Result<()> {
        self.check(current)?;
        self.check(dst)?;
        let cur = current.index();
        let (mut rest_cur, mut rest_dst) = (cur, dst.index());
        let mut stride = 1;
        for dimension in 0..self.n {
            let (from, to) = (rest_cur % self.k, rest_dst % self.k);
            if from != to {
                let (direction, _) = self.ring_way(from, to);
                let (next, _) = self.step(cur, from, stride, direction);
                out.push(CubeHop { dimension, direction, node: NodeId::from_index(next) });
            }
            rest_cur /= self.k;
            rest_dst /= self.k;
            stride *= self.k;
        }
        Ok(())
    }

    /// The direction and hop count of the shorter way from ring digit `from`
    /// to `to`, ties broken forward (`+1`). Zero hops when they coincide.
    #[inline]
    fn ring_way(&self, from: usize, to: usize) -> (i8, usize) {
        let forward = (to + self.k - from) % self.k;
        let backward = self.k - forward;
        if forward <= backward {
            (1, forward)
        } else {
            (-1, backward)
        }
    }

    /// One hop from node index `node`, whose digit in the hop's dimension is
    /// `digit` and whose index stride there is `stride`, in `direction` with
    /// ring wrap. Returns the next node index and its digit.
    #[inline]
    fn step(&self, node: usize, digit: usize, stride: usize, direction: i8) -> (usize, usize) {
        let last = self.k - 1;
        match (direction == 1, digit) {
            (true, d) if d == last => (node - last * stride, 0),
            (true, d) => (node + stride, d + 1),
            (false, 0) => (node + last * stride, last),
            (false, d) => (node - stride, d - 1),
        }
    }

    /// The ring coordinate (digit) of node index `node` in dimension `dim`.
    #[inline]
    pub fn digit(&self, node: usize, dim: usize) -> usize {
        (node / self.k.pow(dim as u32)) % self.k
    }

    /// Whether a hop departing a node whose digit in the hop's dimension is
    /// `from_digit` crosses that ring's wrap-around (dateline) edge. Always
    /// false for `k == 2`, where a ring is a single bidirectional edge.
    #[inline]
    pub fn hop_crosses_dateline(&self, from_digit: usize, direction: i8) -> bool {
        self.k > 2
            && ((direction == 1 && from_digit == self.k - 1)
                || (direction == -1 && from_digit == 0))
    }

    /// The dateline virtual-channel index of every hop of a dimension-order
    /// route: a hop rides VC 0 until (and unless) its ring's wrap-around edge
    /// has been crossed in that dimension, and VC 1 from the crossing hop
    /// onwards — the classic Dally–Seitz discipline that keeps the torus
    /// channel-dependency graph acyclic. For `k = 2` a ring is a single
    /// bidirectional edge, no intra-ring dependency exists and every hop rides
    /// VC 0.
    ///
    /// `hops` must be the dimension-order route starting at `src` (as produced
    /// by [`KaryNCube::route`]); this is the one shared definition consumed by
    /// both the simulator's cube fabric and the analytical torus model, so the
    /// two layers cannot drift apart on VC selection.
    pub fn dateline_vcs(&self, src: NodeId, hops: &[CubeHop]) -> Result<Vec<u8>> {
        Ok(self.dateline_vcs_iter(src, hops)?.collect())
    }

    /// [`KaryNCube::dateline_vcs`] as a lazy walk over `hops`, for per-message
    /// callers that must not allocate.
    pub fn dateline_vcs_iter<'a>(
        &'a self,
        src: NodeId,
        hops: &'a [CubeHop],
    ) -> Result<impl Iterator<Item = u8> + 'a> {
        self.check(src)?;
        let mut wrapped_dim = usize::MAX; // routes correct dimensions upwards
        let mut wrapped = false;
        let mut from = src.index();
        Ok(hops.iter().map(move |hop| {
            if hop.dimension != wrapped_dim {
                wrapped_dim = hop.dimension;
                wrapped = false;
            }
            // The digit the hop departs from decides whether it crosses the
            // ring's wrap-around edge.
            wrapped = wrapped
                || self.hop_crosses_dateline(self.digit(from, hop.dimension), hop.direction);
            from = hop.node.index();
            wrapped as u8
        }))
    }

    /// Average minimal distance under uniform traffic.
    ///
    /// For each dimension the average ring distance is `k/4` for even `k` and
    /// `(k² − 1) / (4k)` for odd `k` (averaged over all destinations *including* the
    /// source); the conventional closed form used by the k-ary n-cube literature scales
    /// that by `n` and corrects for excluding the source itself.
    pub fn average_distance(&self) -> f64 {
        let k = self.k as f64;
        let n = self.n as f64;
        let per_dim = if self.k.is_multiple_of(2) { k / 4.0 } else { (k * k - 1.0) / (4.0 * k) };
        // Average over all k^n destinations is n·per_dim; excluding the source (which
        // contributes distance 0) rescales by N/(N-1).
        let nn = self.num_nodes as f64;
        n * per_dim * nn / (nn - 1.0)
    }

    fn check(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.num_nodes {
            Err(TopologyError::NodeOutOfRange { node, num_nodes: self.num_nodes })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let cube = KaryNCube::new(4, 3).unwrap();
        assert_eq!(cube.num_nodes(), 64);
        assert_eq!(cube.num_channels(), 64 * 6);
        let cube2 = KaryNCube::new(2, 4).unwrap();
        assert_eq!(cube2.num_nodes(), 16);
        assert_eq!(cube2.num_channels(), 16 * 4);
        assert!(KaryNCube::new(1, 3).is_err());
        assert!(KaryNCube::new(4, 0).is_err());
        assert!(KaryNCube::new(1024, 8).is_err());
    }

    #[test]
    fn coordinate_roundtrip() {
        let cube = KaryNCube::new(3, 3).unwrap();
        for node in cube.nodes() {
            let c = cube.coordinates(node).unwrap();
            assert_eq!(cube.node_at(&c).unwrap(), node);
        }
        assert!(cube.node_at(&[0, 0]).is_err());
        assert!(cube.node_at(&[3, 0, 0]).is_err());
    }

    #[test]
    fn routes_follow_minimal_distance() {
        let cube = KaryNCube::new(4, 2).unwrap();
        for a in cube.nodes() {
            for b in cube.nodes() {
                if a == b {
                    continue;
                }
                let hops = cube.route(a, b).unwrap();
                assert_eq!(hops.len(), cube.distance(a, b).unwrap());
                assert_eq!(hops.last().unwrap().node, b);
                // Dimension-order: dimensions are non-decreasing along the route.
                for w in hops.windows(2) {
                    assert!(w[0].dimension <= w[1].dimension);
                }
            }
        }
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let cube = KaryNCube::new(5, 2).unwrap();
        let diameter = 2 * (5 / 2);
        for a in cube.nodes() {
            for b in cube.nodes() {
                let d = cube.distance(a, b).unwrap();
                assert_eq!(d, cube.distance(b, a).unwrap());
                assert!(d <= diameter);
            }
        }
    }

    #[test]
    fn average_distance_matches_enumeration() {
        for &(k, n) in &[(4usize, 2usize), (3, 3), (5, 2), (2, 4)] {
            let cube = KaryNCube::new(k, n).unwrap();
            let mut total = 0usize;
            let mut pairs = 0usize;
            for a in cube.nodes() {
                for b in cube.nodes() {
                    if a == b {
                        continue;
                    }
                    total += cube.distance(a, b).unwrap();
                    pairs += 1;
                }
            }
            let measured = total as f64 / pairs as f64;
            let formula = cube.average_distance();
            assert!(
                (measured - formula).abs() < 1e-9,
                "({k},{n}): measured={measured}, formula={formula}"
            );
        }
    }

    #[test]
    fn route_into_appends_and_matches_route() {
        let cube = KaryNCube::new(4, 2).unwrap();
        let mut buf = Vec::new();
        for a in cube.nodes() {
            for b in cube.nodes() {
                if a == b {
                    continue;
                }
                buf.clear();
                cube.route_into(a, b, &mut buf).unwrap();
                assert_eq!(buf, cube.route(a, b).unwrap());
            }
        }
        // Appending semantics: an uncleaned buffer keeps its prefix.
        let prefix = buf.len();
        cube.route_into(NodeId(0), NodeId(1), &mut buf).unwrap();
        assert!(buf.len() > prefix);
    }

    #[test]
    fn dateline_vcs_follow_the_wrap_crossing() {
        // On a 4-ring, 3 -> 0 crosses the wrap immediately (VC1); 0 -> 1 never
        // does (VC0); 3 -> 1 crosses on the first hop and stays on VC1.
        let ring = KaryNCube::new(4, 1).unwrap();
        let route = |a: usize, b: usize| ring.route(NodeId::from_index(a), NodeId::from_index(b));
        let vcs = |a, b| ring.dateline_vcs(NodeId::from_index(a), &route(a, b).unwrap()).unwrap();
        assert_eq!(vcs(3, 0), vec![1]);
        assert_eq!(vcs(0, 3), vec![1]); // backward across the wrap
        assert_eq!(vcs(0, 1), vec![0]);
        assert_eq!(vcs(3, 1), vec![1, 1]);
        assert_eq!(vcs(1, 3), vec![0, 0]); // tie broken forward, no wrap
                                           // The wrap state resets per dimension.
        let cube = KaryNCube::new(4, 2).unwrap();
        let hops = cube.route(NodeId::from_index(3), NodeId::from_index(4)).unwrap();
        let vcs = cube.dateline_vcs(NodeId::from_index(3), &hops).unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(vcs, vec![1, 0], "dimension-1 hop starts fresh on VC0");
        // k = 2 rings have a single channel: every hop rides VC 0.
        let hyper = KaryNCube::new(2, 3).unwrap();
        let hops = hyper.route(NodeId::from_index(0), NodeId::from_index(7)).unwrap();
        assert_eq!(hyper.dateline_vcs(NodeId::from_index(0), &hops).unwrap(), vec![0; hops.len()]);
    }

    #[test]
    fn self_route_rejected() {
        let cube = KaryNCube::new(3, 2).unwrap();
        assert!(cube.route(NodeId(4), NodeId(4)).is_err());
    }

    #[test]
    fn adaptive_hops_are_minimal_and_lead_by_dimension_order() {
        for &(k, n) in &[(4usize, 2usize), (3, 3), (5, 2), (2, 4)] {
            let cube = KaryNCube::new(k, n).unwrap();
            let mut hops = Vec::new();
            for a in cube.nodes() {
                for b in cube.nodes() {
                    if a == b {
                        continue;
                    }
                    hops.clear();
                    cube.adaptive_hops(a, b, &mut hops).unwrap();
                    let d = cube.distance(a, b).unwrap();
                    assert!(!hops.is_empty());
                    // Every candidate strictly reduces the distance (minimality).
                    for hop in &hops {
                        assert_eq!(
                            cube.distance(hop.node, b).unwrap(),
                            d - 1,
                            "({k},{n}) {a}->{b}"
                        );
                    }
                    // The first candidate is the dimension-order hop.
                    let dor = cube.route(a, b).unwrap();
                    assert_eq!(hops[0], dor[0], "({k},{n}) {a}->{b}");
                    // One candidate per unresolved dimension, dimensions ascending.
                    for w in hops.windows(2) {
                        assert!(w[0].dimension < w[1].dimension);
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_hops_at_destination_are_empty() {
        let cube = KaryNCube::new(4, 2).unwrap();
        let mut hops = Vec::new();
        cube.adaptive_hops(NodeId(5), NodeId(5), &mut hops).unwrap();
        assert!(hops.is_empty());
    }

    #[test]
    fn dateline_helper_matches_the_vc_discipline() {
        let ring = KaryNCube::new(4, 1).unwrap();
        assert!(ring.hop_crosses_dateline(3, 1));
        assert!(ring.hop_crosses_dateline(0, -1));
        assert!(!ring.hop_crosses_dateline(1, 1));
        assert!(!ring.hop_crosses_dateline(3, -1));
        let hyper = KaryNCube::new(2, 2).unwrap();
        assert!(!hyper.hop_crosses_dateline(1, 1), "k = 2 rings have no dateline");
    }
}
