//! Deterministic nearest-common-ancestor (NCA) routing for the m-port n-tree.
//!
//! The paper adopts a deterministic routing algorithm derived from Up*/Down* routing
//! (its reference \[18\]): every message first *ascends* from the source node towards the
//! nearest common ancestor of source and destination, then *descends* to the
//! destination. Because the m-port n-tree has full bisection bandwidth and the
//! algorithm spreads ascending traffic by destination digits, the paper argues that
//! neither link nor switch contention hot-spots arise; the analytical model relies on
//! this balanced-traffic property.
//!
//! A message whose nearest common ancestor sits at tree level `j - 1` crosses `2j`
//! links: `j` ascending (one node→switch link plus `j-1` switch→switch links) and `j`
//! descending (`j-1` switch→switch links plus one switch→node link), passing through
//! `2j - 1` switches.
//!
//! Besides full node-to-node routes the router also produces the two *partial* routes
//! needed to model the inter-cluster access network (ECN1): ascending from a node to a
//! root switch (where the concentrator/dispatcher is attached) and descending from a
//! root switch to a node.

use crate::graph::ChannelId;
use crate::ids::{NodeId, SwitchId};
use crate::tree::MPortNTree;
use crate::{Result, TopologyError};
use serde::{Deserialize, Serialize};

/// An explicit route through one m-port n-tree network instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Channels in traversal order. For a full route the first channel is the source's
    /// injection channel and the last is the destination's ejection channel.
    pub channels: Vec<ChannelId>,
    /// Switches traversed, in order.
    pub switches: Vec<SwitchId>,
    /// Number of ascending links (the paper's `j`).
    pub ascending_links: usize,
    /// Number of descending links.
    pub descending_links: usize,
}

impl Path {
    /// Total number of links (channels) on the path.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.channels.len()
    }

    /// Number of switches traversed (the number of *stages* `K` in the paper's
    /// service-time recursion is `num_links() - 1 == num_switches()` for full routes).
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }
}

/// Maximum tree depth the stack-allocated route walkers support. A deeper tree
/// would need more nodes than fit in memory (`2·k^64`), so this is unreachable
/// in practice.
const MAX_LEVELS: usize = 64;

/// A small fixed-capacity digit word (a switch word or a node's digits), so
/// route walking never allocates.
#[derive(Clone, Copy)]
struct WordBuf {
    buf: [u8; MAX_LEVELS],
    len: usize,
}

impl WordBuf {
    /// The `len` base-`k` digits of `value`, least significant first.
    fn decode(mut value: usize, k: usize, len: usize) -> Self {
        assert!(len <= MAX_LEVELS, "tree deeper than {MAX_LEVELS} levels");
        let mut buf = [0u8; MAX_LEVELS];
        for digit in &mut buf[..len] {
            *digit = (value % k) as u8;
            value /= k;
        }
        WordBuf { buf, len }
    }

    #[inline]
    fn set(&mut self, i: usize, v: u8) {
        if i < self.len {
            self.buf[i] = v;
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// A node address decoded onto the stack: the allocation-free counterpart of
/// [`crate::tree::NodeAddress`] the walkers read digits from.
#[derive(Clone, Copy)]
struct StackNode {
    node: NodeId,
    half: u8,
    /// Digits `d_0 … d_{n-1}`, least significant first.
    digits: WordBuf,
}

impl StackNode {
    fn decode(tree: &MPortNTree, node: NodeId) -> Result<Self> {
        tree.check_node(node)?;
        let half_size = tree.num_nodes() / 2;
        let digits = WordBuf::decode(node.index() % half_size, tree.arity(), tree.levels());
        Ok(StackNode { node, half: (node.index() / half_size) as u8, digits })
    }

    #[inline]
    fn digit(&self, i: usize) -> u8 {
        self.digits.buf[i]
    }

    /// The word of the node's leaf switch: digits `d_1 … d_{n-1}`.
    fn leaf_word(&self) -> WordBuf {
        let mut word = WordBuf { buf: [0u8; MAX_LEVELS], len: self.digits.len - 1 };
        word.buf[..word.len].copy_from_slice(&self.digits.as_slice()[1..]);
        word
    }
}

/// Deterministic NCA router over a borrowed [`MPortNTree`].
///
/// Construction is free (the router borrows the tree), so routers can be
/// created per call site without cost. Two API families are offered:
///
/// * [`route`](Self::route) / [`route_to_root`](Self::route_to_root) /
///   [`route_from_root`](Self::route_from_root) return a fully materialised
///   [`Path`] (channels *and* switches) — convenient for analysis and tests;
/// * [`route_into`](Self::route_into) / [`ascent_into`](Self::ascent_into) /
///   [`descent_into`](Self::descent_into) append the channel sequence onto a
///   caller-provided buffer without allocating — the hot-path API used by the
///   simulator's route table construction.
#[derive(Debug, Clone, Copy)]
pub struct NcaRouter<'a> {
    tree: &'a MPortNTree,
}

impl<'a> NcaRouter<'a> {
    /// Creates a router for the given tree.
    pub fn new(tree: &'a MPortNTree) -> Self {
        NcaRouter { tree }
    }

    /// The tree this router operates on.
    #[inline]
    pub fn tree(&self) -> &'a MPortNTree {
        self.tree
    }

    /// Computes the full deterministic route from `src` to `dst`.
    ///
    /// # Errors
    /// Fails if either node is out of range or `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Path> {
        let mut channels = Vec::new();
        let mut switches = Vec::new();
        self.walk_route(src, dst, &mut channels, &mut |sw| switches.push(sw), None)?;
        let j = channels.len() / 2;
        debug_assert_eq!(channels.len(), 2 * j);
        debug_assert_eq!(switches.len(), 2 * j - 1);
        Ok(Path { channels, switches, ascending_links: j, descending_links: j })
    }

    /// Appends the channels of the full route from `src` to `dst` onto `out`
    /// without any allocation beyond (amortised) buffer growth.
    pub fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<ChannelId>) -> Result<()> {
        self.walk_route(src, dst, out, &mut |_| {}, None)
    }

    /// Like [`NcaRouter::route_into`], but the ascending up-port choices are
    /// taken from `pick` (called with the number of alternatives, returning
    /// the chosen index) instead of the deterministic destination digits.
    ///
    /// The m-port n-tree's path redundancy lies exactly in these up-port
    /// choices: every choice sequence ascends to *some* nearest common
    /// ancestor at the same level, and the descent from it is forced by the
    /// destination address — so every sampled route is a legal minimal
    /// Up*/Down* path (the randomized-routing counterpart of the paper's
    /// deterministic digit rule). `emit_switch` reports every switch
    /// traversed, as in [`NcaRouter::route`].
    pub fn route_into_with_choices(
        &self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<ChannelId>,
        emit_switch: &mut dyn FnMut(SwitchId),
        pick: &mut dyn FnMut(usize) -> usize,
    ) -> Result<()> {
        self.walk_route(src, dst, out, emit_switch, Some(pick))
    }

    /// Like [`NcaRouter::ascent_into`], but with up-port choices taken from
    /// `pick` — the randomized ECN1 ascent. Returns the root switch reached.
    pub fn ascent_into_with_choices(
        &self,
        src: NodeId,
        out: &mut Vec<ChannelId>,
        pick: &mut dyn FnMut(usize) -> usize,
    ) -> Result<SwitchId> {
        self.walk_ascent(src, out, &mut |_| {}, Some(pick))
    }

    /// Ascending-only route from `src` up to a root switch, used for the ECN1 phase of
    /// inter-cluster messages (the concentrator is attached above the root switches).
    ///
    /// The up-port choices are taken from the *source's own* digits, which statically
    /// balances concentrator-bound traffic across the root switches.
    pub fn route_to_root(&self, src: NodeId) -> Result<Path> {
        let mut channels = Vec::new();
        let mut switches = Vec::new();
        self.walk_ascent(src, &mut channels, &mut |sw| switches.push(sw), None)?;
        let links = channels.len();
        Ok(Path { channels, switches, ascending_links: links, descending_links: 0 })
    }

    /// Appends the channels of the ascent from `src` to its root switch onto `out`,
    /// returning the root switch reached.
    pub fn ascent_into(&self, src: NodeId, out: &mut Vec<ChannelId>) -> Result<SwitchId> {
        self.walk_ascent(src, out, &mut |_| {}, None)
    }

    /// Descending-only route from a root switch down to `dst`, used for the ECN1 phase
    /// of inter-cluster messages on the destination-cluster side.
    pub fn route_from_root(&self, root: SwitchId, dst: NodeId) -> Result<Path> {
        self.check_root(root)?;
        let dst = StackNode::decode(self.tree, dst)?;
        let mut channels = Vec::new();
        let mut switches = vec![root];
        self.walk_descent(root, self.root_word(root), &dst, &mut channels, &mut |sw| {
            switches.push(sw)
        })?;
        let links = channels.len();
        Ok(Path { channels, switches, ascending_links: 0, descending_links: links })
    }

    /// Appends the channels of the descent from `root` to `dst` onto `out`.
    pub fn descent_into(
        &self,
        root: SwitchId,
        dst: NodeId,
        out: &mut Vec<ChannelId>,
    ) -> Result<()> {
        self.check_root(root)?;
        let dst = StackNode::decode(self.tree, dst)?;
        self.walk_descent(root, self.root_word(root), &dst, out, &mut |_| {})
    }

    /// The word of a root switch (whose index is its word value).
    fn root_word(&self, root: SwitchId) -> WordBuf {
        WordBuf::decode(root.index(), self.tree.arity(), self.tree.levels() - 1)
    }

    fn check_root(&self, root: SwitchId) -> Result<()> {
        if !self.tree.is_root(root) {
            return Err(TopologyError::SwitchOutOfRange {
                switch: root,
                num_switches: self.tree.num_roots(),
            });
        }
        Ok(())
    }

    /// Core full-route walker: appends channels onto `out` and reports every switch
    /// traversed (leaf, intermediate and NCA) to `emit_switch` in traversal order.
    fn walk_route(
        &self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<ChannelId>,
        emit_switch: &mut dyn FnMut(SwitchId),
        pick: Option<&mut dyn FnMut(usize) -> usize>,
    ) -> Result<()> {
        let n = self.tree.levels();
        let s = StackNode::decode(self.tree, src)?;
        let d = StackNode::decode(self.tree, dst)?;
        if src == dst {
            return Err(TopologyError::SelfRouting { node: src });
        }

        let j = MPortNTree::hop_count_addr(
            (s.half, s.digits.as_slice()),
            (d.half, d.digits.as_slice()),
            n,
        );
        out.reserve(2 * j);

        // Ascending phase: injection link plus `j - 1` switch-to-switch links.
        // The up-channel index chosen at `level` becomes word position `level` of
        // the next switch. Using destination digit `level` (rather than `level+1`)
        // keeps the route deterministic while giving every destination — including
        // destinations sharing a leaf switch — its own descending path, which is
        // what balances traffic across the redundant down links of the fat-tree.
        // A caller-provided `pick` replaces that digit rule with its own choice
        // (randomized Up*/Down* selection); the arity bounds the index either way.
        let (nca, word) = self.ascend(&s, j - 1, &d, out, emit_switch, pick)?;

        // Descending phase: `j - 1` switch-to-switch links plus the ejection link.
        self.walk_descent(nca, word, &d, out, emit_switch)
    }

    /// Core ascent walker: appends the injection channel and all up-links onto `out`,
    /// reporting traversed switches, and returns the root switch reached. Without
    /// `pick` the up-port choices are the source's own digits.
    fn walk_ascent(
        &self,
        src: NodeId,
        out: &mut Vec<ChannelId>,
        emit_switch: &mut dyn FnMut(SwitchId),
        pick: Option<&mut dyn FnMut(usize) -> usize>,
    ) -> Result<SwitchId> {
        let s = StackNode::decode(self.tree, src)?;
        out.reserve(self.tree.levels());
        let levels = self.tree.levels() - 1;
        Ok(self.ascend(&s, levels, &s, out, emit_switch, pick)?.0)
    }

    /// Ascends from `src` through `levels` up-links, appending the injection
    /// channel and every up-channel onto `out`. Up-port `level` is
    /// `pick(k)` (clamped to the arity) or, without `pick`, digit `level` of
    /// `digits_of`. Returns the switch reached and its word.
    fn ascend(
        &self,
        src: &StackNode,
        levels: usize,
        digits_of: &StackNode,
        out: &mut Vec<ChannelId>,
        emit_switch: &mut dyn FnMut(SwitchId),
        mut pick: Option<&mut dyn FnMut(usize) -> usize>,
    ) -> Result<(SwitchId, WordBuf)> {
        let tree = self.tree;
        let n = tree.levels();
        let k = tree.arity();
        out.push(tree.injection_channel(src.node)?);
        let mut current = tree.leaf_switch_of(src.node)?;
        emit_switch(current);
        let mut word = src.leaf_word();
        for level in 0..levels {
            let u = match pick.as_mut() {
                Some(p) => p(k).min(k - 1),
                None => digits_of.digit(level) as usize,
            };
            let ch =
                tree.up_channel(current, u).expect("non-root switches always have k up channels");
            out.push(ch);
            word.set(level, u as u8);
            current = if level + 1 == n - 1 {
                tree.root_switch(word.as_slice())
            } else {
                tree.inner_switch(src.half, (level + 1) as u8, word.as_slice())
            };
            emit_switch(current);
        }
        Ok((current, word))
    }

    /// Core descent walker from `from` (an ancestor of `dst` whose word is
    /// `word`) down to the destination node: appends the switch-to-switch hops
    /// and the final ejection channel onto `out`, reporting the switch reached
    /// after every hop.
    fn walk_descent(
        &self,
        from: SwitchId,
        mut word: WordBuf,
        dst: &StackNode,
        out: &mut Vec<ChannelId>,
        emit_switch: &mut dyn FnMut(SwitchId),
    ) -> Result<()> {
        let tree = self.tree;
        let n = tree.levels();
        let k = tree.arity();
        let mut current = from;
        let mut level = tree.switch_level(from)?.0 as usize;
        while level > 0 {
            let digit = dst.digit(level) as usize;
            let port = if level == n - 1 {
                // Root switches interleave halves on their down ports.
                dst.half as usize * k + digit
            } else {
                digit
            };
            let ch = tree.down_channel(current, port).expect("descent ports are always wired");
            out.push(ch);
            level -= 1;
            word.set(level, dst.digit(level + 1));
            current = if level == n - 1 {
                tree.root_switch(word.as_slice())
            } else {
                tree.inner_switch(dst.half, level as u8, word.as_slice())
            };
            emit_switch(current);
        }
        let ejection = if n == 1 {
            tree.down_channel(current, dst.half as usize * k + dst.digit(0) as usize)
                .expect("single-switch trees wire all node ports")
        } else {
            tree.down_channel(current, dst.digit(0) as usize)
                .expect("leaf switches wire all node ports")
        };
        debug_assert_eq!(tree.ejection_channel(dst.node)?, ejection);
        out.push(ejection);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ChannelKind;
    use crate::ids::Endpoint;

    /// Checks that consecutive channels of a path connect: channel i ends where
    /// channel i+1 starts (same switch), the first channel starts at `src` and the
    /// last ends at `dst`.
    fn assert_path_is_connected(tree: &MPortNTree, path: &Path, src: NodeId, dst: NodeId) {
        let g = tree.graph();
        let first = g.channel(path.channels[0]);
        assert_eq!(first.from, Endpoint::Node(src), "path must start at the source node");
        let last = g.channel(*path.channels.last().unwrap());
        assert_eq!(last.to, Endpoint::Node(dst), "path must end at the destination node");
        for w in path.channels.windows(2) {
            let a = g.channel(w[0]);
            let b = g.channel(w[1]);
            assert_eq!(
                a.to.switch(),
                b.from.switch(),
                "consecutive channels must meet at the same switch"
            );
        }
        // The switch list mirrors the channel list.
        assert_eq!(path.switches.len(), path.channels.len() - 1);
        for (i, sw) in path.switches.iter().enumerate() {
            assert_eq!(g.channel(path.channels[i]).to.switch(), Some(*sw));
            assert_eq!(g.channel(path.channels[i + 1]).from.switch(), Some(*sw));
        }
    }

    #[test]
    fn all_pairs_routes_are_valid_small_trees() {
        for &(m, n) in &[(4usize, 1usize), (4, 2), (4, 3), (8, 2), (6, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let router = NcaRouter::new(&tree);
            for src in tree.nodes() {
                for dst in tree.nodes() {
                    if src == dst {
                        continue;
                    }
                    let path = router.route(src, dst).unwrap();
                    let j = tree.hop_count(src, dst).unwrap();
                    assert_eq!(path.ascending_links, j, "({m},{n}) {src}->{dst}");
                    assert_eq!(path.descending_links, j);
                    assert_eq!(path.num_links(), 2 * j);
                    assert_eq!(path.num_switches(), 2 * j - 1);
                    assert_path_is_connected(&tree, &path, src, dst);
                }
            }
        }
    }

    #[test]
    fn route_channel_kinds_follow_the_paper_convention() {
        // First and last hops are node↔switch links (service time t_cn); all middle
        // hops are switch↔switch links (service time t_cs).
        let tree = MPortNTree::new(8, 3).unwrap();
        let router = NcaRouter::new(&tree);
        let path = router.route(NodeId(0), NodeId(120)).unwrap();
        let g = tree.graph();
        let kinds: Vec<ChannelKind> = path.channels.iter().map(|&c| g.channel(c).kind).collect();
        assert_eq!(kinds.first(), Some(&ChannelKind::NodeSwitch));
        assert_eq!(kinds.last(), Some(&ChannelKind::NodeSwitch));
        for k in &kinds[1..kinds.len() - 1] {
            assert_eq!(*k, ChannelKind::SwitchSwitch);
        }
    }

    #[test]
    fn route_is_deterministic() {
        let tree = MPortNTree::new(8, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let p1 = router.route(NodeId(3), NodeId(17)).unwrap();
        let p2 = router.route(NodeId(3), NodeId(17)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn apex_is_root_for_cross_half_routes() {
        let tree = MPortNTree::new(4, 3).unwrap();
        let router = NcaRouter::new(&tree);
        let dst = NodeId::from_index(tree.num_nodes() - 1);
        let path = router.route(NodeId(0), dst).unwrap();
        assert_eq!(path.ascending_links, tree.levels());
        assert!(tree.is_root(path.switches[path.ascending_links - 1]));
    }

    #[test]
    fn route_to_root_reaches_a_root_switch() {
        for &(m, n) in &[(4usize, 1usize), (4, 3), (8, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let router = NcaRouter::new(&tree);
            for src in tree.nodes() {
                let path = router.route_to_root(src).unwrap();
                assert_eq!(path.num_links(), n, "ascent crosses n links");
                assert_eq!(path.descending_links, 0);
                let last = *path.switches.last().unwrap();
                assert!(tree.is_root(last), "ascent must end at a root switch");
                // First channel is the injection channel of the source.
                assert_eq!(path.channels[0], tree.injection_channel(src).unwrap());
            }
        }
    }

    #[test]
    fn route_from_root_reaches_destination() {
        for &(m, n) in &[(4usize, 1usize), (4, 3), (8, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let router = NcaRouter::new(&tree);
            for root in tree.roots() {
                for dst in tree.nodes().step_by(3) {
                    let path = router.route_from_root(root, dst).unwrap();
                    assert_eq!(path.num_links(), n, "descent crosses n links");
                    assert_eq!(path.ascending_links, 0);
                    assert_eq!(
                        tree.graph().channel(*path.channels.last().unwrap()).to,
                        Endpoint::Node(dst)
                    );
                    assert_eq!(path.switches[0], root);
                }
            }
        }
    }

    #[test]
    fn route_from_non_root_is_rejected() {
        let tree = MPortNTree::new(4, 3).unwrap();
        let router = NcaRouter::new(&tree);
        let non_root = SwitchId::from_index(tree.num_switches() - 1);
        assert!(!tree.is_root(non_root));
        assert!(router.route_from_root(non_root, NodeId(0)).is_err());
    }

    #[test]
    fn ascending_traffic_is_spread_over_roots() {
        // With source-digit ascent selection, the mapping node -> root should use
        // every root switch equally often.
        let tree = MPortNTree::new(8, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let mut counts = vec![0usize; tree.num_roots()];
        for src in tree.nodes() {
            let path = router.route_to_root(src).unwrap();
            counts[path.switches.last().unwrap().index()] += 1;
        }
        let expected = tree.num_nodes() / tree.num_roots();
        assert!(counts.iter().all(|&c| c == expected), "{counts:?}");
    }

    #[test]
    fn buffer_writing_api_matches_path_api() {
        // The `_into` walkers must append exactly the channel sequences of the
        // Path-returning API, for full routes, ascents and descents alike.
        for &(m, n) in &[(4usize, 1usize), (4, 3), (8, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let router = NcaRouter::new(&tree);
            let mut buf = Vec::new();
            for src in tree.nodes() {
                let ascent = router.route_to_root(src).unwrap();
                buf.clear();
                let root = router.ascent_into(src, &mut buf).unwrap();
                assert_eq!(buf, ascent.channels);
                assert_eq!(Some(&root), ascent.switches.last());

                for dst in tree.nodes().step_by(3) {
                    if src != dst {
                        let path = router.route(src, dst).unwrap();
                        buf.clear();
                        router.route_into(src, dst, &mut buf).unwrap();
                        assert_eq!(buf, path.channels, "({m},{n}) {src}->{dst}");
                    }
                    let descent = router.route_from_root(root, dst).unwrap();
                    buf.clear();
                    router.descent_into(root, dst, &mut buf).unwrap();
                    assert_eq!(buf, descent.channels);
                }
            }
        }
    }

    #[test]
    fn buffer_writing_api_appends_without_clearing() {
        let tree = MPortNTree::new(4, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let mut buf = Vec::new();
        router.route_into(NodeId(0), NodeId(1), &mut buf).unwrap();
        let first = buf.len();
        router.route_into(NodeId(2), NodeId(3), &mut buf).unwrap();
        assert!(buf.len() > first, "second route must append after the first");
        let mut alone = Vec::new();
        router.route_into(NodeId(2), NodeId(3), &mut alone).unwrap();
        assert_eq!(&buf[first..], &alone[..]);
    }

    #[test]
    fn into_api_rejects_invalid_requests() {
        let tree = MPortNTree::new(4, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let mut buf = Vec::new();
        assert!(router.route_into(NodeId(1), NodeId(1), &mut buf).is_err());
        let non_root = SwitchId::from_index(tree.num_switches() - 1);
        assert!(!tree.is_root(non_root));
        assert!(router.descent_into(non_root, NodeId(0), &mut buf).is_err());
    }

    #[test]
    fn self_route_is_rejected() {
        let tree = MPortNTree::new(4, 2).unwrap();
        let router = NcaRouter::new(&tree);
        assert!(matches!(
            router.route(NodeId(1), NodeId(1)),
            Err(TopologyError::SelfRouting { .. })
        ));
    }

    #[test]
    fn every_up_choice_sequence_yields_a_valid_route() {
        // Exhaustively drive the choice-parameterized walker with constant
        // choices: every up-port index must produce a connected minimal route
        // ending at the destination (the redundancy claim randomized routing
        // relies on).
        for &(m, n) in &[(4usize, 2usize), (4, 3), (8, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let router = NcaRouter::new(&tree);
            let k = tree.arity();
            for src in tree.nodes().step_by(3) {
                for dst in tree.nodes().step_by(5) {
                    if src == dst {
                        continue;
                    }
                    let reference = router.route(src, dst).unwrap();
                    for choice in 0..k {
                        let mut channels = Vec::new();
                        let mut switches = Vec::new();
                        router
                            .route_into_with_choices(
                                src,
                                dst,
                                &mut channels,
                                &mut |sw| switches.push(sw),
                                &mut |_| choice,
                            )
                            .unwrap();
                        assert_eq!(channels.len(), reference.num_links(), "({m},{n}) {src}->{dst}");
                        let path = Path {
                            channels,
                            switches,
                            ascending_links: reference.ascending_links,
                            descending_links: reference.descending_links,
                        };
                        assert_path_is_connected(&tree, &path, src, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn choice_ascent_reaches_every_root() {
        let tree = MPortNTree::new(8, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let k = tree.arity();
        let mut roots = std::collections::HashSet::new();
        let mut buf = Vec::new();
        for choice in 0..k {
            buf.clear();
            let root =
                router.ascent_into_with_choices(NodeId(0), &mut buf, &mut |_| choice).unwrap();
            assert!(tree.is_root(root));
            assert_eq!(buf.len(), tree.levels());
            roots.insert(root);
        }
        assert_eq!(roots.len(), k, "each up choice reaches a distinct root");
    }

    #[test]
    fn out_of_range_choices_are_clamped() {
        let tree = MPortNTree::new(4, 3).unwrap();
        let router = NcaRouter::new(&tree);
        let mut channels = Vec::new();
        router
            .route_into_with_choices(
                NodeId(0),
                NodeId::from_index(tree.num_nodes() - 1),
                &mut channels,
                &mut |_| {},
                &mut |_| usize::MAX,
            )
            .unwrap();
        assert!(!channels.is_empty());
    }

    #[test]
    fn root_apexes_are_used_evenly() {
        // Over all ordered pairs whose NCA route climbs to the root level,
        // destination-digit ascent selection uses every root switch as the
        // apex equally often.
        let tree = MPortNTree::new(8, 2).unwrap();
        let router = NcaRouter::new(&tree);
        let mut counts = vec![0usize; tree.num_roots()];
        for src in tree.nodes() {
            for dst in tree.nodes().filter(|&d| d != src) {
                let path = router.route(src, dst).unwrap();
                if path.ascending_links == tree.levels() {
                    counts[path.switches[path.ascending_links - 1].index()] += 1;
                }
            }
        }
        assert!(counts[0] > 0);
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn uniform_traffic_is_balanced_on_switch_links() {
        // Under uniform all-to-all traffic every switch↔switch channel is used
        // and no channel carries more than 4× the least loaded one: the
        // deterministic routing creates no hot links.
        let tree = MPortNTree::new(4, 3).unwrap();
        let router = NcaRouter::new(&tree);
        let mut loads = vec![0usize; tree.graph().num_channels()];
        for src in tree.nodes() {
            for dst in tree.nodes().filter(|&d| d != src) {
                for ch in &router.route(src, dst).unwrap().channels {
                    loads[ch.index()] += 1;
                }
            }
        }
        let switch_loads: Vec<usize> = tree
            .graph()
            .channels()
            .filter(|(_, ch)| ch.kind == ChannelKind::SwitchSwitch)
            .map(|(id, _)| loads[id.index()])
            .collect();
        let max = *switch_loads.iter().max().unwrap();
        let min = *switch_loads.iter().min().unwrap();
        assert!(min > 0, "every switch-switch channel is used under all-to-all");
        assert!(max <= 4 * min, "per-channel load imbalance too large: max={max}, min={min}");
    }
}
