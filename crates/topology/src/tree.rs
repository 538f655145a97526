//! Construction of the m-port n-tree fat-tree topology.
//!
//! ## Structure
//!
//! An *m-port n-tree* (Lin 2003; paper Section 2) is built from switches that all have
//! `m` ports. Writing `k = m/2`, the network realised here consists of **two k-ary
//! n-tree halves that share their root switches**:
//!
//! * `k^(n-1)` **root switches** (tree level `n-1`), each using all `m` ports as down
//!   ports — `k` towards half 0 and `k` towards half 1;
//! * per half and per level `0..n-1`, `k^(n-1)` **inner switches**, each with `k` down
//!   ports (ports `0..k`) and `k` up ports (ports `k..m`);
//! * `2·k^n` **processing nodes**, `k` attached to each level-0 (leaf) switch.
//!
//! This realises exactly the node and switch counts of the paper's Eqs. (1)–(2):
//! `N = 2(m/2)^n` and `N_sw = (2n-1)(m/2)^(n-1)`, and is a full-bisection-bandwidth
//! fat-tree: every root switch is an ancestor of every processing node.
//!
//! ## Addressing
//!
//! A processing node is addressed as `(half, d_{n-1} … d_1 d_0)` with `half ∈ {0,1}`
//! and digits in `0..k`. Digit `d_0` selects the port on the node's leaf switch; the
//! remaining digits form the leaf switch *word*. An inner switch is addressed as
//! `(half, level, w_{n-2} … w_0)`; a root switch as `(w_{n-2} … w_0)`.
//!
//! Two switches on adjacent levels `l` and `l+1` (within a half, or inner↔root) are
//! connected iff their words agree on every position except position `l`. Consequently
//! the ancestors of a leaf switch at level `L` are exactly the switches agreeing with
//! it on positions `≥ L`, which is what the nearest-common-ancestor router in
//! [`crate::routing`] exploits.

use crate::graph::{ChannelId, NetworkGraph};
use crate::ids::{Level, NodeId, PortId, SwitchId};
use crate::{upow, Result, TopologyError};

/// Construction guard: refuse to materialise topologies larger than this many nodes.
/// The paper's largest network has 1120 nodes per cluster *system*; individual trees
/// are far smaller. The limit exists so that property tests cannot accidentally request
/// astronomically large graphs.
pub const MAX_NODES: u128 = 1 << 22;

/// The address of a processing node: `(half, digits)` with `digits[0]` the least
/// significant digit (the port on the leaf switch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeAddress {
    /// Which of the two half-trees the node belongs to (0 or 1).
    pub half: u8,
    /// Digits `d_0 … d_{n-1}`, least significant first, each in `0..k`.
    pub digits: Vec<u8>,
}

/// An m-port n-tree topology instance.
///
/// The struct owns the explicit [`NetworkGraph`] plus the routing caches (per-switch
/// up/down channel tables and per-node injection/ejection channels) that the
/// [`crate::routing::NcaRouter`] and the simulator use on the hot path.
#[derive(Debug, Clone)]
pub struct MPortNTree {
    m: usize,
    n: usize,
    k: usize,
    num_nodes: usize,
    num_switches: usize,
    graph: NetworkGraph,
    /// Channel node → leaf switch, indexed by node.
    node_up: Vec<ChannelId>,
    /// Channel leaf switch → node, indexed by node.
    node_down: Vec<ChannelId>,
    /// Leaf switch of each node.
    leaf_switch: Vec<SwitchId>,
    /// `up_channel[switch][u]`: channel from `switch` to its `u`-th ancestor
    /// (empty for root switches).
    up_channel: Vec<Vec<ChannelId>>,
    /// `down_channel[switch][d]`: channel from `switch` to its `d`-th descendant.
    /// For the leaf level the descendants are processing nodes; for root switches the
    /// table has `m` entries (`d < k` towards half 0, `d >= k` towards half 1).
    down_channel: Vec<Vec<ChannelId>>,
    /// Tree level of each switch.
    switch_level: Vec<u8>,
}

impl MPortNTree {
    /// Number of processing nodes of an m-port n-tree (paper Eq. 1) without building it.
    pub fn node_count(m: usize, n: usize) -> usize {
        2 * upow(m / 2, n as u32)
    }

    /// Number of switches of an m-port n-tree (paper Eq. 2) without building it.
    fn switch_count(m: usize, n: usize) -> usize {
        (2 * n - 1) * upow(m / 2, (n - 1) as u32)
    }

    /// Builds the m-port n-tree with `m`-port switches and `n` levels.
    ///
    /// # Errors
    /// Returns an error if `m` is odd or `< 2`, if `n == 0`, or if the implied node
    /// count exceeds [`MAX_NODES`].
    pub fn new(m: usize, n: usize) -> Result<Self> {
        if m < 2 || !m.is_multiple_of(2) {
            return Err(TopologyError::InvalidPortCount { m });
        }
        if n == 0 {
            return Err(TopologyError::InvalidLevelCount { n });
        }
        let k = m / 2;
        let nodes_u128 = 2u128 * (k as u128).pow(n as u32);
        if nodes_u128 > MAX_NODES {
            return Err(TopologyError::TooLarge { nodes: nodes_u128, limit: MAX_NODES });
        }
        let num_nodes = Self::node_count(m, n);
        let num_switches = Self::switch_count(m, n);
        let num_roots = upow(k, (n - 1) as u32);

        let mut graph = NetworkGraph::new(num_nodes, num_switches, m);
        let mut node_up = vec![ChannelId(0); num_nodes];
        let mut node_down = vec![ChannelId(0); num_nodes];
        let mut leaf_switch = vec![SwitchId(0); num_nodes];
        let mut up_channel = vec![Vec::new(); num_switches];
        let mut down_channel = vec![Vec::new(); num_switches];
        let mut switch_level = vec![0u8; num_switches];

        // Pre-compute switch levels.
        for (sw, level) in switch_level.iter_mut().enumerate() {
            *level = if sw < num_roots {
                (n - 1) as u8
            } else {
                let rel = (sw - num_roots) / num_roots;
                (rel % (n - 1)) as u8
            };
        }

        // Wire processing nodes to their leaf switches.
        for node in 0..num_nodes {
            let addr = Self::decode_node(node, k, n);
            let leaf = Self::leaf_switch_id(&addr, k, n, num_roots);
            let port = if n == 1 {
                // The single root switch hosts all nodes: half 0 on ports 0..k,
                // half 1 on ports k..m.
                PortId::from_index(addr.half as usize * k + addr.digits[0] as usize)
            } else {
                PortId::from_index(addr.digits[0] as usize)
            };
            let (up, down) = graph.connect_node_switch(NodeId::from_index(node), leaf, port);
            node_up[node] = up;
            node_down[node] = down;
            leaf_switch[node] = leaf;
            let dc = &mut down_channel[leaf.index()];
            if dc.len() <= port.index() {
                dc.resize(port.index() + 1, ChannelId(0));
            }
            dc[port.index()] = down;
        }

        // Wire inner switches to their ancestors, level by level.
        // For level l < n-2 the ancestor is an inner switch of the same half; for
        // l == n-2 the ancestor is a (shared) root switch.
        for half in 0..2u8 {
            for level in 0..n.saturating_sub(1) {
                for word_value in 0..num_roots {
                    let child = Self::inner_switch_id(half, level as u8, word_value, n, num_roots);
                    let word = Self::decode_word(word_value, k, n);
                    for u in 0..k {
                        // Parent word: `word` with position `level` replaced by `u`.
                        let mut pword = word.clone();
                        pword[level] = u as u8;
                        let pword_value = Self::encode_word(&pword, k);
                        let (parent, parent_port) = if level + 1 == n - 1 {
                            // Parent is a root switch; its down port identifies the
                            // half and the child's digit at position `level`.
                            let port = half as usize * k + word[level] as usize;
                            (SwitchId::from_index(pword_value), PortId::from_index(port))
                        } else {
                            let parent = Self::inner_switch_id(
                                half,
                                (level + 1) as u8,
                                pword_value,
                                n,
                                num_roots,
                            );
                            (parent, PortId::from_index(word[level] as usize))
                        };
                        let child_port = PortId::from_index(k + u);
                        let (up, down) =
                            graph.connect_switches(child, child_port, parent, parent_port);
                        let uc = &mut up_channel[child.index()];
                        if uc.len() <= u {
                            uc.resize(u + 1, ChannelId(0));
                        }
                        uc[u] = up;
                        let dc = &mut down_channel[parent.index()];
                        if dc.len() <= parent_port.index() {
                            dc.resize(parent_port.index() + 1, ChannelId(0));
                        }
                        dc[parent_port.index()] = down;
                    }
                }
            }
        }

        Ok(MPortNTree {
            m,
            n,
            k,
            num_nodes,
            num_switches,
            graph,
            node_up,
            node_down,
            leaf_switch,
            up_channel,
            down_channel,
            switch_level,
        })
    }

    /// Switch port count `m`.
    #[inline]
    pub fn ports(&self) -> usize {
        self.m
    }

    /// Number of tree levels `n`.
    #[inline]
    pub fn levels(&self) -> usize {
        self.n
    }

    /// Half arity `k = m/2`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Number of processing nodes (paper Eq. 1).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of switches (paper Eq. 2).
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of root switches, `k^(n-1)`.
    #[inline]
    pub fn num_roots(&self) -> usize {
        upow(self.k, (self.n - 1) as u32)
    }

    /// The underlying channel graph.
    #[inline]
    pub fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId::from_index)
    }

    /// Iterator over all switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.num_switches).map(SwitchId::from_index)
    }

    /// Iterator over the root switch ids (they occupy the lowest indices).
    pub fn roots(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.num_roots()).map(SwitchId::from_index)
    }

    /// Tree level of a switch (leaf switches are level 0, roots `n-1`).
    pub fn switch_level(&self, switch: SwitchId) -> Result<Level> {
        self.check_switch(switch)?;
        Ok(Level(self.switch_level[switch.index()]))
    }

    /// `true` if the switch is a root switch.
    pub fn is_root(&self, switch: SwitchId) -> bool {
        switch.index() < self.num_roots()
    }

    /// The leaf switch a node is attached to.
    pub fn leaf_switch_of(&self, node: NodeId) -> Result<SwitchId> {
        self.check_node(node)?;
        Ok(self.leaf_switch[node.index()])
    }

    /// The injection channel (node → leaf switch) of a node.
    pub fn injection_channel(&self, node: NodeId) -> Result<ChannelId> {
        self.check_node(node)?;
        Ok(self.node_up[node.index()])
    }

    /// The ejection channel (leaf switch → node) of a node.
    pub fn ejection_channel(&self, node: NodeId) -> Result<ChannelId> {
        self.check_node(node)?;
        Ok(self.node_down[node.index()])
    }

    /// Channel from `switch` towards its `u`-th ancestor (`u < k`); `None` for roots.
    pub fn up_channel(&self, switch: SwitchId, u: usize) -> Option<ChannelId> {
        self.up_channel.get(switch.index()).and_then(|v| v.get(u)).copied()
    }

    /// Channel from `switch` towards its `d`-th descendant.
    pub fn down_channel(&self, switch: SwitchId, d: usize) -> Option<ChannelId> {
        self.down_channel.get(switch.index()).and_then(|v| v.get(d)).copied()
    }

    /// Decodes a node id into its `(half, digits)` address.
    pub fn node_address(&self, node: NodeId) -> Result<NodeAddress> {
        self.check_node(node)?;
        Ok(Self::decode_node(node.index(), self.k, self.n))
    }

    /// Returns the number of ascending links `j` a message from `src` to `dst` crosses
    /// under nearest-common-ancestor routing (the full path has `2j` links).
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Result<usize> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::SelfRouting { node: src });
        }
        let a = Self::decode_node(src.index(), self.k, self.n);
        let b = Self::decode_node(dst.index(), self.k, self.n);
        Ok(Self::hop_count_addr((a.half, &a.digits), (b.half, &b.digits), self.n))
    }

    /// [`MPortNTree::hop_count`] over two decoded `(half, digits)` addresses.
    pub(crate) fn hop_count_addr(
        (a_half, a): (u8, &[u8]),
        (b_half, b): (u8, &[u8]),
        n: usize,
    ) -> usize {
        if a_half != b_half {
            return n;
        }
        // Same half: the NCA level is the smallest L such that the leaf-switch words
        // agree on all positions >= L; the word of a node consists of digits 1..n.
        let mut nca_level = 0usize;
        for pos in (1..n).rev() {
            if a[pos] != b[pos] {
                nca_level = pos; // positions pos.. differ at `pos` => L = pos
                break;
            }
        }
        nca_level + 1
    }

    pub(crate) fn decode_node(node: usize, k: usize, n: usize) -> NodeAddress {
        let half_size = upow(k, n as u32);
        let half = (node / half_size) as u8;
        let mut rest = node % half_size;
        let mut digits = Vec::with_capacity(n);
        for _ in 0..n {
            digits.push((rest % k) as u8);
            rest /= k;
        }
        NodeAddress { half, digits }
    }

    pub(crate) fn decode_word(value: usize, k: usize, n: usize) -> Vec<u8> {
        let mut word = Vec::with_capacity(n.saturating_sub(1));
        let mut rest = value;
        for _ in 0..n.saturating_sub(1) {
            word.push((rest % k) as u8);
            rest /= k;
        }
        word
    }

    pub(crate) fn encode_word(word: &[u8], k: usize) -> usize {
        word.iter().rev().fold(0, |v, &d| v * k + d as usize)
    }

    /// Leaf switch id of a node address.
    fn leaf_switch_id(addr: &NodeAddress, k: usize, n: usize, num_roots: usize) -> SwitchId {
        if n == 1 {
            return SwitchId(0);
        }
        let word_value = {
            let mut v = 0usize;
            for i in 1..n {
                v += addr.digits[i] as usize * upow(k, (i - 1) as u32);
            }
            v
        };
        Self::inner_switch_id(addr.half, 0, word_value, n, num_roots)
    }

    /// Dense id of an inner switch `(half, level, word_value)`.
    fn inner_switch_id(
        half: u8,
        level: u8,
        word_value: usize,
        n: usize,
        num_roots: usize,
    ) -> SwitchId {
        let group = half as usize * (n - 1) + level as usize;
        SwitchId::from_index(num_roots + group * num_roots + word_value)
    }

    /// Dense id of the inner switch `(half, level, word)` — used by the router.
    pub(crate) fn inner_switch(&self, half: u8, level: u8, word: &[u8]) -> SwitchId {
        Self::inner_switch_id(
            half,
            level,
            Self::encode_word(word, self.k),
            self.n,
            self.num_roots(),
        )
    }

    /// Dense id of the root switch with the given word — used by the router.
    pub(crate) fn root_switch(&self, word: &[u8]) -> SwitchId {
        SwitchId::from_index(Self::encode_word(word, self.k))
    }

    pub(crate) fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.num_nodes {
            Err(TopologyError::NodeOutOfRange { node, num_nodes: self.num_nodes })
        } else {
            Ok(())
        }
    }

    fn check_switch(&self, switch: SwitchId) -> Result<()> {
        if switch.index() >= self.num_switches {
            Err(TopologyError::SwitchOutOfRange { switch, num_switches: self.num_switches })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equation_counts() {
        // Values used by the paper's Table 1 organizations.
        for &(m, n, nodes, switches) in &[
            (8usize, 1usize, 8usize, 1usize),
            (8, 2, 32, 12),
            (8, 3, 128, 80),
            (4, 3, 16, 20),
            (4, 4, 32, 56),
            (4, 5, 64, 144),
        ] {
            assert_eq!(MPortNTree::node_count(m, n), nodes, "N for m={m}, n={n}");
            assert_eq!(MPortNTree::switch_count(m, n), switches, "Nsw for m={m}, n={n}");
            let tree = MPortNTree::new(m, n).unwrap();
            assert_eq!(tree.num_nodes(), nodes);
            assert_eq!(tree.num_switches(), switches);
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(MPortNTree::new(3, 2), Err(TopologyError::InvalidPortCount { .. })));
        assert!(matches!(MPortNTree::new(0, 2), Err(TopologyError::InvalidPortCount { .. })));
        assert!(matches!(MPortNTree::new(4, 0), Err(TopologyError::InvalidLevelCount { .. })));
        assert!(matches!(MPortNTree::new(64, 12), Err(TopologyError::TooLarge { .. })));
    }

    #[test]
    fn node_address_roundtrip() {
        let tree = MPortNTree::new(4, 3).unwrap();
        for node in tree.nodes() {
            let addr = tree.node_address(node).unwrap();
            let value = addr.digits.iter().rev().fold(0, |v, &d| v * tree.arity() + d as usize);
            assert_eq!(addr.half as usize * tree.num_nodes() / 2 + value, node.index());
            assert!(addr.half <= 1);
            assert_eq!(addr.digits.len(), 3);
            assert!(addr.digits.iter().all(|&d| (d as usize) < tree.arity()));
        }
    }

    #[test]
    fn switch_port_budget_is_respected() {
        for &(m, n) in &[(4usize, 2usize), (4, 3), (8, 2), (8, 3), (6, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            for sw in tree.switches() {
                let used = tree.graph().used_ports(sw);
                assert!(used <= m, "switch {sw} of ({m},{n})-tree uses {used} > m ports");
                if tree.is_root(sw) {
                    assert_eq!(used, m, "root switches use all m ports");
                }
            }
        }
    }

    #[test]
    fn channel_count_matches_structure() {
        // Each node contributes 2 node-switch channels; each switch-switch cable
        // contributes 2 channels. There are n-1 inter-switch "level crossings" per
        // half, each with k^n cables... equivalently every non-root switch has k up
        // cables.
        let tree = MPortNTree::new(8, 3).unwrap();
        let (ns, ss) = tree.graph().channel_counts();
        assert_eq!(ns, 2 * tree.num_nodes());
        let non_root_switches = tree.num_switches() - tree.num_roots();
        assert_eq!(ss, 2 * non_root_switches * tree.arity());
    }

    #[test]
    fn leaf_switches_are_level_zero() {
        let tree = MPortNTree::new(4, 3).unwrap();
        for node in tree.nodes() {
            let leaf = tree.leaf_switch_of(node).unwrap();
            assert_eq!(tree.switch_level(leaf).unwrap(), Level(0));
        }
    }

    #[test]
    fn single_level_tree_is_a_star() {
        let tree = MPortNTree::new(8, 1).unwrap();
        assert_eq!(tree.num_nodes(), 8);
        assert_eq!(tree.num_switches(), 1);
        assert!(tree.is_root(SwitchId(0)));
        for node in tree.nodes() {
            assert_eq!(tree.leaf_switch_of(node).unwrap(), SwitchId(0));
        }
        // All pairwise hop counts are 1 (one switch between any pair).
        for a in tree.nodes() {
            for b in tree.nodes() {
                if a != b {
                    assert_eq!(tree.hop_count(a, b).unwrap(), 1);
                }
            }
        }
    }

    #[test]
    fn hop_count_same_leaf_switch() {
        let tree = MPortNTree::new(4, 3).unwrap();
        // Nodes 0 and 1 differ only in digit d0 => same leaf switch => j = 1.
        assert_eq!(tree.hop_count(NodeId(0), NodeId(1)).unwrap(), 1);
        // Different halves always require ascending to a root: j = n.
        let other_half = NodeId::from_index(tree.num_nodes() / 2);
        assert_eq!(tree.hop_count(NodeId(0), other_half).unwrap(), 3);
    }

    #[test]
    fn hop_count_is_symmetric_and_bounded() {
        let tree = MPortNTree::new(4, 4).unwrap();
        for a in tree.nodes().step_by(3) {
            for b in tree.nodes().step_by(5) {
                if a == b {
                    continue;
                }
                let j = tree.hop_count(a, b).unwrap();
                assert_eq!(j, tree.hop_count(b, a).unwrap());
                assert!(j >= 1 && j <= tree.levels());
            }
        }
    }

    #[test]
    fn self_routing_is_an_error() {
        let tree = MPortNTree::new(4, 2).unwrap();
        assert!(matches!(
            tree.hop_count(NodeId(0), NodeId(0)),
            Err(TopologyError::SelfRouting { .. })
        ));
    }

    #[test]
    fn out_of_range_ids_are_errors() {
        let tree = MPortNTree::new(4, 2).unwrap();
        let bad = NodeId::from_index(tree.num_nodes());
        assert!(tree.node_address(bad).is_err());
        assert!(tree.leaf_switch_of(bad).is_err());
        let bad_sw = SwitchId::from_index(tree.num_switches());
        assert!(tree.switch_level(bad_sw).is_err());
    }

    #[test]
    fn every_node_distance_class_has_expected_population() {
        // For the (4,3) tree: from any node, k-1=1 node at j=1, (k-1)k=2 at j=2,
        // and the rest at j=3 (own-half remainder + the whole other half).
        let tree = MPortNTree::new(4, 3).unwrap();
        let k = tree.arity();
        let src = NodeId(0);
        let mut counts = vec![0usize; tree.levels() + 1];
        for dst in tree.nodes() {
            if dst == src {
                continue;
            }
            counts[tree.hop_count(src, dst).unwrap()] += 1;
        }
        assert_eq!(counts[1], k - 1);
        assert_eq!(counts[2], (k - 1) * k);
        assert_eq!(counts[3], tree.num_nodes() - 1 - (k - 1) - (k - 1) * k);
    }

    #[test]
    fn every_level_boundary_has_full_bisection() {
        // Every level boundary (boundary 0 is node↔leaf, boundary l+1 sits
        // above switch level l) carries exactly 2N unidirectional channels —
        // N per direction, which is what full bisection bandwidth requires.
        for &(m, n) in &[(8usize, 1usize), (8, 2), (8, 3), (4, 3), (4, 4), (4, 5)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let mut per_boundary = vec![0usize; n];
            for (_, ch) in tree.graph().channels() {
                let boundary = match (ch.from.switch(), ch.to.switch()) {
                    (Some(a), Some(b)) => {
                        let la = tree.switch_level(a).unwrap().index();
                        let lb = tree.switch_level(b).unwrap().index();
                        la.min(lb) + 1
                    }
                    _ => 0,
                };
                per_boundary[boundary] += 1;
            }
            assert!(per_boundary.iter().all(|&c| c == 2 * tree.num_nodes()), "({m},{n})");
        }
    }
}
