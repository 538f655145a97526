//! A small adjacency-list representation of a network graph.
//!
//! The graph distinguishes between *node↔switch* links (the injection/ejection links of
//! processing nodes) and *switch↔switch* links, because the paper assigns them different
//! service times (`t_cn` vs `t_cs`, Eqs. 14–15). Every physical cable is represented as
//! **two unidirectional channels**, matching the channel-rate accounting of the
//! analytical model and the channel-occupancy tracking of the simulator.

use crate::ids::{Endpoint, NodeId, PortId, SwitchId};
use serde::{Deserialize, Serialize};

/// The class of a unidirectional channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Node → switch (injection) or switch → node (ejection) channel.
    NodeSwitch,
    /// Switch → switch channel.
    SwitchSwitch,
}

/// A unidirectional channel between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    /// Source endpoint of the channel.
    pub from: Endpoint,
    /// Destination endpoint of the channel.
    pub to: Endpoint,
    /// Channel class (controls the per-hop service time).
    pub kind: ChannelKind,
}

/// Dense identifier of a unidirectional channel inside a [`NetworkGraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[repr(transparent)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// Raw index for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Adjacency-list network graph with dense channel identifiers.
///
/// The graph is append-only: topology constructors add channels during construction and
/// the structure is immutable afterwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkGraph {
    channels: Vec<Channel>,
    num_nodes: usize,
    /// For each switch, outgoing channels indexed by port.
    switch_out: Vec<Vec<Option<ChannelId>>>,
    /// For each switch, incoming channels indexed by port.
    switch_in: Vec<Vec<Option<ChannelId>>>,
    ports_per_switch: usize,
}

impl NetworkGraph {
    /// Creates an empty graph for `num_nodes` processing nodes and `num_switches`
    /// switches with `ports_per_switch` ports each.
    pub fn new(num_nodes: usize, num_switches: usize, ports_per_switch: usize) -> Self {
        NetworkGraph {
            channels: Vec::new(),
            num_nodes,
            switch_out: vec![vec![None; ports_per_switch]; num_switches],
            switch_in: vec![vec![None; ports_per_switch]; num_switches],
            ports_per_switch,
        }
    }

    /// Number of processing nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switch_out.len()
    }

    /// Number of unidirectional channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Returns the channel record for `id`.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over all channels with their identifiers.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels.iter().enumerate().map(|(i, c)| (ChannelId(i as u32), c))
    }

    fn push_channel(&mut self, ch: Channel) -> ChannelId {
        let id = ChannelId(u32::try_from(self.channels.len()).expect("too many channels"));
        if let Endpoint::SwitchPort(s, p) = ch.from {
            debug_assert!(
                self.switch_out[s.index()][p.index()].is_none(),
                "output port {p:?} of switch {s:?} wired twice"
            );
            self.switch_out[s.index()][p.index()] = Some(id);
        }
        if let Endpoint::SwitchPort(s, p) = ch.to {
            debug_assert!(
                self.switch_in[s.index()][p.index()].is_none(),
                "input port {p:?} of switch {s:?} wired twice"
            );
            self.switch_in[s.index()][p.index()] = Some(id);
        }
        self.channels.push(ch);
        id
    }

    /// Adds the pair of unidirectional channels realising a node↔switch cable.
    ///
    /// Returns `(node→switch, switch→node)` channel ids.
    pub fn connect_node_switch(
        &mut self,
        node: NodeId,
        switch: SwitchId,
        port: PortId,
    ) -> (ChannelId, ChannelId) {
        let up = self.push_channel(Channel {
            from: Endpoint::Node(node),
            to: Endpoint::SwitchPort(switch, port),
            kind: ChannelKind::NodeSwitch,
        });
        let down = self.push_channel(Channel {
            from: Endpoint::SwitchPort(switch, port),
            to: Endpoint::Node(node),
            kind: ChannelKind::NodeSwitch,
        });
        (up, down)
    }

    /// Adds the pair of unidirectional channels realising a switch↔switch cable.
    ///
    /// `(a, pa)` is conventionally the lower-level switch and `(b, pb)` its ancestor.
    /// Returns `(a→b, b→a)` channel ids.
    pub fn connect_switches(
        &mut self,
        a: SwitchId,
        pa: PortId,
        b: SwitchId,
        pb: PortId,
    ) -> (ChannelId, ChannelId) {
        let up = self.push_channel(Channel {
            from: Endpoint::SwitchPort(a, pa),
            to: Endpoint::SwitchPort(b, pb),
            kind: ChannelKind::SwitchSwitch,
        });
        let down = self.push_channel(Channel {
            from: Endpoint::SwitchPort(b, pb),
            to: Endpoint::SwitchPort(a, pa),
            kind: ChannelKind::SwitchSwitch,
        });
        (up, down)
    }

    /// Number of wired (used) ports of a switch, counting a port as used if either its
    /// input or output direction is wired.
    pub fn used_ports(&self, switch: SwitchId) -> usize {
        (0..self.ports_per_switch)
            .filter(|&p| {
                self.switch_out[switch.index()][p].is_some()
                    || self.switch_in[switch.index()][p].is_some()
            })
            .count()
    }

    /// Counts channels of each kind, returned as `(node_switch, switch_switch)`.
    pub fn channel_counts(&self) -> (usize, usize) {
        let ns = self.channels.iter().filter(|c| c.kind == ChannelKind::NodeSwitch).count();
        (ns, self.channels.len() - ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> NetworkGraph {
        // Two nodes on one switch, plus a second switch above it.
        let mut g = NetworkGraph::new(2, 2, 4);
        g.connect_node_switch(NodeId(0), SwitchId(0), PortId(0));
        g.connect_node_switch(NodeId(1), SwitchId(0), PortId(1));
        g.connect_switches(SwitchId(0), PortId(2), SwitchId(1), PortId(0));
        g
    }

    #[test]
    fn channel_bookkeeping() {
        let g = tiny_graph();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_switches(), 2);
        assert_eq!(g.num_channels(), 6);
        assert_eq!(g.channel_counts(), (4, 2));
        assert_eq!(g.used_ports(SwitchId(0)), 3);
        assert_eq!(g.used_ports(SwitchId(1)), 1);
    }

    #[test]
    fn channel_endpoints_are_consistent() {
        let g = tiny_graph();
        for (_, ch) in g.channels() {
            match (ch.from, ch.to) {
                (Endpoint::Node(_), Endpoint::SwitchPort(..))
                | (Endpoint::SwitchPort(..), Endpoint::Node(_)) => {
                    assert_eq!(ch.kind, ChannelKind::NodeSwitch)
                }
                (Endpoint::SwitchPort(..), Endpoint::SwitchPort(..)) => {
                    assert_eq!(ch.kind, ChannelKind::SwitchSwitch)
                }
                _ => panic!("node-to-node channels must not exist"),
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wired twice")]
    fn double_wiring_is_detected() {
        let mut g = NetworkGraph::new(2, 1, 4);
        g.connect_node_switch(NodeId(0), SwitchId(0), PortId(0));
        g.connect_node_switch(NodeId(1), SwitchId(0), PortId(0));
    }
}
