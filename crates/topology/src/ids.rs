//! Strongly-typed identifiers for topology elements.
//!
//! Processing nodes, switches, ports and tree levels are all ultimately small integers,
//! but mixing them up is a classic source of silent bugs in network simulators. The
//! newtypes here are zero-cost (`repr(transparent)`, `u32`-backed) and implement the
//! conversions the rest of the workspace needs.

/// Identifier of a processing node within a single network instance.
///
/// Node ids are dense: a topology with `N` nodes uses ids `0..N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeId(pub u32);

/// Identifier of a network switch within a single network instance.
///
/// Switch ids are dense: a topology with `S` switches uses ids `0..S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct SwitchId(pub u32);

/// A port index on a switch. An `m`-port switch has ports `0..m`.
///
/// Following the paper's convention, ports `0..m/2` face *descendants* (processing
/// nodes or lower-level switches) and ports `m/2..m` face *ancestors* — except for the
/// root switches which use all `m` ports for descendants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct PortId(pub u16);

/// A tree level. Leaf switches are at level 0, root switches at level `n - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Level(pub u8);

macro_rules! impl_id {
    ($ty:ident, $inner:ty) => {
        impl $ty {
            /// Returns the raw index as a `usize` for slice indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a raw `usize` index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in the backing integer type.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(<$inner>::try_from(idx).expect("identifier index out of range"))
            }
        }

        impl From<$inner> for $ty {
            #[inline]
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<$ty> for $inner {
            #[inline]
            fn from(v: $ty) -> Self {
                v.0
            }
        }

        impl From<usize> for $ty {
            #[inline]
            fn from(v: usize) -> Self {
                Self::from_index(v)
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

impl_id!(NodeId, u32);
impl_id!(SwitchId, u32);
impl_id!(PortId, u16);
impl_id!(Level, u8);

/// An endpoint of a link: either a processing node or a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A processing node (nodes have a single network interface per network).
    Node(NodeId),
    /// A specific port of a switch.
    SwitchPort(SwitchId, PortId),
}

impl Endpoint {
    /// Returns the switch id if the endpoint is a switch port.
    #[inline]
    pub fn switch(&self) -> Option<SwitchId> {
        match self {
            Endpoint::SwitchPort(s, _) => Some(*s),
            Endpoint::Node(_) => None,
        }
    }

    /// Returns the node id if the endpoint is a processing node.
    #[inline]
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Endpoint::Node(n) => Some(*n),
            Endpoint::SwitchPort(..) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_conversions() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(NodeId::from(42usize), n);
        assert_eq!(n.to_string(), "42");

        let s = SwitchId::from_index(7);
        assert_eq!(s.index(), 7);
        let p = PortId::from_index(3);
        assert_eq!(p.index(), 3);
        let l = Level::from_index(2);
        assert_eq!(l.index(), 2);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        set.insert(NodeId(1));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn endpoint_accessors() {
        let e = Endpoint::Node(NodeId(3));
        assert_eq!(e.node(), Some(NodeId(3)));
        assert_eq!(e.switch(), None);
        let e = Endpoint::SwitchPort(SwitchId(5), PortId(1));
        assert_eq!(e.switch(), Some(SwitchId(5)));
        assert_eq!(e.node(), None);
    }

    #[test]
    #[should_panic(expected = "identifier index out of range")]
    fn from_index_overflow_panics() {
        let _ = PortId::from_index(usize::MAX);
    }
}
