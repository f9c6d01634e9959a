//! Dense node indices.

use std::fmt;

/// A dense index identifying a vertex inside one [`Graph`](crate::Graph).
///
/// Node ids are assigned by the [`GraphBuilder`](crate::GraphBuilder) in
/// first-appearance order and are only meaningful relative to the graph that
/// produced them; use [`Graph::address`](crate::Graph::address) to map back
/// to the stable [`Address`](blockpart_types::Address).
///
/// # Examples
///
/// ```
/// use blockpart_graph::NodeId;
///
/// let n = NodeId::new(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(n.to_string(), "n5");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index as `usize`, for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        assert_eq!(NodeId::new(3).index(), 3);
        assert_eq!(NodeId::from(4u32).as_u32(), 4);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
