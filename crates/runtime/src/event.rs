//! Events of the discrete-event sharded execution engine.

use crate::net::Message;

/// Index of a transaction in the engine's replay table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u32);

impl TxId {
    /// The index as `usize`, for table lookups.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx-{}", self.0)
    }
}

/// Something that happens on one shard at one instant of virtual time.
#[derive(Clone, Debug)]
pub enum Event {
    /// A transaction arrives in its home shard's mempool.
    Arrival(TxId),
    /// A network message is delivered to this shard.
    Net(Message),
    /// The shard's execution unit finishes its current work item.
    ExecDone(TxId),
    /// A cross-shard transaction restarts its prepare round after an
    /// abort backoff.
    Retry(TxId),
}
