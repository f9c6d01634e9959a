//! Blocks: batches of transactions sharing a timestamp.

use blockpart_types::{BlockNumber, Gas, Timestamp};

use crate::transaction::Transaction;

/// A block under construction: an ordered batch of transactions executed
/// at the same timestamp.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::Block;
/// use blockpart_types::{BlockNumber, Timestamp};
///
/// let b = Block::new(BlockNumber::new(7), Timestamp::from_secs(100), Vec::new());
/// assert_eq!(b.number, BlockNumber::new(7));
/// assert!(b.transactions.is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Height in the chain.
    pub number: BlockNumber,
    /// Timestamp all contained transactions execute at.
    pub time: Timestamp,
    /// The transactions, in execution order.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Creates a block.
    pub fn new(number: BlockNumber, time: Timestamp, transactions: Vec<Transaction>) -> Self {
        Block {
            number,
            time,
            transactions,
        }
    }
}

/// What remains of a block after execution: the header-level summary kept
/// by the [`Chain`](crate::Chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Height in the chain.
    pub number: BlockNumber,
    /// Block timestamp.
    pub time: Timestamp,
    /// Number of transactions executed.
    pub tx_count: usize,
    /// Number of transactions that failed.
    pub failed: usize,
    /// Total gas consumed.
    pub gas_used: Gas,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_holds_transactions() {
        let b = Block::new(BlockNumber::GENESIS, Timestamp::EPOCH, Vec::new());
        assert_eq!(b.transactions.len(), 0);
        assert_eq!(b.time, Timestamp::EPOCH);
    }
}
