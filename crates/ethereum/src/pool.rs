//! A transaction pool (mempool) with gas-price priority ordering.
//!
//! Miners include transactions by expected fee per gas (§II-A of the
//! paper: "Miners include transactions in a block based on their estimates
//! of the transaction cost and the amount the user is willing to pay").
//! The pool models that selection: submissions carry a gas price, and
//! blocks are drafted highest-price-first under a block gas limit.

use std::collections::BinaryHeap;

use blockpart_types::{Gas, Wei};

use crate::transaction::Transaction;

/// A pending transaction with its bid.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pending {
    /// Fee per gas unit offered.
    gas_price: Wei,
    /// Submission sequence number — ties break FIFO so ordering is total
    /// and deterministic.
    seq: u64,
    tx: Transaction,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // max-heap on price, then *earlier* submission first
        self.gas_price
            .cmp(&other.gas_price)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A gas-price-ordered mempool.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::{Transaction, TxPayload, TxPool};
/// use blockpart_types::{Address, Gas, Wei};
///
/// let tx = |price: u64| {
///     (Transaction {
///         from: Address::from_index(1),
///         to: Address::from_index(2),
///         value: Wei::new(1),
///         gas_limit: Gas::new(21_000),
///         payload: TxPayload::Transfer,
///     }, Wei::new(price))
/// };
/// let mut pool = TxPool::new();
/// for (t, p) in [tx(5), tx(50), tx(20)] {
///     pool.submit(t, p);
/// }
/// let block = pool.draft_block(Gas::new(42_000)); // room for two
/// assert_eq!(block.len(), 2); // the 50 and the 20
/// assert_eq!(pool.len(), 1);  // the 5 stays pending
/// ```
#[derive(Clone, Debug, Default)]
pub struct TxPool {
    heap: BinaryHeap<Pending>,
    next_seq: u64,
}

impl TxPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TxPool::default()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Submits a transaction with a fee bid.
    pub fn submit(&mut self, tx: Transaction, gas_price: Wei) {
        self.heap.push(Pending {
            gas_price,
            seq: self.next_seq,
            tx,
        });
        self.next_seq += 1;
    }

    /// The highest bid currently pending, if any.
    pub fn best_price(&self) -> Option<Wei> {
        self.heap.peek().map(|p| p.gas_price)
    }

    /// Drafts a block: pops transactions highest-price-first while their
    /// `gas_limit`s fit under `block_gas_limit` (the greedy knapsack
    /// miners actually run). Transactions that do not fit stay pending.
    pub fn draft_block(&mut self, block_gas_limit: Gas) -> Vec<Transaction> {
        let mut block = Vec::new();
        let mut used = Gas::ZERO;
        let mut skipped: Vec<Pending> = Vec::new();
        while let Some(p) = self.heap.pop() {
            if used + p.tx.gas_limit <= block_gas_limit {
                used += p.tx.gas_limit;
                block.push(p.tx);
            } else {
                skipped.push(p);
                // keep scanning: a cheaper-but-smaller tx may still fit
                if skipped.len() > 64 {
                    break;
                }
            }
        }
        for p in skipped {
            self.heap.push(p);
        }
        block
    }

    /// Discards every pending transaction whose bid is below
    /// `floor` (fee-market spam eviction). Returns how many were dropped.
    pub fn evict_below(&mut self, floor: Wei) -> usize {
        let before = self.heap.len();
        let kept: Vec<Pending> = self.heap.drain().filter(|p| p.gas_price >= floor).collect();
        self.heap = kept.into();
        before - self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxPayload;
    use blockpart_types::Address;

    fn tx(gas: u64) -> Transaction {
        Transaction {
            from: Address::from_index(1),
            to: Address::from_index(2),
            value: Wei::new(1),
            gas_limit: Gas::new(gas),
            payload: TxPayload::Transfer,
        }
    }

    #[test]
    fn orders_by_price_then_fifo() {
        let mut pool = TxPool::new();
        pool.submit(tx(21_000), Wei::new(10)); // seq 0
        pool.submit(tx(21_000), Wei::new(30));
        pool.submit(tx(21_000), Wei::new(10)); // seq 2, same price as seq 0
        let block = pool.draft_block(Gas::new(63_000));
        assert_eq!(block.len(), 3);
        // verify drain order via repeated single-slot drafts
        let mut pool = TxPool::new();
        pool.submit(tx(21_000), Wei::new(10));
        pool.submit(tx(21_000), Wei::new(30));
        assert_eq!(pool.best_price(), Some(Wei::new(30)));
        let first = pool.draft_block(Gas::new(21_000));
        assert_eq!(first.len(), 1);
        assert_eq!(pool.best_price(), Some(Wei::new(10)));
    }

    #[test]
    fn smaller_tx_fills_leftover_gas() {
        let mut pool = TxPool::new();
        pool.submit(tx(100_000), Wei::new(100)); // best bid, too big
        pool.submit(tx(21_000), Wei::new(1)); // cheap but fits
        let block = pool.draft_block(Gas::new(50_000));
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].gas_limit, Gas::new(21_000));
        assert_eq!(pool.len(), 1); // the big one stays
    }

    #[test]
    fn eviction_drops_cheap_bids() {
        let mut pool = TxPool::new();
        for price in [1u64, 5, 10, 50] {
            pool.submit(tx(21_000), Wei::new(price));
        }
        let dropped = pool.evict_below(Wei::new(10));
        assert_eq!(dropped, 2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.best_price(), Some(Wei::new(50)));
    }

    #[test]
    fn empty_pool_behaviour() {
        let mut pool = TxPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.best_price(), None);
        assert!(pool.draft_block(Gas::new(1_000_000)).is_empty());
        assert_eq!(pool.evict_below(Wei::new(1)), 0);
    }

    #[test]
    fn draft_is_deterministic() {
        let build = || {
            let mut pool = TxPool::new();
            for (i, price) in [3u64, 9, 9, 1, 7].iter().enumerate() {
                pool.submit(tx(21_000 + i as u64), Wei::new(*price));
            }
            pool.draft_block(Gas::new(80_000))
        };
        assert_eq!(build(), build());
    }
}
