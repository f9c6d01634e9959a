//! Placement rules for vertices appearing between repartitions.

use blockpart_partition::HashPartitioner;
use blockpart_types::{Address, ShardCount, ShardId};

use crate::state::ShardedState;

/// How a brand-new vertex is assigned to a shard when it first appears in
/// the transaction stream.
///
/// # Examples
///
/// ```
/// use blockpart_shard::{PlacementRule, ShardedState};
/// use blockpart_types::{Address, ShardCount};
///
/// let st = ShardedState::new(ShardCount::TWO);
/// let s = PlacementRule::Hash.place(&st, Address::from_index(1), None);
/// assert!(ShardCount::TWO.contains(s));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementRule {
    /// `hash(address) mod k` — placement never depends on the graph, so a
    /// vertex's shard is stable forever (the HASH and KL methods).
    #[default]
    Hash,
    /// The paper's METIS-family rule: inspect the counterparty of the
    /// transaction that introduces the vertex and join its shard (that
    /// choice cuts none of the new edges); when there is no assigned
    /// counterparty, fall back to the lightest shard (maximize balance).
    MinCut,
}

impl PlacementRule {
    /// Chooses the shard for new vertex `address`, given the transaction
    /// counterparty (if any).
    pub fn place(
        self,
        state: &ShardedState,
        address: Address,
        counterparty: Option<Address>,
    ) -> ShardId {
        match self {
            PlacementRule::Hash => {
                HashPartitioner::shard_for_id(address.stable_hash(), state.shard_count())
            }
            PlacementRule::MinCut => {
                if let Some(s) = counterparty.and_then(|c| state.shard_of(c)) {
                    return s;
                }
                lightest_shard(state.shard_counts(), state.shard_count())
            }
        }
    }
}

fn lightest_shard(counts: &[usize], k: ShardCount) -> ShardId {
    let (idx, _) = counts
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("k >= 1");
    debug_assert!(idx < k.as_usize());
    ShardId::new(idx as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::AccountKind;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn hash_is_stable_and_state_independent() {
        let st0 = ShardedState::new(ShardCount::TWO);
        let mut st1 = ShardedState::new(ShardCount::TWO);
        st1.insert_vertex(addr(9), AccountKind::ExternallyOwned, ShardId::new(1));
        let a = addr(42);
        assert_eq!(
            PlacementRule::Hash.place(&st0, a, None),
            PlacementRule::Hash.place(&st1, a, Some(addr(9)))
        );
    }

    #[test]
    fn min_cut_joins_counterparty() {
        let mut st = ShardedState::new(ShardCount::TWO);
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(1));
        let s = PlacementRule::MinCut.place(&st, addr(2), Some(addr(1)));
        assert_eq!(s, ShardId::new(1));
    }

    #[test]
    fn min_cut_falls_back_to_lightest() {
        let mut st = ShardedState::new(ShardCount::TWO);
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::ExternallyOwned, ShardId::new(0));
        // no counterparty: go to the emptier shard 1
        let s = PlacementRule::MinCut.place(&st, addr(3), None);
        assert_eq!(s, ShardId::new(1));
        // unknown counterparty: same fallback
        let s = PlacementRule::MinCut.place(&st, addr(4), Some(addr(99)));
        assert_eq!(s, ShardId::new(1));
    }

    #[test]
    fn hash_spreads_over_shards() {
        let k = ShardCount::new(8).unwrap();
        let st = ShardedState::new(k);
        let mut counts = vec![0usize; 8];
        for i in 0..8_000 {
            let s = PlacementRule::Hash.place(&st, addr(i), None);
            counts[s.as_usize()] += 1;
        }
        assert!(
            counts.iter().all(|&c| (800..1200).contains(&c)),
            "{counts:?}"
        );
    }
}
