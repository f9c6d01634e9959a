//! The partition assignment type.

use std::fmt;

use blockpart_types::{ShardCount, ShardId};

/// An assignment of every vertex of a graph to one of `k` shards.
///
/// Vertices are identified by their dense index in the graph that was
/// partitioned. The partition is total: every vertex has exactly one shard
/// (the paper's `⋃ pᵢ = V`, `⋂ pᵢ = ∅`).
///
/// # Examples
///
/// ```
/// use blockpart_partition::Partition;
/// use blockpart_types::{ShardCount, ShardId};
///
/// let k = ShardCount::new(2).unwrap();
/// let p = Partition::from_assignment(vec![0, 1, 0, 1], k).unwrap();
/// assert_eq!(p.shard_of(2), ShardId::new(0));
/// assert_eq!(p.shard_sizes(), vec![2, 2]);
/// assert_eq!(p.moves_from(&p), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u16>,
    k: ShardCount,
}

impl Partition {
    /// Creates a partition placing all `n` vertices on shard 0.
    pub fn all_on_first(n: usize, k: ShardCount) -> Self {
        Partition {
            assignment: vec![0; n],
            k,
        }
    }

    /// Creates a partition from a raw assignment vector.
    ///
    /// Returns `None` if any entry is `>= k`.
    pub fn from_assignment(assignment: Vec<u16>, k: ShardCount) -> Option<Self> {
        if assignment.iter().any(|&s| s >= k.get()) {
            return None;
        }
        Some(Partition { assignment, k })
    }

    /// The number of shards this partition targets.
    pub fn shard_count(&self) -> ShardCount {
        self.k
    }

    /// The number of vertices assigned.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if no vertices are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The shard of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn shard_of(&self, v: usize) -> ShardId {
        ShardId::new(self.assignment[v])
    }

    /// Reassigns vertex `v` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds or `shard` is not valid for this
    /// partition's shard count.
    pub fn assign(&mut self, v: usize, shard: ShardId) {
        assert!(self.k.contains(shard), "shard {shard} out of range");
        self.assignment[v] = shard.as_u16();
    }

    /// The raw assignment slice (`assignment[v]` is the shard of `v`).
    pub fn as_slice(&self) -> &[u16] {
        &self.assignment
    }

    /// Number of vertices in each shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k.as_usize()];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Sum of `weights[v]` per shard.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn shard_weights(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.assignment.len(), "weight slice length");
        let mut out = vec![0u64; self.k.as_usize()];
        for (&s, &w) in self.assignment.iter().zip(weights) {
            out[s as usize] += w;
        }
        out
    }

    /// Number of vertices whose shard differs from `previous`.
    ///
    /// This is the paper's **moves** metric: each such vertex would have its
    /// entire state relocated when the new partition is installed. Vertices
    /// present only in `self` (newly created since `previous`) do not count
    /// as moves.
    pub fn moves_from(&self, previous: &Partition) -> usize {
        self.assignment
            .iter()
            .zip(previous.assignment.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Extends the partition to cover `n` vertices, assigning new vertices
    /// via `place` (called with the new vertex index).
    pub fn grow_to(&mut self, n: usize, mut place: impl FnMut(usize) -> ShardId) {
        while self.assignment.len() < n {
            let v = self.assignment.len();
            let s = place(v);
            assert!(self.k.contains(s), "placement returned invalid shard");
            self.assignment.push(s.as_u16());
        }
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition({} vertices over {}, sizes {:?})",
            self.len(),
            self.k,
            self.shard_sizes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u16) -> ShardCount {
        ShardCount::new(n).unwrap()
    }

    #[test]
    fn from_assignment_validates() {
        assert!(Partition::from_assignment(vec![0, 1], k(2)).is_some());
        assert!(Partition::from_assignment(vec![0, 2], k(2)).is_none());
    }

    #[test]
    fn sizes_and_weights() {
        let p = Partition::from_assignment(vec![0, 1, 1, 0, 1], k(2)).unwrap();
        assert_eq!(p.shard_sizes(), vec![2, 3]);
        assert_eq!(p.shard_weights(&[10, 1, 1, 10, 1]), vec![20, 3]);
    }

    #[test]
    #[should_panic(expected = "weight slice length")]
    fn shard_weights_length_mismatch_panics() {
        let p = Partition::all_on_first(3, k(2));
        let _ = p.shard_weights(&[1, 2]);
    }

    #[test]
    fn moves_counts_differences() {
        let a = Partition::from_assignment(vec![0, 0, 1, 1], k(2)).unwrap();
        let b = Partition::from_assignment(vec![0, 1, 1, 0], k(2)).unwrap();
        assert_eq!(b.moves_from(&a), 2);
    }

    #[test]
    fn moves_ignores_new_vertices() {
        let old = Partition::from_assignment(vec![0, 1], k(2)).unwrap();
        let new = Partition::from_assignment(vec![0, 1, 1, 1], k(2)).unwrap();
        assert_eq!(new.moves_from(&old), 0);
    }

    #[test]
    fn grow_to_places_new_vertices() {
        let mut p = Partition::all_on_first(2, k(2));
        p.grow_to(5, |v| ShardId::new((v % 2) as u16));
        assert_eq!(p.len(), 5);
        assert_eq!(p.shard_of(4), ShardId::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assign_invalid_shard_panics() {
        let mut p = Partition::all_on_first(1, k(2));
        p.assign(0, ShardId::new(5));
    }

    #[test]
    fn display_nonempty() {
        assert!(!Partition::all_on_first(1, k(2)).to_string().is_empty());
    }
}
