//! Shard identifiers and shard-count configuration.

use std::fmt;

/// Identifies one shard (partition) of the system.
///
/// # Examples
///
/// ```
/// use blockpart_types::ShardId;
///
/// let s = ShardId::new(3);
/// assert_eq!(s.as_u16(), 3);
/// assert_eq!(s.as_usize(), 3);
/// assert_eq!(s.to_string(), "shard-3");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(u16);

impl ShardId {
    /// Creates a shard id from its index.
    pub const fn new(index: u16) -> Self {
        ShardId(index)
    }

    /// The shard index as `u16`.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// The shard index as `usize`, convenient for indexing vectors.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

impl From<u16> for ShardId {
    fn from(index: u16) -> Self {
        ShardId(index)
    }
}

/// The number of shards in a configuration (the paper's `k`).
///
/// Guaranteed non-zero by construction, which lets downstream code divide
/// by `k` without checking.
///
/// # Examples
///
/// ```
/// use blockpart_types::{ShardCount, ShardId};
///
/// let k = ShardCount::new(4).unwrap();
/// assert_eq!(k.get(), 4);
/// let shards: Vec<ShardId> = k.iter().collect();
/// assert_eq!(shards.len(), 4);
/// assert!(ShardCount::new(0).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardCount(u16);

impl ShardCount {
    /// Two shards, the smallest sharded configuration.
    pub const TWO: ShardCount = ShardCount(2);

    /// Creates a shard count; returns `None` for zero.
    pub const fn new(k: u16) -> Option<Self> {
        if k == 0 {
            None
        } else {
            Some(ShardCount(k))
        }
    }

    /// The raw count.
    pub const fn get(self) -> u16 {
        self.0
    }

    /// The count as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all shard ids `0..k`.
    pub fn iter(self) -> impl Iterator<Item = ShardId> + Clone {
        (0..self.0).map(ShardId::new)
    }

    /// Returns `true` if `shard` is a valid id under this count.
    pub const fn contains(self, shard: ShardId) -> bool {
        shard.as_u16() < self.0
    }
}

impl fmt::Display for ShardCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} shards", self.0)
    }
}

impl Default for ShardCount {
    fn default() -> Self {
        ShardCount::TWO
    }
}

impl TryFrom<u16> for ShardCount {
    type Error = ZeroShardCountError;

    fn try_from(k: u16) -> Result<Self, Self::Error> {
        ShardCount::new(k).ok_or(ZeroShardCountError)
    }
}

/// Error returned when constructing a [`ShardCount`] from zero.
///
/// # Examples
///
/// ```
/// use blockpart_types::ShardCount;
///
/// let err = ShardCount::try_from(0u16).unwrap_err();
/// assert_eq!(err.to_string(), "shard count must be non-zero");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroShardCountError;

impl fmt::Display for ZeroShardCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("shard count must be non-zero")
    }
}

impl std::error::Error for ZeroShardCountError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rejects_zero() {
        assert!(ShardCount::new(0).is_none());
        assert_eq!(ShardCount::try_from(0).unwrap_err(), ZeroShardCountError);
    }

    #[test]
    fn shard_count_iter() {
        let k = ShardCount::new(3).unwrap();
        let ids: Vec<u16> = k.iter().map(ShardId::as_u16).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn contains_checks_bound() {
        let k = ShardCount::new(2).unwrap();
        assert!(k.contains(ShardId::new(1)));
        assert!(!k.contains(ShardId::new(2)));
    }

    #[test]
    fn display() {
        assert_eq!(ShardId::new(7).to_string(), "shard-7");
        assert_eq!(ShardCount::new(8).unwrap().to_string(), "8 shards");
    }

    #[test]
    fn default_is_two() {
        assert_eq!(ShardCount::default(), ShardCount::TWO);
    }
}
