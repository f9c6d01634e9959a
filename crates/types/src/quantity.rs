//! Chain quantities: block numbers, currency and gas.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0);

            /// Creates the quantity from a raw `u64`.
            pub const fn new(value: u64) -> Self {
                $name(value)
            }

            /// The raw value.
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Saturating subtraction.
            pub const fn saturating_sub(self, rhs: $name) -> $name {
                $name(self.0.saturating_sub(rhs.0))
            }

            /// Checked subtraction; `None` on underflow.
            pub const fn checked_sub(self, rhs: $name) -> Option<$name> {
                match self.0.checked_sub(rhs.0) {
                    Some(v) => Some($name(v)),
                    None => None,
                }
            }
        }

        impl Add for $name {
            type Output = $name;

            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;

            fn sub(self, rhs: $name) -> $name {
                $name(self.0.saturating_sub(rhs.0))
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl From<u64> for $name {
            fn from(value: u64) -> Self {
                $name(value)
            }
        }
    };
}

quantity! {
    /// A block height in the chain.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_types::BlockNumber;
    ///
    /// let b = BlockNumber::new(10).next();
    /// assert_eq!(b.get(), 11);
    /// ```
    BlockNumber
}

quantity! {
    /// An amount of ether, in wei.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_types::Wei;
    ///
    /// let total: Wei = [Wei::new(1), Wei::new(2)].into_iter().sum();
    /// assert_eq!(total, Wei::new(3));
    /// assert_eq!(Wei::new(1).checked_sub(Wei::new(2)), None);
    /// ```
    Wei
}

quantity! {
    /// An amount of execution gas.
    ///
    /// Gas consumed by a vertex's transactions is the paper's notion of
    /// vertex "activity" and feeds the *dynamic* metrics.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_types::Gas;
    ///
    /// let g = Gas::new(21_000) + Gas::new(500);
    /// assert_eq!(g.get(), 21_500);
    /// ```
    Gas
}

impl BlockNumber {
    /// The genesis block.
    pub const GENESIS: BlockNumber = BlockNumber(0);

    /// The next block height.
    pub const fn next(self) -> BlockNumber {
        BlockNumber(self.0 + 1)
    }
}

impl fmt::Display for BlockNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for Wei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} wei", self.0)
    }
}

impl fmt::Display for Gas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} gas", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_number_next() {
        assert_eq!(BlockNumber::GENESIS.next(), BlockNumber::new(1));
    }

    #[test]
    fn sub_saturates() {
        assert_eq!(Wei::new(1) - Wei::new(5), Wei::ZERO);
        assert_eq!(Gas::new(5) - Gas::new(1), Gas::new(4));
    }

    #[test]
    fn checked_sub() {
        assert_eq!(Wei::new(5).checked_sub(Wei::new(2)), Some(Wei::new(3)));
        assert_eq!(Wei::new(1).checked_sub(Wei::new(2)), None);
    }

    #[test]
    fn sum_and_add_assign() {
        let mut g = Gas::ZERO;
        g += Gas::new(10);
        let s: Gas = (0..5).map(Gas::new).sum();
        assert_eq!(g, Gas::new(10));
        assert_eq!(s, Gas::new(10));
    }

    #[test]
    fn displays() {
        assert_eq!(BlockNumber::new(3).to_string(), "#3");
        assert_eq!(Wei::new(3).to_string(), "3 wei");
        assert_eq!(Gas::new(3).to_string(), "3 gas");
    }
}
