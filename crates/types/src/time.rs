//! Simulated time: timestamps and durations in whole seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the simulation epoch.
///
/// In the canned experiments the epoch is Ethereum's genesis
/// (2015-07-30 00:00 UTC), so month arithmetic in reports lines up with the
/// paper's x-axes.
///
/// # Examples
///
/// ```
/// use blockpart_types::{Duration, Timestamp};
///
/// let t = Timestamp::from_secs(0) + Duration::days(14);
/// assert_eq!(t.as_secs(), 14 * 86_400);
/// assert!(t > Timestamp::from_secs(0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub const fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_secs(self.0.saturating_sub(earlier.0))
    }

    /// Truncates the timestamp down to a multiple of `window`.
    ///
    /// Used to bucket events into fixed windows (the paper uses 4-hour
    /// measurement windows).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub const fn align_down(self, window: Duration) -> Timestamp {
        assert!(window.as_secs() > 0, "window must be non-zero");
        Timestamp(self.0 - self.0 % window.as_secs())
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    /// Saturates at the epoch.
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time in whole seconds.
///
/// # Examples
///
/// ```
/// use blockpart_types::Duration;
///
/// assert_eq!(Duration::hours(4).as_secs(), 4 * 3600);
/// assert_eq!(Duration::weeks(2), Duration::days(14));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs)
    }

    /// Creates a duration of `n` minutes.
    pub const fn minutes(n: u64) -> Self {
        Duration(n * 60)
    }

    /// Creates a duration of `n` hours.
    pub const fn hours(n: u64) -> Self {
        Duration(n * 3_600)
    }

    /// Creates a duration of `n` days.
    pub const fn days(n: u64) -> Self {
        Duration(n * 86_400)
    }

    /// Creates a duration of `n` weeks.
    pub const fn weeks(n: u64) -> Self {
        Duration(n * 7 * 86_400)
    }

    /// The duration in seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration in fractional days (for reporting).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_down_buckets() {
        let w = Duration::hours(4);
        let t = Timestamp::from_secs(4 * 3600 + 17);
        assert_eq!(t.align_down(w), Timestamp::from_secs(4 * 3600));
        assert_eq!(Timestamp::EPOCH.align_down(w), Timestamp::EPOCH);
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn align_down_zero_window_panics() {
        let _ = Timestamp::from_secs(1).align_down(Duration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(20);
        assert_eq!(b.since(a), Duration::from_secs(10));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let mut t = Timestamp::EPOCH;
        t += Duration::days(1);
        assert_eq!(t - Timestamp::EPOCH, Duration::days(1));
        assert_eq!(Duration::days(1) + Duration::hours(24), Duration::days(2));
        assert_eq!(Duration::days(2) - Duration::days(3), Duration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Timestamp::from_secs(5).to_string(), "t+5s");
        assert_eq!(Duration::from_secs(5).to_string(), "5s");
    }

    #[test]
    fn day_fraction() {
        assert!((Duration::hours(12).as_days_f64() - 0.5).abs() < 1e-12);
    }
}
