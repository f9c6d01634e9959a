//! Repartitioning policies and scopes.

use blockpart_types::{Duration, Timestamp};

/// When the simulator re-runs the partitioner.
///
/// # Examples
///
/// ```
/// use blockpart_shard::RepartitionPolicy;
/// use blockpart_types::{Duration, Timestamp};
///
/// let p = RepartitionPolicy::Periodic {
///     interval: Duration::weeks(2),
/// };
/// // due two weeks after the last repartition
/// assert!(p.due(
///     Timestamp::from_secs(Duration::weeks(2).as_secs()),
///     Timestamp::EPOCH,
///     0.9,
///     1.9,
/// ));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepartitionPolicy {
    /// Never repartition (the HASH method).
    Never,
    /// Repartition every `interval` of simulated time (the paper's
    /// two-week cadence for KL, METIS and R-METIS).
    Periodic {
        /// Time between repartitions.
        interval: Duration,
    },
    /// The TR-METIS trigger: repartition when the *measured window*
    /// dynamic edge-cut or dynamic balance crosses its threshold, but not
    /// more often than `min_interval`.
    Threshold {
        /// Fire when window dynamic edge-cut exceeds this.
        edge_cut: f64,
        /// Fire when window dynamic balance exceeds this.
        balance: f64,
        /// Refractory period between repartitions.
        min_interval: Duration,
    },
}

impl RepartitionPolicy {
    /// Decides whether a repartition is due at a window boundary.
    ///
    /// `now` is the boundary time, `last` the previous repartition time,
    /// and `window_cut`/`window_balance` the dynamic metrics of the window
    /// that just closed.
    pub fn due(
        &self,
        now: Timestamp,
        last: Timestamp,
        window_cut: f64,
        window_balance: f64,
    ) -> bool {
        match *self {
            RepartitionPolicy::Never => false,
            RepartitionPolicy::Periodic { interval } => now.since(last) >= interval,
            RepartitionPolicy::Threshold {
                edge_cut,
                balance,
                min_interval,
            } => {
                now.since(last) >= min_interval
                    && (window_cut > edge_cut || window_balance > balance)
            }
        }
    }
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        RepartitionPolicy::Periodic {
            interval: Duration::weeks(2),
        }
    }
}

/// Which graph the partitioner sees at a repartition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepartitionScope {
    /// The whole cumulative graph (the METIS and KL methods).
    #[default]
    Full,
    /// Only the interactions of the trailing window — the paper's
    /// *reduced graph* (R-METIS, TR-METIS). Vertices outside the window
    /// keep their current shard.
    Window,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(days: u64) -> Timestamp {
        Timestamp::from_secs(days * 86_400)
    }

    #[test]
    fn never_never_fires() {
        let p = RepartitionPolicy::Never;
        assert!(!p.due(t(1_000), Timestamp::EPOCH, 1.0, 10.0));
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let p = RepartitionPolicy::Periodic {
            interval: Duration::weeks(2),
        };
        assert!(!p.due(t(13), Timestamp::EPOCH, 0.0, 1.0));
        assert!(p.due(t(14), Timestamp::EPOCH, 0.0, 1.0));
        assert!(!p.due(t(20), t(14), 0.0, 1.0));
        assert!(p.due(t(28), t(14), 0.0, 1.0));
    }

    #[test]
    fn threshold_fires_on_either_metric() {
        let p = RepartitionPolicy::Threshold {
            edge_cut: 0.3,
            balance: 1.5,
            min_interval: Duration::days(1),
        };
        // neither exceeded
        assert!(!p.due(t(10), t(0), 0.2, 1.2));
        // cut exceeded
        assert!(p.due(t(10), t(0), 0.4, 1.2));
        // balance exceeded
        assert!(p.due(t(10), t(0), 0.2, 1.6));
    }

    #[test]
    fn threshold_respects_refractory_period() {
        let p = RepartitionPolicy::Threshold {
            edge_cut: 0.3,
            balance: 1.5,
            min_interval: Duration::days(3),
        };
        assert!(!p.due(t(2), t(0), 0.9, 9.0));
        assert!(p.due(t(3), t(0), 0.9, 9.0));
    }

    #[test]
    fn default_is_two_weeks() {
        assert_eq!(
            RepartitionPolicy::default(),
            RepartitionPolicy::Periodic {
                interval: Duration::weeks(2)
            }
        );
    }
}
