//! The era timeline: transaction rates and workload mixes over the
//! chain's simulated history.

use blockpart_types::{Duration, Timestamp};

/// Average length of a month in seconds (the timeline is specified in
/// months since genesis, 2015-07-30).
pub const MONTH_SECS: u64 = 2_629_800; // 30.4375 days

/// Converts months-since-genesis to a timestamp.
pub(crate) fn month(m: f64) -> Timestamp {
    Timestamp::from_secs((m * MONTH_SECS as f64) as u64)
}

/// Relative frequencies of transaction categories within an era.
///
/// The fields need not sum to 1; sampling normalizes. Categories map to
/// the contract templates of
/// [`ContractTemplate`](crate::ContractTemplate) plus plain transfers,
/// contract deployments and the 2016 attack spam.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::gen::TxMix;
///
/// let mix = TxMix::frontier();
/// assert!(mix.transfer > mix.token);
/// assert_eq!(mix.attack, 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxMix {
    /// Plain ether transfers between accounts.
    pub transfer: f64,
    /// ERC20-style token calls.
    pub token: f64,
    /// Crowdsale contributions (which fan out to beneficiary + token).
    pub ico: f64,
    /// Gambling-game calls.
    pub game: f64,
    /// Wallet relays.
    pub wallet: f64,
    /// Factory invocations (create child contracts).
    pub factory: f64,
    /// Registry writes.
    pub registry: f64,
    /// Fresh contract deployments.
    pub deploy: f64,
    /// Attack spam: one-shot dummy accounts (the Oct 2016 anomaly).
    pub attack: f64,
}

impl TxMix {
    /// Frontier-era mix: almost all plain transfers, a trickle of deploys.
    pub fn frontier() -> TxMix {
        TxMix {
            transfer: 0.84,
            token: 0.02,
            ico: 0.0,
            game: 0.02,
            wallet: 0.06,
            factory: 0.02,
            registry: 0.02,
            deploy: 0.02,
            attack: 0.0,
        }
    }

    /// Homestead mix: contracts gain ground (DAO era).
    pub fn homestead() -> TxMix {
        TxMix {
            transfer: 0.62,
            token: 0.08,
            ico: 0.06,
            game: 0.05,
            wallet: 0.08,
            factory: 0.04,
            registry: 0.03,
            deploy: 0.04,
            attack: 0.0,
        }
    }

    /// The Sep–Oct 2016 DoS period: dominated by dummy-account spam.
    pub fn attack() -> TxMix {
        TxMix {
            attack: 0.80,
            transfer: 0.12,
            token: 0.02,
            ico: 0.01,
            game: 0.01,
            wallet: 0.02,
            factory: 0.01,
            registry: 0.005,
            deploy: 0.005,
        }
    }

    /// Post-fork recovery: back to an organic mix.
    pub fn recovery() -> TxMix {
        TxMix {
            transfer: 0.55,
            token: 0.14,
            ico: 0.06,
            game: 0.05,
            wallet: 0.08,
            factory: 0.05,
            registry: 0.03,
            deploy: 0.04,
            attack: 0.0,
        }
    }

    /// The 2017 ICO boom: token and crowdsale traffic dominates.
    pub fn boom() -> TxMix {
        TxMix {
            transfer: 0.36,
            token: 0.30,
            ico: 0.14,
            game: 0.05,
            wallet: 0.06,
            factory: 0.04,
            registry: 0.02,
            deploy: 0.03,
            attack: 0.0,
        }
    }

    /// The total weight (sampling normalizer).
    pub fn total(&self) -> f64 {
        self.transfer
            + self.token
            + self.ico
            + self.game
            + self.wallet
            + self.factory
            + self.registry
            + self.deploy
            + self.attack
    }
}

/// One segment of chain history with a rate ramp and a workload mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Era {
    /// Era name (fork names from Fig. 1).
    pub name: &'static str,
    /// Inclusive start time.
    pub start: Timestamp,
    /// Exclusive end time.
    pub end: Timestamp,
    /// Transactions per day at era start (full scale).
    pub rate_start: f64,
    /// Transactions per day at era end; interpolated geometrically, which
    /// yields the exponential growth visible in Fig. 1.
    pub rate_end: f64,
    /// Workload composition.
    pub mix: TxMix,
}

impl Era {
    /// The interpolated full-scale transaction rate (tx/day) at `t`.
    ///
    /// Geometric interpolation between `rate_start` and `rate_end`.
    pub fn rate_at(&self, t: Timestamp) -> f64 {
        let span = (self.end.as_secs() - self.start.as_secs()) as f64;
        if span == 0.0 {
            return self.rate_start;
        }
        let frac = (t.as_secs().saturating_sub(self.start.as_secs())) as f64 / span;
        let frac = frac.clamp(0.0, 1.0);
        self.rate_start * (self.rate_end / self.rate_start).powf(frac)
    }
}

/// The full simulated history: an ordered, contiguous list of eras.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::gen::EraTimeline;
/// use blockpart_types::Timestamp;
///
/// let tl = EraTimeline::ethereum_history();
/// let genesis_era = tl.era_at(Timestamp::EPOCH);
/// assert_eq!(genesis_era.name, "frontier");
/// assert!(tl.end() > Timestamp::from_secs(70_000_000)); // ~30 months
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EraTimeline {
    eras: Vec<Era>,
}

impl EraTimeline {
    /// Builds a timeline from eras.
    ///
    /// # Panics
    ///
    /// Panics if `eras` is empty, unordered, or non-contiguous.
    pub fn new(eras: Vec<Era>) -> Self {
        assert!(!eras.is_empty(), "timeline needs at least one era");
        for pair in eras.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "eras must be contiguous");
        }
        EraTimeline { eras }
    }

    /// The 30-month Ethereum history of the paper's Fig. 1, at full scale.
    ///
    /// Rates are calibrated so the *shape* matches the figure: exponential
    /// growth to ~30k tx/day by mid-2016, a 10× spam spike during the
    /// Sep–Oct 2016 attack, recovery, then super-linear growth through the
    /// 2017 ICO boom to ~700k tx/day by January 2018.
    pub fn ethereum_history() -> Self {
        EraTimeline::new(vec![
            Era {
                name: "frontier",
                start: month(0.0),
                end: month(7.0), // ~2016-03 (Homestead fork)
                rate_start: 1_500.0,
                rate_end: 12_000.0,
                mix: TxMix::frontier(),
            },
            Era {
                name: "homestead",
                start: month(7.0),
                end: month(13.7), // ~2016-09-18 (attack begins)
                rate_start: 12_000.0,
                rate_end: 35_000.0,
                mix: TxMix::homestead(),
            },
            Era {
                name: "attack",
                start: month(13.7),
                end: month(15.2), // ~2016-11-01 (EIP150 defused it)
                rate_start: 300_000.0,
                rate_end: 350_000.0,
                mix: TxMix::attack(),
            },
            Era {
                name: "recovery",
                start: month(15.2),
                end: month(19.2), // ~2017-03 (EIP155/158 era)
                rate_start: 40_000.0,
                rate_end: 60_000.0,
                mix: TxMix::recovery(),
            },
            Era {
                name: "boom",
                start: month(19.2),
                end: month(27.0), // ~2017-10 (Byzantium)
                rate_start: 60_000.0,
                rate_end: 480_000.0,
                mix: TxMix::boom(),
            },
            Era {
                name: "byzantium",
                start: month(27.0),
                end: month(30.0), // ~2018-01 (study horizon)
                rate_start: 480_000.0,
                rate_end: 750_000.0,
                mix: TxMix::boom(),
            },
        ])
    }

    /// A short two-era timeline for unit tests (14 days of history).
    pub fn short_test() -> Self {
        EraTimeline::new(vec![
            Era {
                name: "a",
                start: Timestamp::EPOCH,
                end: Timestamp::from_secs(7 * 86_400),
                rate_start: 10_000.0,
                rate_end: 20_000.0,
                mix: TxMix::frontier(),
            },
            Era {
                name: "b",
                start: Timestamp::from_secs(7 * 86_400),
                end: Timestamp::from_secs(14 * 86_400),
                rate_start: 20_000.0,
                rate_end: 40_000.0,
                mix: TxMix::boom(),
            },
        ])
    }

    /// All eras in order.
    pub fn eras(&self) -> &[Era] {
        &self.eras
    }

    /// End of simulated history.
    pub fn end(&self) -> Timestamp {
        self.eras.last().expect("non-empty").end
    }

    /// The era containing `t` (clamped to the last era after the end).
    pub fn era_at(&self, t: Timestamp) -> &Era {
        self.eras
            .iter()
            .find(|e| t < e.end)
            .unwrap_or_else(|| self.eras.last().expect("non-empty"))
    }

    /// Full-scale transaction rate (tx/day) at `t`.
    pub fn rate_at(&self, t: Timestamp) -> f64 {
        self.era_at(t).rate_at(t)
    }

    /// Converts a calendar month offset (0 = August 2015) to a timestamp,
    /// for aligning report axes with the paper's figures.
    pub fn month_mark(m: f64) -> Timestamp {
        month(m)
    }

    /// When EIP-150 activates on the canonical timeline: the gas
    /// repricing that made the 2016 spam uneconomical. The generator
    /// switches the chain's gas schedule here.
    pub fn eip150_activation() -> Timestamp {
        month(15.2)
    }

    /// The fork/attack markers of Fig. 1, as (label, time) pairs.
    pub fn fig1_markers() -> Vec<(&'static str, Timestamp)> {
        vec![
            ("Homestead", month(7.0)),
            ("DAO", month(10.5)),
            ("Attack", month(13.7)),
            ("EIP150", month(15.2)),
            ("EIP155&158", month(16.0)),
            ("Byzantium", month(27.0)),
        ]
    }

    /// Ignores eras after `until`, truncating the final one. Used to run
    /// shorter studies at full rate shape.
    pub fn truncated(&self, until: Timestamp) -> EraTimeline {
        let mut eras: Vec<Era> = Vec::new();
        for e in &self.eras {
            if e.start >= until {
                break;
            }
            let mut e = *e;
            if e.end > until {
                e.end = until;
            }
            eras.push(e);
        }
        if eras.is_empty() {
            let mut first = self.eras[0];
            first.end = first.start + Duration::from_secs(1);
            eras.push(first);
        }
        EraTimeline::new(eras)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_contiguous_and_ordered() {
        let tl = EraTimeline::ethereum_history();
        assert_eq!(tl.eras().len(), 6);
        for pair in tl.eras().windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
            assert!(pair[0].start < pair[0].end);
        }
    }

    #[test]
    fn rate_interpolates_geometrically() {
        let tl = EraTimeline::ethereum_history();
        let frontier = &tl.eras()[0];
        let mid = Timestamp::from_secs((frontier.start.as_secs() + frontier.end.as_secs()) / 2);
        let r = tl.rate_at(mid);
        let geo_mid = (frontier.rate_start * frontier.rate_end).sqrt();
        assert!(
            (r - geo_mid).abs() / geo_mid < 0.01,
            "r={r} expected~{geo_mid}"
        );
    }

    #[test]
    fn attack_era_spikes() {
        let tl = EraTimeline::ethereum_history();
        let pre = tl.rate_at(month(13.0));
        let during = tl.rate_at(month(14.0));
        let post = tl.rate_at(month(16.0));
        assert!(
            during > 5.0 * pre,
            "attack spike missing: {pre} -> {during}"
        );
        assert!(post < during / 4.0, "rate should drop after the fork");
    }

    #[test]
    fn era_lookup_clamps() {
        let tl = EraTimeline::ethereum_history();
        assert_eq!(tl.era_at(Timestamp::from_secs(u64::MAX)).name, "byzantium");
        assert_eq!(tl.era_at(Timestamp::EPOCH).name, "frontier");
    }

    #[test]
    fn truncation_preserves_prefix() {
        let tl = EraTimeline::ethereum_history();
        let cut = tl.truncated(month(10.0));
        assert_eq!(cut.eras().len(), 2);
        assert_eq!(cut.end(), month(10.0));
        assert_eq!(cut.eras()[0], tl.eras()[0]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_in_timeline_panics() {
        let mut eras = EraTimeline::ethereum_history().eras().to_vec();
        eras[1].start += Duration::from_secs(5);
        let _ = EraTimeline::new(eras);
    }

    #[test]
    fn mixes_normalize() {
        for mix in [
            TxMix::frontier(),
            TxMix::homestead(),
            TxMix::attack(),
            TxMix::recovery(),
            TxMix::boom(),
        ] {
            assert!(
                (mix.total() - 1.0).abs() < 0.01,
                "mix total {}",
                mix.total()
            );
        }
    }

    #[test]
    fn markers_cover_fig1_events() {
        let markers = EraTimeline::fig1_markers();
        assert_eq!(markers.len(), 6);
        assert!(markers.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
