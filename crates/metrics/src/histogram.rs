//! Log-binned histograms, for degree and activity distributions.

/// A base-2 log-binned histogram of non-negative integers: bin `i` counts
/// values in `[2^i, 2^(i+1))`, with a dedicated zero bin.
///
/// Heavy-tailed distributions (blockchain degrees, account activity) are
/// unreadable in linear bins; log bins make the power-law slope visible.
///
/// # Examples
///
/// ```
/// use blockpart_metrics::LogHistogram;
///
/// let h: LogHistogram = [0u64, 1, 1, 2, 3, 700].into_iter().collect();
/// assert_eq!(h.zero_count(), 1);
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.bin_for(700), 9); // 2^9 = 512 <= 700 < 1024
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    zero: u64,
    bins: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
        if value == 0 {
            self.zero += 1;
            return;
        }
        let bin = Self::bin_of(value);
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of zero observations.
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The bin index a value would land in (zero goes to the zero bin and
    /// reports bin 0 here for display purposes).
    pub fn bin_for(&self, value: u64) -> usize {
        if value == 0 {
            0
        } else {
            Self::bin_of(value)
        }
    }

    /// `(lower_bound, count)` per non-empty bin, ascending.
    pub fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }

    /// The `q`-th percentile (`q` in `[0, 1]`), estimated from the log
    /// bins by linear interpolation within the containing bin and clamped
    /// to the observed maximum. Exact for the zero bin; within a factor
    /// of 2 elsewhere — the right resolution for latency percentiles
    /// (p50/p99 in µs) where the bin edge, not the third digit, carries
    /// the signal. Returns 0 when empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_metrics::LogHistogram;
    ///
    /// let h: LogHistogram = (1u64..=1000).collect();
    /// let p50 = h.percentile(0.50);
    /// assert!((400..=600).contains(&p50), "p50 = {p50}");
    /// assert_eq!(h.percentile(1.0), 1000);
    /// ```
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the requested observation.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank <= self.zero {
            return 0;
        }
        let mut seen = self.zero;
        for (i, &count) in self.bins.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank <= seen + count {
                let lower = 1u64 << i;
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                let upper = upper.min(self.max);
                // Position of the rank inside this bin, in (0, 1].
                let frac = (rank - seen) as f64 / count as f64;
                return lower + ((upper - lower) as f64 * frac).round() as u64;
            }
            seen += count;
        }
        self.max
    }

    /// Folds another histogram into this one (bin-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.zero += other.zero;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
    }

    fn bin_of(value: u64) -> usize {
        (63 - value.leading_zeros()) as usize
    }
}

impl Extend<u64> for LogHistogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for LogHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = LogHistogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries() {
        let h = LogHistogram::new();
        assert_eq!(h.bin_for(1), 0);
        assert_eq!(h.bin_for(2), 1);
        assert_eq!(h.bin_for(3), 1);
        assert_eq!(h.bin_for(4), 2);
        assert_eq!(h.bin_for(u64::MAX), 63);
    }

    #[test]
    fn record_and_stats() {
        let h: LogHistogram = [0u64, 0, 1, 4, 5, 16].into_iter().collect();
        assert_eq!(h.count(), 6);
        assert_eq!(h.zero_count(), 2);
        assert_eq!(h.max(), 16);
        assert!((h.mean() - 26.0 / 6.0).abs() < 1e-12);
        let bins: Vec<_> = h.bins().collect();
        assert_eq!(bins, vec![(1, 1), (4, 2), (16, 1)]);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.bins().count(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn percentile_zero_bin_and_extremes() {
        let h: LogHistogram = [0u64, 0, 0, 8, 9, 10].into_iter().collect();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(0.5), 0); // rank 3 of 6 is still a zero
        assert_eq!(h.percentile(1.0), 10); // clamped to observed max
                                           // All observations in one bin [8, 16): estimates stay in-bin.
        let p75 = h.percentile(0.75);
        assert!((8..=10).contains(&p75), "p75 = {p75}");
    }

    #[test]
    fn percentile_is_monotone() {
        let h: LogHistogram = (0u64..500).map(|i| i * 17 % 4096).collect();
        let mut last = 0;
        for i in 0..=20 {
            let p = h.percentile(i as f64 / 20.0);
            assert!(p >= last, "percentile not monotone at {i}");
            last = p;
        }
        assert_eq!(last, h.max());
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a: LogHistogram = [0u64, 1, 5, 100].into_iter().collect();
        let b: LogHistogram = [3u64, 5, 7000].into_iter().collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let direct: LogHistogram = [0u64, 1, 5, 100, 3, 5, 7000].into_iter().collect();
        assert_eq!(merged, direct);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.max(), 7000);
    }
}
