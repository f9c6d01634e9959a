//! Order statistics over the samples one run collects.

/// Median, quartiles and sample count of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `samples` (at least one) with linearly interpolated
/// quartiles, the "inclusive" method of Python's `statistics.quantiles`.
pub fn summary(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// The median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).median
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `p`-th percentile (0 < p < 100) of `samples`, nearest-rank, or
/// `None` when fewer than ten samples lie above it: a tail percentile
/// resting on a handful of samples is noise, not a measurement.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.max(1);
    let beyond = sorted.len().checked_sub(rank)?;
    (beyond >= 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..=10], n=4, method="inclusive")
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.25, 5.5, 7.75, 10));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples above it
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        // p95 of 100 samples: only five above it
        assert_eq!(tail_percentile(&xs, 95.0), None);
        // p90 of 99 samples: nine above it
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        // the median of 20 samples has ten above it; of 19, nine
        assert_eq!(tail_percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&xs[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
