//! Distribution summaries: five-number statistics and kernel density
//! estimates (the numbers behind the paper's box-and-whisker/violin plots).

/// Min, first quartile, median, third quartile, max — the box-and-whisker
/// numbers of the paper's Fig. 4.
///
/// Quartiles use linear interpolation between order statistics (type-7,
/// the numpy default).
///
/// # Examples
///
/// ```
/// use blockpart_metrics::FiveNumber;
///
/// let s = FiveNumber::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.q1, 1.75);
/// assert_eq!(s.median, 2.5);
/// assert_eq!(s.q3, 3.25);
/// assert_eq!(s.max, 4.0);
/// assert!(FiveNumber::of(&[]).is_none());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FiveNumber {
    /// Smallest value (lower whisker).
    pub min: f64,
    /// First quartile (box bottom).
    pub q1: f64,
    /// Median (band inside the box).
    pub median: f64,
    /// Third quartile (box top).
    pub q3: f64,
    /// Largest value (upper whisker).
    pub max: f64,
}

impl FiveNumber {
    /// Computes the five-number summary; `None` for empty input or if any
    /// value is NaN.
    pub fn of(values: &[f64]) -> Option<FiveNumber> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Some(FiveNumber {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            q3: percentile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }

    /// The interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Interpolated percentile of pre-sorted data (type-7 / numpy default).
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use blockpart_metrics::percentile_sorted;
///
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_sorted(&data, 0.0), 1.0);
/// assert_eq!(percentile_sorted(&data, 1.0), 4.0);
/// assert_eq!(percentile_sorted(&data, 0.5), 2.5);
/// ```
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&p), "percentile fraction out of range");
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// A Gaussian kernel density estimate over a uniform grid — the shape the
/// paper's violin plots draw around each box.
///
/// # Examples
///
/// ```
/// use blockpart_metrics::ViolinDensity;
///
/// let v = ViolinDensity::of(&[0.0, 0.1, 0.9, 1.0], 16).unwrap();
/// assert_eq!(v.grid.len(), 16);
/// // bimodal data: the density dips in the middle
/// let mid = v.density[8];
/// assert!(v.density[0] > mid && v.density[15] > mid);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViolinDensity {
    /// Evaluation points, spanning `[min, max]` of the data.
    pub grid: Vec<f64>,
    /// Estimated density at each grid point (integrates to ~1).
    pub density: Vec<f64>,
    /// The bandwidth used (Silverman's rule of thumb).
    pub bandwidth: f64,
}

impl ViolinDensity {
    /// Estimates the density on `bins` grid points. Returns `None` for
    /// fewer than 2 samples, NaN input or `bins < 2`.
    pub fn of(values: &[f64], bins: usize) -> Option<ViolinDensity> {
        if values.len() < 2 || bins < 2 || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        // Silverman's rule; fall back to a small constant for degenerate
        // (all-equal) samples so the KDE stays defined.
        let bandwidth = if std > 0.0 {
            1.06 * std * n.powf(-0.2)
        } else {
            1e-9_f64.max(mean.abs() * 1e-6)
        };

        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(bandwidth);
        let grid: Vec<f64> = (0..bins)
            .map(|i| lo + span * i as f64 / (bins - 1) as f64)
            .collect();
        let norm = 1.0 / (n * bandwidth * (2.0 * std::f64::consts::PI).sqrt());
        let density: Vec<f64> = grid
            .iter()
            .map(|&x| {
                values
                    .iter()
                    .map(|&v| (-0.5 * ((x - v) / bandwidth).powi(2)).exp())
                    .sum::<f64>()
                    * norm
            })
            .collect();
        Some(ViolinDensity {
            grid,
            density,
            bandwidth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_single_value() {
        let s = FiveNumber::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    fn five_number_rejects_nan() {
        assert!(FiveNumber::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn five_number_odd_length() {
        let s = FiveNumber::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0];
        assert_eq!(percentile_sorted(&data, 0.25), 15.0);
        assert_eq!(percentile_sorted(&data, 0.75), 25.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile_sorted(&[], 0.5);
    }

    #[test]
    fn kde_integrates_to_one() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let v = ViolinDensity::of(&values, 256).unwrap();
        let dx = v.grid[1] - v.grid[0];
        let integral: f64 = v.density.iter().sum::<f64>() * dx;
        // the grid only spans [min, max], so tails are clipped
        assert!((0.7..=1.05).contains(&integral), "integral {integral}");
    }

    #[test]
    fn kde_handles_constant_data() {
        let v = ViolinDensity::of(&[2.0, 2.0, 2.0], 8).unwrap();
        assert!(v.density.iter().all(|d| d.is_finite()));
        assert!(v.bandwidth > 0.0);
    }

    #[test]
    fn kde_rejects_degenerate_input() {
        assert!(ViolinDensity::of(&[1.0], 8).is_none());
        assert!(ViolinDensity::of(&[1.0, 2.0], 1).is_none());
        assert!(ViolinDensity::of(&[1.0, f64::NAN], 8).is_none());
    }

    #[test]
    fn kde_peak_tracks_mode() {
        let mut values = vec![5.0; 50];
        values.extend(std::iter::repeat_n(1.0, 5));
        let v = ViolinDensity::of(&values, 64).unwrap();
        let peak_idx = v
            .density
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(v.grid[peak_idx] > 4.0, "peak at {}", v.grid[peak_idx]);
    }
}
