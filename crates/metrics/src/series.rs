//! Timestamped scalar series.

use blockpart_types::Timestamp;

/// A time-ordered series of scalar samples — one line of the paper's
/// Fig. 3 plots.
///
/// # Examples
///
/// ```
/// use blockpart_metrics::TimeSeries;
/// use blockpart_types::Timestamp;
///
/// let mut s = TimeSeries::new("dynamic edge-cut");
/// s.push(Timestamp::from_secs(0), 0.5);
/// s.push(Timestamp::from_secs(100), 0.4);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.mean(), Some(0.45));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Timestamp, f64)>,
}

impl TimeSeries {
    /// Creates an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last sample.
    pub fn push(&mut self, time: Timestamp, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "series must be appended in time order");
        }
        self.points.push((time, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All samples in time order.
    pub fn points(&self) -> &[(Timestamp, f64)] {
        &self.points
    }

    /// The raw values, losing timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Samples within `start <= t < end`.
    pub fn slice(&self, start: Timestamp, end: Timestamp) -> &[(Timestamp, f64)] {
        let lo = self.points.partition_point(|&(t, _)| t < start);
        let hi = self.points.partition_point(|&(t, _)| t < end);
        &self.points[lo..hi]
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// The final sample value; `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Serializes as `time_secs,value` CSV lines (no header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for &(t, v) in &self.points {
            out.push_str(&format!("{},{v}\n", t.as_secs()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(t(i * 10), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.last(), Some(9.0));
        assert_eq!(s.mean(), Some(4.5));
        assert_eq!(s.name(), "x");
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn unordered_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
    }

    #[test]
    fn slice_selects_window() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(t(i * 10), i as f64);
        }
        let w = s.slice(t(20), t(50));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].1, 2.0);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.last(), None);
        assert_eq!(s.to_csv(), "");
    }

    #[test]
    fn csv_format() {
        let mut s = TimeSeries::new("x");
        s.push(t(60), 0.25);
        assert_eq!(s.to_csv(), "60,0.25\n");
    }
}
