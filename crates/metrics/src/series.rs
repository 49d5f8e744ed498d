//! Time series: (time, value) samples with simple aggregation.

use dvelm_sim::SimTime;

/// A named time series of f64 samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    pub name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample at a simulated instant.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.push_at_secs(at.as_secs_f64(), value);
    }

    /// Append a sample at a time in seconds. Times must be nondecreasing.
    pub fn push_at_secs(&mut self, t_secs: f64, value: f64) {
        if let Some((last, _)) = self.points.last() {
            assert!(t_secs >= *last, "time series must be appended in order");
        }
        self.points.push((t_secs, value));
    }

    /// All samples as (seconds, value).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest value.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// Value at or before `t_secs` (step interpolation).
    pub fn at(&self, t_secs: f64) -> Option<f64> {
        match self.points.partition_point(|(t, _)| *t <= t_secs) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }

    /// Minimum and maximum values over the whole series.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, v) in &self.points {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new("cpu");
        s.push_at_secs(0.0, 50.0);
        s.push_at_secs(10.0, 60.0);
        s.push_at_secs(20.0, 70.0);
        s
    }

    #[test]
    fn step_interpolation() {
        let s = series();
        assert_eq!(s.at(-1.0), None);
        assert_eq!(s.at(0.0), Some(50.0));
        assert_eq!(s.at(9.9), Some(50.0));
        assert_eq!(s.at(10.0), Some(60.0));
        assert_eq!(s.at(100.0), Some(70.0));
    }

    #[test]
    fn value_range() {
        assert_eq!(series().value_range(), Some((50.0, 70.0)));
        assert_eq!(TimeSeries::new("x").value_range(), None);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_rejected() {
        let mut s = series();
        s.push_at_secs(5.0, 1.0);
    }

    #[test]
    fn push_simtime() {
        let mut s = TimeSeries::new("t");
        s.push(SimTime::from_millis(1500), 3.0);
        assert_eq!(s.points()[0], (1.5, 3.0));
    }
}
