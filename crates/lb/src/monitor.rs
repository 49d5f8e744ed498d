//! Load-indicator smoothing.
//!
//! The conductor samples resource consumption via an `atop`-style monitor
//! (§IV). Raw instantaneous CPU numbers gyrate with the real-time loop —
//! the paper's calm-down period exists precisely "for stabilizing the
//! indicators of their resource consumption" after a migration. An
//! exponentially weighted moving average keeps single spikes from
//! triggering spurious migrations.

/// EWMA smoother over CPU samples.
#[derive(Debug, Clone, Copy)]
pub struct LoadMonitor {
    /// Weight of the newest sample (0 < α ≤ 1).
    pub alpha: f64,
    smoothed: Option<f64>,
}

impl Default for LoadMonitor {
    fn default() -> Self {
        LoadMonitor::new(0.3)
    }
}

impl LoadMonitor {
    /// A monitor with the given smoothing factor.
    pub fn new(alpha: f64) -> LoadMonitor {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0, 1]: {alpha}");
        LoadMonitor {
            alpha,
            smoothed: None,
        }
    }

    /// Feed one raw sample; returns the smoothed value.
    pub fn sample(&mut self, cpu_pct: f64) -> f64 {
        let s = match self.smoothed {
            None => cpu_pct,
            Some(prev) => prev + self.alpha * (cpu_pct - prev),
        };
        self.smoothed = Some(s);
        s
    }

    /// Latest smoothed value, if any sample arrived.
    pub fn current(&self) -> Option<f64> {
        self.smoothed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_passes_through() {
        let mut m = LoadMonitor::new(0.3);
        assert_eq!(m.current(), None);
        assert_eq!(m.sample(80.0), 80.0);
        assert_eq!(m.current(), Some(80.0));
    }

    #[test]
    fn converges_to_steady_state() {
        let mut m = LoadMonitor::new(0.3);
        m.sample(0.0);
        let mut last = 0.0;
        for _ in 0..50 {
            last = m.sample(70.0);
        }
        assert!((last - 70.0).abs() < 0.01, "converged to {last}");
    }

    #[test]
    fn damps_single_spikes() {
        let mut m = LoadMonitor::new(0.3);
        for _ in 0..10 {
            m.sample(60.0);
        }
        let spike = m.sample(100.0);
        assert!(
            spike < 75.0,
            "one spike moved the indicator too far: {spike}"
        );
        // And recovers.
        for _ in 0..10 {
            m.sample(60.0);
        }
        assert!((m.current().unwrap() - 60.0).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_is_validated() {
        let _ = LoadMonitor::new(0.0);
    }
}
