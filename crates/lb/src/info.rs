//! Load information exchanged between conductors.

use dvelm_net::NodeId;
use dvelm_sim::SimTime;

/// Wire size of one heartbeat/load message, bytes.
pub const LOAD_INFO_BYTES: u64 = 64;

/// One node's load sample, as broadcast in heartbeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadInfo {
    pub node: NodeId,
    /// CPU consumption, percent (0–100), as `atop` would report.
    pub cpu_pct: f64,
    /// Number of DVE zone-server processes hosted.
    pub nprocs: u32,
    /// When the sample was taken (sender clock; the cluster is a LAN, so
    /// clock skew is ignored as in the prototype).
    pub at: SimTime,
}

impl LoadInfo {
    /// A sample.
    pub fn new(node: NodeId, cpu_pct: f64, nprocs: u32, at: SimTime) -> LoadInfo {
        LoadInfo {
            node,
            cpu_pct,
            nprocs,
            at,
        }
    }

    /// Whether the sample is recent enough to base an admission or
    /// placement decision on. A node whose latest sample is older than
    /// `fresh_us` (the conductor uses 2× the heartbeat interval) may have
    /// drifted arbitrarily far from the recorded load, so it is treated as
    /// having no usable sample at all rather than a stale optimistic one.
    pub fn is_fresh(&self, now: SimTime, fresh_us: u64) -> bool {
        now.saturating_since(self.at) <= fresh_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let li = LoadInfo::new(NodeId(3), 87.5, 20, SimTime::from_secs(10));
        assert_eq!(li.node, NodeId(3));
        assert_eq!(li.cpu_pct, 87.5);
        assert_eq!(li.nprocs, 20);
    }

    #[test]
    fn freshness_is_a_closed_window() {
        let li = LoadInfo::new(NodeId(1), 50.0, 4, SimTime::from_secs(10));
        let fresh_us = 2_000_000;
        assert!(li.is_fresh(SimTime::from_secs(10), fresh_us));
        assert!(li.is_fresh(SimTime::from_secs(12), fresh_us));
        assert!(!li.is_fresh(SimTime::from_micros(12_000_001), fresh_us));
        // A sample "from the future" (sender clock ahead) is fresh.
        assert!(li.is_fresh(SimTime::from_secs(9), fresh_us));
    }
}
