//! The per-node peer database: latest load info from every other conductor.
//!
//! "Each node also keeps track of the load status of other nodes based on
//! the latest information they sent, practically maintaining an
//! approximation on the overall load of the whole cluster." Entries expire
//! when a peer stops heartbeating (node leave / crash).

use crate::info::LoadInfo;
use dvelm_net::NodeId;
use dvelm_sim::SimTime;
use std::collections::BTreeMap;

/// Last-known load of every peer.
#[derive(Debug, Clone, Default)]
pub struct PeerDb {
    peers: BTreeMap<NodeId, LoadInfo>,
}

impl PeerDb {
    /// An empty database.
    pub fn new() -> PeerDb {
        PeerDb::default()
    }

    /// Record a heartbeat. Newest sample wins: under reordered control
    /// delivery an older heartbeat may arrive after a fresher one, and it
    /// must not clobber it (equal stamps overwrite, keeping the in-order
    /// fast path unchanged).
    pub fn update(&mut self, info: LoadInfo) {
        match self.peers.get(&info.node) {
            Some(existing) if info.at < existing.at => {}
            _ => {
                self.peers.insert(info.node, info);
            }
        }
    }

    /// Drop peers whose last heartbeat is older than `stale_us`. Returns the
    /// departed nodes.
    pub fn expire(&mut self, now: SimTime, stale_us: u64) -> Vec<NodeId> {
        let dead: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(_, li)| now.saturating_since(li.at) > stale_us)
            .map(|(n, _)| *n)
            .collect();
        for n in &dead {
            self.peers.remove(n);
        }
        dead
    }

    /// Known peers, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &LoadInfo> {
        self.peers.values()
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether no peers are known.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Latest info about one peer.
    pub fn get(&self, node: NodeId) -> Option<&LoadInfo> {
        self.peers.get(&node)
    }

    /// Approximated cluster-wide average CPU, including the local sample.
    pub fn cluster_average(&self, local_cpu: f64) -> f64 {
        let sum: f64 = self.peers.values().map(|li| li.cpu_pct).sum();
        (sum + local_cpu) / (self.peers.len() as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn li(node: u32, cpu: f64, at_s: u64) -> LoadInfo {
        LoadInfo::new(NodeId(node), cpu, 20, SimTime::from_secs(at_s))
    }

    #[test]
    fn update_keeps_latest() {
        let mut db = PeerDb::new();
        db.update(li(1, 50.0, 1));
        db.update(li(1, 70.0, 2));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(NodeId(1)).unwrap().cpu_pct, 70.0);
    }

    #[test]
    fn reordered_older_sample_does_not_clobber_newer() {
        let mut db = PeerDb::new();
        db.update(li(1, 70.0, 2));
        // A delayed heartbeat from t=1 arrives after the t=2 sample.
        db.update(li(1, 50.0, 1));
        assert_eq!(db.get(NodeId(1)).unwrap().cpu_pct, 70.0);
        // Equal stamps overwrite (in-order fast path).
        db.update(li(1, 55.0, 2));
        assert_eq!(db.get(NodeId(1)).unwrap().cpu_pct, 55.0);
    }

    #[test]
    fn cluster_average_includes_local() {
        let mut db = PeerDb::new();
        db.update(li(1, 90.0, 1));
        db.update(li(2, 70.0, 1));
        // (90 + 70 + 80) / 3
        assert!((db.cluster_average(80.0) - 80.0).abs() < 1e-9);
        // Empty db: average is just the local load.
        assert_eq!(PeerDb::new().cluster_average(42.0), 42.0);
    }

    #[test]
    fn expire_removes_silent_peers() {
        let mut db = PeerDb::new();
        db.update(li(1, 50.0, 1));
        db.update(li(2, 60.0, 9));
        let dead = db.expire(SimTime::from_secs(10), 5_000_000);
        assert_eq!(dead, vec![NodeId(1)]);
        assert_eq!(db.len(), 1);
        assert!(db.get(NodeId(2)).is_some());
    }
}
