//! Cluster-wide migration admission control.
//!
//! The paper's conductor protocol already serialises migrations pairwise
//! (one in-flight migration per sender/receiver, two-phase commit), but
//! nothing bounds what the *cluster* commits to at once: under a thundering
//! herd every overloaded node picks the same few light peers and the
//! receivers' memory fills with in-flight checkpoint images. The
//! [`AdmissionControl`] ledger is the single authority the runtime consults
//! before a migration is allowed to start:
//!
//! * a cluster-wide concurrent-migration semaphore,
//! * a per-node semaphore (a node counts against it as source *or*
//!   destination — both sides pay CPU and bandwidth),
//! * a per-destination budget on the summed bytes of in-flight checkpoint
//!   images (the receiver must hold the image in memory until restore).
//!
//! Every limit defaults to "unlimited", so a world that never configures
//! admission behaves exactly like the paper prototype.

use dvelm_net::NodeId;
use std::collections::BTreeMap;

/// Budgets enforced by [`AdmissionControl`]. All default to unlimited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum concurrently admitted migrations across the whole cluster.
    pub max_cluster_migrations: usize,
    /// Maximum concurrently admitted migrations touching one node, counting
    /// the node's involvement as source or destination.
    pub max_node_migrations: usize,
    /// Maximum summed size, in bytes, of checkpoint images in flight toward
    /// any single destination node.
    pub max_inflight_image_bytes: u64,
}

impl AdmissionConfig {
    /// No limits: the paper-prototype behaviour.
    pub const UNLIMITED: AdmissionConfig = AdmissionConfig {
        max_cluster_migrations: usize::MAX,
        max_node_migrations: usize::MAX,
        max_inflight_image_bytes: u64::MAX,
    };

    /// Whether any budget is actually bounded.
    pub fn is_unlimited(&self) -> bool {
        *self == AdmissionConfig::UNLIMITED
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::UNLIMITED
    }
}

/// Why a migration was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDenied {
    /// The cluster-wide concurrent-migration semaphore is exhausted.
    ClusterBusy,
    /// The named node is already involved in its maximum number of
    /// migrations (as source or destination).
    NodeBusy(NodeId),
    /// Admitting the image would push the destination's in-flight
    /// checkpoint-image bytes over budget.
    ImageBudget { dst: NodeId, would_be: u64 },
}

impl AdmissionDenied {
    /// Stable label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionDenied::ClusterBusy => "cluster busy",
            AdmissionDenied::NodeBusy(_) => "node busy",
            AdmissionDenied::ImageBudget { .. } => "image budget",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveEntry {
    token: u64,
    src: NodeId,
    dst: NodeId,
    image_bytes: u64,
}

/// Counters kept by the ledger, for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub admitted: u64,
    pub denied_cluster: u64,
    pub denied_node: u64,
    pub denied_image: u64,
    /// High-water mark of concurrently admitted migrations.
    pub peak_active: usize,
    /// High-water mark of in-flight image bytes on any one destination.
    pub peak_inflight_bytes: u64,
}

/// The admission ledger. Admit with an opaque caller-chosen token
/// (the runtime uses the migration id) and release with the same token
/// when the migration completes or aborts.
#[derive(Debug, Clone, Default)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    active: Vec<ActiveEntry>,
    stats: AdmissionStats,
}

impl AdmissionControl {
    pub fn new(cfg: AdmissionConfig) -> AdmissionControl {
        AdmissionControl {
            cfg,
            active: Vec::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Number of currently admitted migrations.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of admitted migrations touching `node` as source or
    /// destination.
    pub fn active_on(&self, node: NodeId) -> usize {
        self.active
            .iter()
            .filter(|e| e.src == node || e.dst == node)
            .count()
    }

    /// Summed bytes of in-flight checkpoint images headed for `dst`.
    pub fn inflight_image_bytes(&self, dst: NodeId) -> u64 {
        self.active
            .iter()
            .filter(|e| e.dst == dst)
            .map(|e| e.image_bytes)
            .sum()
    }

    /// Per-destination in-flight image bytes, for reporting.
    pub fn inflight_by_destination(&self) -> BTreeMap<NodeId, u64> {
        let mut map = BTreeMap::new();
        for e in &self.active {
            *map.entry(e.dst).or_insert(0) += e.image_bytes;
        }
        map
    }

    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Check the budgets without taking a slot.
    pub fn would_admit(
        &self,
        src: NodeId,
        dst: NodeId,
        image_bytes: u64,
    ) -> Result<(), AdmissionDenied> {
        if self.active.len() >= self.cfg.max_cluster_migrations {
            return Err(AdmissionDenied::ClusterBusy);
        }
        if self.active_on(src) >= self.cfg.max_node_migrations {
            return Err(AdmissionDenied::NodeBusy(src));
        }
        if self.active_on(dst) >= self.cfg.max_node_migrations {
            return Err(AdmissionDenied::NodeBusy(dst));
        }
        let would_be = self.inflight_image_bytes(dst).saturating_add(image_bytes);
        if would_be > self.cfg.max_inflight_image_bytes {
            return Err(AdmissionDenied::ImageBudget { dst, would_be });
        }
        Ok(())
    }

    /// Take a slot for a migration of `image_bytes` from `src` to `dst`.
    /// `image_bytes` is the caller's upper-bound estimate of the checkpoint
    /// image (the ledger exists to prevent overload, so it budgets against
    /// the worst case, not the post-precopy residue).
    pub fn admit(
        &mut self,
        token: u64,
        src: NodeId,
        dst: NodeId,
        image_bytes: u64,
    ) -> Result<(), AdmissionDenied> {
        debug_assert!(
            !self.active.iter().any(|e| e.token == token),
            "admission token reused while active"
        );
        if let Err(denied) = self.would_admit(src, dst, image_bytes) {
            match denied {
                AdmissionDenied::ClusterBusy => self.stats.denied_cluster += 1,
                AdmissionDenied::NodeBusy(_) => self.stats.denied_node += 1,
                AdmissionDenied::ImageBudget { .. } => self.stats.denied_image += 1,
            }
            return Err(denied);
        }
        self.active.push(ActiveEntry {
            token,
            src,
            dst,
            image_bytes,
        });
        self.stats.admitted += 1;
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        self.stats.peak_inflight_bytes = self
            .stats
            .peak_inflight_bytes
            .max(self.inflight_image_bytes(dst));
        Ok(())
    }

    /// Release the slot taken under `token`. Returns whether the token was
    /// active (releasing an unknown token is a no-op, so completion and
    /// abort paths can both call it unconditionally).
    pub fn release(&mut self, token: u64) -> bool {
        let before = self.active.len();
        self.active.retain(|e| e.token != token);
        self.active.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn unlimited_admits_everything() {
        let mut ac = AdmissionControl::new(AdmissionConfig::UNLIMITED);
        for t in 0..64 {
            ac.admit(t, NodeId(0), NodeId(1), 100 * MB).unwrap();
        }
        assert_eq!(ac.active_count(), 64);
        assert_eq!(ac.stats().admitted, 64);
    }

    #[test]
    fn cluster_semaphore_bounds_concurrency() {
        let cfg = AdmissionConfig {
            max_cluster_migrations: 2,
            ..AdmissionConfig::UNLIMITED
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.admit(1, NodeId(0), NodeId(1), MB).unwrap();
        ac.admit(2, NodeId(2), NodeId(3), MB).unwrap();
        assert_eq!(
            ac.admit(3, NodeId(4), NodeId(5), MB),
            Err(AdmissionDenied::ClusterBusy)
        );
        assert!(ac.release(1));
        ac.admit(3, NodeId(4), NodeId(5), MB).unwrap();
        assert_eq!(ac.stats().denied_cluster, 1);
        assert_eq!(ac.stats().peak_active, 2);
    }

    #[test]
    fn node_semaphore_counts_both_sides() {
        let cfg = AdmissionConfig {
            max_node_migrations: 1,
            ..AdmissionConfig::UNLIMITED
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.admit(1, NodeId(0), NodeId(1), MB).unwrap();
        // Node 1 is busy as a destination, so it cannot be a source either.
        assert_eq!(
            ac.admit(2, NodeId(1), NodeId(2), MB),
            Err(AdmissionDenied::NodeBusy(NodeId(1)))
        );
        // An unrelated pair is fine.
        ac.admit(3, NodeId(2), NodeId(3), MB).unwrap();
        assert_eq!(ac.stats().denied_node, 1);
    }

    #[test]
    fn image_budget_sums_per_destination() {
        let cfg = AdmissionConfig {
            max_inflight_image_bytes: 100 * MB,
            ..AdmissionConfig::UNLIMITED
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.admit(1, NodeId(0), NodeId(9), 60 * MB).unwrap();
        ac.admit(2, NodeId(1), NodeId(9), 40 * MB).unwrap();
        assert_eq!(
            ac.admit(3, NodeId(2), NodeId(9), 1),
            Err(AdmissionDenied::ImageBudget {
                dst: NodeId(9),
                would_be: 100 * MB + 1
            })
        );
        // A different destination has its own budget.
        ac.admit(4, NodeId(2), NodeId(8), 100 * MB).unwrap();
        assert!(ac.release(2));
        ac.admit(5, NodeId(2), NodeId(9), 40 * MB).unwrap();
        assert_eq!(ac.inflight_image_bytes(NodeId(9)), 100 * MB);
        assert_eq!(ac.stats().peak_inflight_bytes, 100 * MB);
    }

    #[test]
    fn release_unknown_token_is_noop() {
        let mut ac = AdmissionControl::new(AdmissionConfig::UNLIMITED);
        assert!(!ac.release(77));
        ac.admit(1, NodeId(0), NodeId(1), MB).unwrap();
        assert!(ac.release(1));
        assert!(!ac.release(1));
        assert_eq!(ac.active_count(), 0);
    }
}
