//! Cluster-wide migration admission control.
//!
//! The paper's conductor protocol already serialises migrations pairwise
//! (one in-flight migration per sender/receiver, two-phase commit), but
//! nothing bounds what the *cluster* commits to at once: under a thundering
//! herd every overloaded node picks the same few light peers and the
//! receivers' memory fills with in-flight checkpoint images. The
//! [`AdmissionControl`] gate is the single authority the runtime consults
//! before a migration is allowed to start, checking its budgets against the
//! migrations the runtime has in flight:
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

/// Counters kept by the admission gate, for tests and reporting.
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

/// The admission gate: the budgets and the counters of what they did. It
/// keeps no ledger of its own — the caller passes the migrations it has in
/// flight, so the budgets are checked against the one record of them.
#[derive(Debug, Clone, Default)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    stats: AdmissionStats,
}

impl AdmissionControl {
    pub fn new(cfg: AdmissionConfig) -> AdmissionControl {
        AdmissionControl {
            cfg,
            stats: AdmissionStats::default(),
        }
    }

    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Admit a migration of `image_bytes` from `src` to `dst` alongside
    /// the migrations already `in_flight`, each given as `(src, dst,
    /// image_bytes it was admitted with)`. `image_bytes` is the caller's
    /// upper-bound estimate of the checkpoint image (the gate exists to
    /// prevent overload, so it budgets against the worst case, not the
    /// post-precopy residue); the caller keeps it with the migration.
    pub fn admit(
        &mut self,
        in_flight: impl IntoIterator<Item = (NodeId, NodeId, u64)>,
        src: NodeId,
        dst: NodeId,
        image_bytes: u64,
    ) -> Result<(), AdmissionDenied> {
        let (mut active, mut on_src, mut on_dst, mut dst_bytes) = (0, 0, 0, 0u64);
        for (s, d, bytes) in in_flight {
            active += 1;
            on_src += usize::from(s == src || d == src);
            on_dst += usize::from(s == dst || d == dst);
            if d == dst {
                dst_bytes += bytes;
            }
        }
        let would_be = dst_bytes.saturating_add(image_bytes);
        let denied = if active >= self.cfg.max_cluster_migrations {
            Some(AdmissionDenied::ClusterBusy)
        } else if on_src >= self.cfg.max_node_migrations {
            Some(AdmissionDenied::NodeBusy(src))
        } else if on_dst >= self.cfg.max_node_migrations {
            Some(AdmissionDenied::NodeBusy(dst))
        } else if would_be > self.cfg.max_inflight_image_bytes {
            Some(AdmissionDenied::ImageBudget { dst, would_be })
        } else {
            None
        };
        if let Some(denied) = denied {
            match denied {
                AdmissionDenied::ClusterBusy => self.stats.denied_cluster += 1,
                AdmissionDenied::NodeBusy(_) => self.stats.denied_node += 1,
                AdmissionDenied::ImageBudget { .. } => self.stats.denied_image += 1,
            }
            return Err(denied);
        }
        self.stats.admitted += 1;
        self.stats.peak_active = self.stats.peak_active.max(active + 1);
        self.stats.peak_inflight_bytes = self.stats.peak_inflight_bytes.max(would_be);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    /// The migrations in flight, as a runtime keeps them: `(id, src, dst,
    /// image_bytes)`.
    #[derive(Default)]
    struct Live(Vec<(u64, NodeId, NodeId, u64)>);

    impl Live {
        fn admit(
            &mut self,
            ac: &mut AdmissionControl,
            id: u64,
            src: NodeId,
            dst: NodeId,
            image_bytes: u64,
        ) -> Result<(), AdmissionDenied> {
            let in_flight = self.0.iter().map(|&(_, s, d, b)| (s, d, b));
            ac.admit(in_flight, src, dst, image_bytes)?;
            self.0.push((id, src, dst, image_bytes));
            Ok(())
        }

        fn finish(&mut self, id: u64) {
            self.0.retain(|e| e.0 != id);
        }
    }

    #[test]
    fn unlimited_admits_everything() {
        let mut ac = AdmissionControl::new(AdmissionConfig::UNLIMITED);
        let mut live = Live::default();
        for t in 0..64 {
            live.admit(&mut ac, t, NodeId(0), NodeId(1), 100 * MB)
                .unwrap();
        }
        assert_eq!(ac.stats().admitted, 64);
        assert_eq!(ac.stats().peak_active, 64);
    }

    #[test]
    fn cluster_semaphore_bounds_concurrency() {
        let cfg = AdmissionConfig {
            max_cluster_migrations: 2,
            ..AdmissionConfig::UNLIMITED
        };
        let mut ac = AdmissionControl::new(cfg);
        let mut live = Live::default();
        live.admit(&mut ac, 1, NodeId(0), NodeId(1), MB).unwrap();
        live.admit(&mut ac, 2, NodeId(2), NodeId(3), MB).unwrap();
        assert_eq!(
            live.admit(&mut ac, 3, NodeId(4), NodeId(5), MB),
            Err(AdmissionDenied::ClusterBusy)
        );
        live.finish(1);
        live.admit(&mut ac, 3, NodeId(4), NodeId(5), MB).unwrap();
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
        let mut live = Live::default();
        live.admit(&mut ac, 1, NodeId(0), NodeId(1), MB).unwrap();
        // Node 1 is busy as a destination, so it cannot be a source either.
        assert_eq!(
            live.admit(&mut ac, 2, NodeId(1), NodeId(2), MB),
            Err(AdmissionDenied::NodeBusy(NodeId(1)))
        );
        // An unrelated pair is fine.
        live.admit(&mut ac, 3, NodeId(2), NodeId(3), MB).unwrap();
        assert_eq!(ac.stats().denied_node, 1);
    }

    #[test]
    fn image_budget_sums_per_destination() {
        let cfg = AdmissionConfig {
            max_inflight_image_bytes: 100 * MB,
            ..AdmissionConfig::UNLIMITED
        };
        let mut ac = AdmissionControl::new(cfg);
        let mut live = Live::default();
        live.admit(&mut ac, 1, NodeId(0), NodeId(9), 60 * MB)
            .unwrap();
        live.admit(&mut ac, 2, NodeId(1), NodeId(9), 40 * MB)
            .unwrap();
        assert_eq!(
            live.admit(&mut ac, 3, NodeId(2), NodeId(9), 1),
            Err(AdmissionDenied::ImageBudget {
                dst: NodeId(9),
                would_be: 100 * MB + 1
            })
        );
        // A different destination has its own budget.
        live.admit(&mut ac, 4, NodeId(2), NodeId(8), 100 * MB)
            .unwrap();
        live.finish(2);
        live.admit(&mut ac, 5, NodeId(2), NodeId(9), 40 * MB)
            .unwrap();
        assert_eq!(ac.stats().peak_inflight_bytes, 100 * MB);
    }
}
