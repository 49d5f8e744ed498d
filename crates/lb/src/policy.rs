//! The four load-distributing policies (§IV-A…D), as pure functions.

use crate::peers::PeerDb;
use dvelm_net::NodeId;
use dvelm_proc::Pid;
use dvelm_sim::{SimTime, MILLISECOND, SECOND};

/// Tunables of the load-balancing middleware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Sender transfer policy: critical absolute threshold, CPU %.
    pub high_threshold: f64,
    /// Sender transfer policy: trigger when `local - cluster_avg` exceeds
    /// this, CPU %.
    pub imbalance_delta: f64,
    /// Receiver transfer policy: accept only if own load is below the
    /// cluster average minus this margin, CPU %.
    pub receiver_margin: f64,
    /// Information policy: heartbeat broadcast period, µs.
    pub heartbeat_period_us: u64,
    /// Peers silent for longer than this are presumed gone, µs.
    pub peer_stale_us: u64,
    /// Calm-down period after a migration (both sides), µs.
    pub calm_down_us: u64,
    /// Give up on an unanswered migration request after this long, µs.
    pub negotiation_timeout_us: u64,
    /// Give up waiting for an accepted migration to finish after this, µs.
    pub migration_timeout_us: u64,
    /// Smallest process CPU share worth migrating, CPU %.
    pub min_process_share: f64,
    /// First retry of a failed migration waits this long; each further
    /// attempt doubles it (exponential backoff), µs.
    pub retry_backoff_base_us: u64,
    /// Total attempts (first + retries) before a migration is abandoned.
    pub retry_max_attempts: u32,
    /// A destination involved in a failed migration is not chosen again for
    /// this long, µs (each failure counts once toward
    /// `LbStats::migrations_failed`; the embargo itself is silent). The
    /// default is 30 s — partition tests shorten it so a healed destination
    /// becomes eligible again within the test window.
    pub blacklist_us: u64,
    /// Ownership-lease duration, µs: a destination's `Receiving`
    /// reservation (granted with `MigAccept`) expires this long after the
    /// grant, releasing the receiver on sender silence; symmetrically the
    /// sender only force-cancels a wedged transfer once both
    /// `migration_timeout_us` *and* the lease have run out, so a
    /// destination never resumes a process whose lease the sender already
    /// considers dead. Must exceed `migration_timeout_us`.
    pub lease_us: u64,
    /// A peer's load sample older than this many heartbeat periods is
    /// discarded for placement decisions — the node may have drifted
    /// arbitrarily far from the recorded value, so it is ineligible as a
    /// destination until a fresh sample arrives. `0` disables the check.
    pub load_fresh_factor: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            high_threshold: 88.0,
            imbalance_delta: 8.0,
            receiver_margin: 2.0,
            heartbeat_period_us: SECOND,
            peer_stale_us: 5 * SECOND,
            calm_down_us: 12 * SECOND,
            negotiation_timeout_us: 500 * MILLISECOND,
            migration_timeout_us: 10 * SECOND,
            min_process_share: 0.5,
            retry_backoff_base_us: 2 * SECOND,
            retry_max_attempts: 3,
            blacklist_us: 30 * SECOND,
            lease_us: 15 * SECOND,
            load_fresh_factor: 2,
        }
    }
}

impl PolicyConfig {
    /// **Transfer policy, sender side** (§IV-A): enter the migration
    /// initiator state when local load is over the critical threshold or
    /// further above the approximated cluster average than the allowed
    /// imbalance.
    pub fn should_initiate(&self, local_cpu: f64, cluster_avg: f64) -> bool {
        local_cpu > self.high_threshold || local_cpu - cluster_avg > self.imbalance_delta
    }

    /// **Transfer policy, receiver side** (§IV-A): whether a node should
    /// accept an incoming migration given its own state.
    pub fn should_accept(&self, local_cpu: f64, cluster_avg: f64) -> bool {
        local_cpu < cluster_avg - self.receiver_margin
    }

    /// Freshness window for peer load samples, µs.
    pub fn load_fresh_us(&self) -> u64 {
        if self.load_fresh_factor == 0 {
            u64::MAX
        } else {
            (self.load_fresh_factor as u64).saturating_mul(self.heartbeat_period_us)
        }
    }

    /// **Location policy** (§IV-B): find the peer whose load index is on the
    /// opposite side of the cluster average — ideally about as much lighter
    /// as the sender is heavier, so both converge to the average after the
    /// migration. Returns the peer minimizing the distance to that mirror
    /// target, restricted to peers below the average. Peers in `exclude`
    /// (blacklisted after a failed migration) are never chosen, and neither
    /// is a peer whose load sample is stale at `now` (see
    /// `load_fresh_factor`).
    pub fn choose_destination_at(
        &self,
        now: SimTime,
        local_cpu: f64,
        cluster_avg: f64,
        peers: &PeerDb,
        exclude: &[NodeId],
    ) -> Option<NodeId> {
        let fresh_us = self.load_fresh_us();
        let target = cluster_avg - (local_cpu - cluster_avg);
        peers
            .iter()
            .filter(|li| !exclude.contains(&li.node))
            .filter(|li| li.is_fresh(now, fresh_us))
            .filter(|li| li.cpu_pct < cluster_avg - self.receiver_margin)
            .min_by(|a, b| {
                let da = (a.cpu_pct - target).abs();
                let db = (b.cpu_pct - target).abs();
                da.partial_cmp(&db).expect("CPU loads are finite")
            })
            .map(|li| li.node)
    }

    /// **Selection policy** (§IV-C): pick the process whose CPU consumption
    /// is closest to the difference between the local node and the cluster
    /// average (again aiming both nodes at the average). Processes below
    /// `min_process_share` are not worth their migration cost.
    pub fn choose_process(
        &self,
        local_cpu: f64,
        cluster_avg: f64,
        procs: &[(Pid, f64)],
    ) -> Option<Pid> {
        let target = (local_cpu - cluster_avg).max(0.0);
        procs
            .iter()
            .filter(|(_, share)| *share >= self.min_process_share)
            .min_by(|a, b| {
                let da = (a.1 - target).abs();
                let db = (b.1 - target).abs();
                da.partial_cmp(&db).expect("CPU shares are finite")
            })
            .map(|(pid, _)| *pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::LoadInfo;
    use dvelm_sim::SimTime;

    fn peers(loads: &[(u32, f64)]) -> PeerDb {
        let mut db = PeerDb::new();
        for (n, c) in loads {
            db.update(LoadInfo::new(NodeId(*n), *c, 20, SimTime::ZERO));
        }
        db
    }

    #[test]
    fn sender_triggers_on_threshold_or_imbalance() {
        let cfg = PolicyConfig::default();
        assert!(cfg.should_initiate(90.0, 89.0), "over absolute threshold");
        assert!(cfg.should_initiate(80.0, 70.0), "over imbalance delta");
        assert!(!cfg.should_initiate(80.0, 78.0), "balanced enough");
    }

    #[test]
    fn receiver_accepts_only_below_average() {
        let cfg = PolicyConfig::default();
        assert!(cfg.should_accept(60.0, 75.0));
        assert!(!cfg.should_accept(74.5, 75.0), "inside the margin");
        assert!(!cfg.should_accept(80.0, 75.0));
    }

    #[test]
    fn location_picks_mirror_image_peer() {
        let cfg = PolicyConfig::default();
        // local 90, avg 75 → target 60. Peers at 73, 62, 40: 62 is closest
        // to the mirror target.
        let db = peers(&[(1, 73.0), (2, 62.0), (3, 40.0)]);
        assert_eq!(
            cfg.choose_destination_at(SimTime::ZERO, 90.0, 75.0, &db, &[]),
            Some(NodeId(2))
        );
    }

    #[test]
    fn location_ignores_peers_at_or_above_average() {
        let cfg = PolicyConfig::default();
        // avg 85, margin 2 → only peers below 83 qualify; none do.
        let db = peers(&[(1, 84.0), (2, 90.0)]);
        assert_eq!(
            cfg.choose_destination_at(SimTime::ZERO, 95.0, 85.0, &db, &[]),
            None
        );
    }

    #[test]
    fn fault_location_skips_blacklisted_peers() {
        let cfg = PolicyConfig::default();
        let db = peers(&[(1, 73.0), (2, 62.0), (3, 40.0)]);
        // The mirror-image peer (node 2) is blacklisted: the next-best
        // qualifying peer wins instead.
        assert_eq!(
            cfg.choose_destination_at(SimTime::ZERO, 90.0, 75.0, &db, &[NodeId(2)]),
            Some(NodeId(3))
        );
        // Everyone blacklisted: nowhere to go.
        assert_eq!(
            cfg.choose_destination_at(
                SimTime::ZERO,
                90.0,
                75.0,
                &db,
                &[NodeId(1), NodeId(2), NodeId(3)]
            ),
            None
        );
    }

    #[test]
    fn stale_sample_makes_peer_ineligible() {
        let cfg = PolicyConfig::default();
        let mut db = PeerDb::new();
        // Node 2 would be the mirror pick, but its sample is ancient.
        db.update(LoadInfo::new(NodeId(1), 70.0, 20, SimTime::from_secs(10)));
        db.update(LoadInfo::new(NodeId(2), 62.0, 20, SimTime::ZERO));
        let now = SimTime::from_secs(10);
        assert_eq!(
            cfg.choose_destination_at(now, 90.0, 75.0, &db, &[]),
            Some(NodeId(1)),
            "stale node 2 skipped"
        );
        // With the check disabled, staleness is ignored.
        let lax = PolicyConfig {
            load_fresh_factor: 0,
            ..cfg
        };
        assert_eq!(
            lax.choose_destination_at(now, 90.0, 75.0, &db, &[]),
            Some(NodeId(2))
        );
    }

    #[test]
    fn selection_matches_excess_load() {
        let cfg = PolicyConfig::default();
        let procs = vec![(Pid(1), 2.0), (Pid(2), 9.5), (Pid(3), 30.0)];
        // local 85, avg 75 → want ≈10% → Pid(2).
        assert_eq!(cfg.choose_process(85.0, 75.0, &procs), Some(Pid(2)));
    }

    #[test]
    fn selection_skips_trivial_processes() {
        let cfg = PolicyConfig::default();
        let procs = vec![(Pid(1), 0.1), (Pid(2), 0.2)];
        assert_eq!(cfg.choose_process(95.0, 70.0, &procs), None);
    }

    #[test]
    fn selection_on_empty_list() {
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.choose_process(95.0, 70.0, &[]), None);
    }
}
