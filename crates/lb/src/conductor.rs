//! The conductor daemon state machine (`cond` in Fig. 2).
//!
//! Responsibilities per §II-B and §IV: discover peers on the local network,
//! answer discovery messages, broadcast the node's load periodically, track
//! every peer's latest load, decide when to initiate a migration (transfer +
//! location + selection policies), run the receiver side of the two-phase
//! commit, and instrument the migration daemon (`migd`) — here represented
//! by the [`LbEffect::StartMigration`] output.
//!
//! # Epoch/lease ownership protocol
//!
//! The 2-phase commit assumes nothing about the network: control messages
//! may be lost, duplicated, reordered, or cut off by a partition. Safety
//! (never two live copies of one pid) rests on three rules:
//!
//! * **Epochs** — every negotiation for a pid carries an epoch from
//!   `Conductor::next_epoch`: one more than the highest epoch this node
//!   has ever witnessed for that pid (proposal and witness share one fence
//!   table, so epochs are monotone per pid across retries *and* across
//!   ownership transfers — a receiver witnesses the epoch it accepts, so
//!   when it later initiates as the owner it proposes a strictly larger
//!   one). Handlers reject any message carrying an epoch at or below the
//!   fence unless it matches their current negotiation exactly, which
//!   makes every arm idempotent under duplication and safe under
//!   reordering.
//! * **Leases** — an accept reserves the receiver only until
//!   `now + lease_us`. On sender silence (lost accept, partition, sender
//!   death) the reservation expires on its own and the receiver returns to
//!   `Idle`; symmetrically, the sender only force-cancels a wedged
//!   transfer ([`LbEffect::CancelMigration`]) once both the migration
//!   timeout *and* the lease have run out, so there is no instant at which
//!   the sender has given up while the destination may still legitimately
//!   resume the process.
//! * **Fencing** — before the runtime resumes a migrated process on the
//!   destination it asks the destination's conductor
//!   [`Conductor::restore_allowed`]: the restore proceeds only under a
//!   live, epoch-matching reservation. A stale transfer surfacing after a
//!   partition heal is refused (`AbortReason::FencedStaleEpoch` in the
//!   runtime) and the process stays where its lease says it lives.

use crate::info::{LoadInfo, LOAD_INFO_BYTES};
use crate::peers::PeerDb;
use crate::policy::PolicyConfig;
use crate::spanning::{tree_children, Dissemination};
use dvelm_net::NodeId;
use dvelm_proc::Pid;
use dvelm_sim::SimTime;
use std::collections::BTreeMap;

/// Conductor-to-conductor messages. Migration-protocol messages carry the
/// pid and ownership epoch they belong to, so every handler can tell a live
/// negotiation from a duplicated or reordered stale one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LbMsg {
    /// Discovery probe broadcast at startup.
    Hello(LoadInfo),
    /// Answer to a discovery probe.
    HelloReply(LoadInfo),
    /// Periodic load broadcast (information policy + liveness).
    Heartbeat(LoadInfo),
    /// Two-phase commit, phase one: "may I migrate this process to you?"
    MigRequest {
        pid: Pid,
        epoch: u64,
        share: f64,
        sender_load: f64,
    },
    /// Accept: reserves the receiver for this (pid, epoch) until
    /// `lease_until`.
    MigAccept {
        pid: Pid,
        epoch: u64,
        lease_until: SimTime,
    },
    /// Reject the identified negotiation.
    MigReject { pid: Pid, epoch: u64 },
    /// Migration finished (releases the receiver into calm-down, if it
    /// still holds the matching reservation).
    MigDone { pid: Pid, epoch: u64, success: bool },
    /// Graceful leave.
    Leave,
}

impl LbMsg {
    /// On-wire size for network accounting.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            LbMsg::Hello(_) | LbMsg::HelloReply(_) | LbMsg::Heartbeat(_) => LOAD_INFO_BYTES,
            LbMsg::MigRequest { .. } => 48,
            LbMsg::MigAccept { .. } => 40,
            LbMsg::MigReject { .. } | LbMsg::MigDone { .. } => 32,
            LbMsg::Leave => 16,
        }
    }
}

/// How aggressive a socket-migration strategy the conductor asks the
/// migration daemon for. Independent of the daemon's strategy vocabulary
/// (this crate cannot depend on it): the runtime maps the preference onto
/// its configured strategy, never exceeding it. Retries degrade one level
/// per failed attempt — if socket diff tracking (the incremental-collective
/// optimization) is what faults, the plain collective transfer still goes
/// through, and per-socket iteration is the conservative last resort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyPreference {
    /// Full speed: socket deltas shipped during precopy.
    Incremental,
    /// No socket diff tracking: one collective transfer in the freeze phase.
    Collective,
    /// Per-socket iteration — slowest, fewest moving parts.
    Iterative,
}

impl StrategyPreference {
    /// The preference for attempt `n` (1-based): full speed first, one
    /// degradation per retry.
    pub fn for_attempt(n: u32) -> StrategyPreference {
        match n {
            0 | 1 => StrategyPreference::Incremental,
            2 => StrategyPreference::Collective,
            _ => StrategyPreference::Iterative,
        }
    }
}

/// What the runtime must do for the conductor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LbEffect {
    /// Broadcast on the local network to all peers.
    Broadcast(LbMsg),
    /// Unicast to one peer.
    Send(NodeId, LbMsg),
    /// Hand the process to the migration daemon, destination decided.
    /// `epoch` is the negotiation's ownership epoch; the daemon threads it
    /// through to the restore fence on the destination.
    StartMigration {
        pid: Pid,
        dest: NodeId,
        prefer: StrategyPreference,
        epoch: u64,
    },
    /// Tell the migration daemon to abort the in-flight migration of
    /// `pid` (epoch-matched): both the migration timeout and the
    /// destination's lease have expired, so the destination can no longer
    /// legitimately resume the process. The conductor stays in `Sending`
    /// until the daemon reports back through
    /// [`Conductor::on_migration_finished`].
    CancelMigration { pid: Pid, epoch: u64 },
}

/// Migration-protocol state of a conductor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConductorPhase {
    /// Not involved in any migration.
    Idle,
    /// Sent a MigRequest, waiting for the answer.
    AwaitingAccept {
        dest: NodeId,
        pid: Pid,
        epoch: u64,
        since: SimTime,
    },
    /// Sender side of a running migration. `lease_until` is the
    /// destination's reservation deadline, echoed back in its accept.
    Sending {
        dest: NodeId,
        pid: Pid,
        epoch: u64,
        since: SimTime,
        lease_until: SimTime,
    },
    /// Receiver side of a running migration (reserved by the 2-phase
    /// commit; accepts no second migration). The reservation is a lease:
    /// it expires at `lease_until` if the sender goes silent.
    Receiving {
        from: NodeId,
        pid: Pid,
        epoch: u64,
        since: SimTime,
        lease_until: SimTime,
    },
    /// Stabilizing after a migration; initiates and accepts nothing.
    CalmDown { until: SimTime },
}

/// Counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LbStats {
    pub heartbeats_sent: u64,
    pub requests_sent: u64,
    pub requests_accepted: u64,
    pub requests_rejected: u64,
    pub migrations_completed: u64,
    pub migrations_failed: u64,
    /// Retry attempts fired after a failed migration.
    pub retries: u64,
    /// Migrations given up after `retry_max_attempts` failed attempts.
    pub migrations_abandoned: u64,
    /// Migration intents parked because every viable destination sat above
    /// the admission high-water mark.
    pub deferrals: u64,
    /// Deferred intents later promoted into a real migration request.
    pub deferred_promoted: u64,
    /// Deferred intents shed because the bounded queue overflowed.
    pub deferred_shed: u64,
    /// Receiver-side reservations that expired on sender silence (lost
    /// accept, partition, sender death) before a matching `MigDone`.
    pub leases_expired: u64,
}

/// A failed migration waiting for its backoff to elapse.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RetryState {
    pid: Pid,
    /// Failed attempts so far (the next attempt is number `failures + 1`).
    failures: u32,
    /// Earliest instant the retry may fire.
    not_before: SimTime,
}

/// A migration intent parked by admission control: the transfer policy
/// fired, but every viable destination was above the high-water mark.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Deferred {
    pid: Pid,
    /// The process's CPU share when deferred — doubles as the priority
    /// when the bounded queue must shed.
    share: f64,
    since: SimTime,
}

/// The conductor daemon of one node.
#[derive(Debug)]
pub struct Conductor {
    pub node: NodeId,
    pub cfg: PolicyConfig,
    pub peers: PeerDb,
    /// Heartbeat dissemination strategy (§IV information policy; the
    /// spanning tree is the scalable option the paper cites as out of
    /// scope).
    pub dissemination: Dissemination,
    phase: ConductorPhase,
    last_heartbeat: Option<SimTime>,
    stats: LbStats,
    /// Destinations of failed migrations, embargoed until the instant.
    blacklist: Vec<(NodeId, SimTime)>,
    /// At most one failed migration awaits retry at a time (the conductor
    /// runs at most one migration at a time to begin with).
    retry: Option<RetryState>,
    /// Migration intents waiting for a destination to drain below the
    /// admission high-water mark. Bounded by `cfg.max_deferred`.
    deferred: Vec<Deferred>,
    /// Highest ownership epoch witnessed per pid — proposals and received
    /// messages both raise it (one table serves as proposal counter *and*
    /// fence, see the module docs). Messages at or below the fence that do
    /// not match the current negotiation are stale.
    fence: BTreeMap<Pid, u64>,
}

impl Conductor {
    /// A conductor for `node`.
    pub fn new(node: NodeId, cfg: PolicyConfig) -> Conductor {
        Conductor {
            node,
            cfg,
            peers: PeerDb::new(),
            dissemination: Dissemination::FlatBroadcast,
            phase: ConductorPhase::Idle,
            last_heartbeat: None,
            stats: LbStats::default(),
            blacklist: Vec::new(),
            retry: None,
            deferred: Vec::new(),
            fence: BTreeMap::new(),
        }
    }

    /// Current protocol phase.
    pub fn phase(&self) -> ConductorPhase {
        self.phase
    }

    /// Counters.
    pub fn stats(&self) -> LbStats {
        self.stats
    }

    /// Highest ownership epoch witnessed for `pid` (0 if never seen).
    pub fn fence_of(&self, pid: Pid) -> u64 {
        self.fence.get(&pid).copied().unwrap_or(0)
    }

    /// Propose the next ownership epoch for `pid` and raise the fence to
    /// it, so a duplicated echo of this very proposal is already stale and
    /// every later proposal is strictly larger.
    fn next_epoch(&mut self, pid: Pid) -> u64 {
        let e = self.fence_of(pid) + 1;
        self.fence.insert(pid, e);
        e
    }

    /// Raise the fence for `pid` to at least `epoch`.
    fn witness_epoch(&mut self, pid: Pid, epoch: u64) {
        let f = self.fence.entry(pid).or_insert(0);
        if epoch > *f {
            *f = epoch;
        }
    }

    /// Restore fence: may the runtime resume `pid` here under `epoch`?
    /// True only while this conductor holds the matching `Receiving`
    /// reservation and its lease is still live — a transfer surfacing
    /// after its lease expired (or after a newer negotiation superseded
    /// it) must be refused, or a partition heal could yield two live
    /// copies.
    pub fn restore_allowed(&self, pid: Pid, epoch: u64, now: SimTime) -> bool {
        matches!(
            self.phase,
            ConductorPhase::Receiving {
                pid: p,
                epoch: e,
                lease_until,
                ..
            } if p == pid && e == epoch && now <= lease_until
        )
    }

    /// Destinations currently embargoed after failed migrations.
    pub fn blacklisted(&self, now: SimTime) -> Vec<NodeId> {
        self.blacklist
            .iter()
            .filter(|(_, until)| *until > now)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Park an intent; the bounded queue sheds the lowest-priority entry
    /// (smallest CPU share — the candidate itself, if it is smallest).
    fn defer(&mut self, pid: Pid, share: f64, now: SimTime) {
        self.stats.deferrals += 1;
        self.deferred.push(Deferred {
            pid,
            share,
            since: now,
        });
        while self.deferred.len() > self.cfg.max_deferred {
            let min_i = self
                .deferred
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.share
                        .partial_cmp(&b.1.share)
                        .expect("CPU shares are finite")
                        // Equal shares: shed the youngest intent.
                        .then(b.1.since.cmp(&a.1.since))
                })
                .map(|(i, _)| i)
                .expect("queue is non-empty");
            self.deferred.remove(min_i);
            self.stats.deferred_shed += 1;
        }
    }

    /// Exponential backoff before attempt `failures + 1`.
    fn backoff_us(&self, failures: u32) -> u64 {
        self.cfg
            .retry_backoff_base_us
            .saturating_mul(1u64 << failures.saturating_sub(1).min(16))
    }

    /// The known membership (self + peers), for tree construction.
    fn members(&self) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self.peers.iter().map(|li| li.node).collect();
        m.push(self.node);
        m
    }

    /// Node start: scan the local network for other conductors (§IV).
    pub fn on_start(&mut self, local: LoadInfo) -> Vec<LbEffect> {
        vec![LbEffect::Broadcast(LbMsg::Hello(local))]
    }

    /// Periodic tick (the runtime calls this at least once per heartbeat
    /// period, with a fresh local load sample and the process list).
    pub fn on_tick(
        &mut self,
        now: SimTime,
        local: LoadInfo,
        procs: &[(Pid, f64)],
    ) -> Vec<LbEffect> {
        let mut effects = Vec::new();
        self.peers.expire(now, self.cfg.peer_stale_us);
        self.blacklist.retain(|(_, until)| *until > now);

        // Information policy: periodic broadcast, doubling as heartbeat.
        let due = match self.last_heartbeat {
            None => true,
            Some(t) => now.saturating_since(t) >= self.cfg.heartbeat_period_us,
        };
        if due {
            self.last_heartbeat = Some(now);
            self.stats.heartbeats_sent += 1;
            match self.dissemination {
                Dissemination::FlatBroadcast => {
                    effects.push(LbEffect::Broadcast(LbMsg::Heartbeat(local)));
                }
                Dissemination::SpanningTree => {
                    // Root of the tree: send only to our children; they
                    // relay on reception.
                    for child in tree_children(&self.members(), self.node, self.node) {
                        effects.push(LbEffect::Send(child, LbMsg::Heartbeat(local)));
                    }
                }
            }
        }

        // Phase timeouts / expiry.
        match self.phase {
            ConductorPhase::AwaitingAccept { since, .. }
                if now.saturating_since(since) > self.cfg.negotiation_timeout_us =>
            {
                self.phase = ConductorPhase::Idle;
            }
            // Receiver lease expiry: the sender went silent (lost accept,
            // partition, death) — the reservation dissolves on its own.
            ConductorPhase::Receiving { lease_until, .. } if now > lease_until => {
                self.stats.leases_expired += 1;
                self.phase = ConductorPhase::Idle;
            }
            // Sender force-cancel: only once BOTH the migration timeout and
            // the destination's lease have expired may the transfer be torn
            // down — before the lease runs out the destination could still
            // legitimately resume the process, and cancelling would race
            // that restore. The phase stays `Sending`; the daemon's abort
            // reports back through `on_migration_finished`, which performs
            // the transition (and blacklist/retry bookkeeping).
            ConductorPhase::Sending {
                pid,
                epoch,
                since,
                lease_until,
                ..
            } if now.saturating_since(since) > self.cfg.migration_timeout_us
                && now > lease_until =>
            {
                effects.push(LbEffect::CancelMigration { pid, epoch });
            }
            ConductorPhase::CalmDown { until } if now >= until => {
                self.phase = ConductorPhase::Idle;
            }
            _ => {}
        }

        // Retry policy: a failed migration whose backoff elapsed bypasses
        // the transfer policy — the decision to move the process already
        // fell; only the destination (and strategy preference) may change.
        if self.phase == ConductorPhase::Idle {
            if let Some(retry) = self.retry {
                if now >= retry.not_before {
                    let avg = self.peers.cluster_average(local.cpu_pct);
                    let exclude = self.blacklisted(now);
                    let dest = self.cfg.choose_destination_at(
                        now,
                        local.cpu_pct,
                        avg,
                        &self.peers,
                        &exclude,
                    );
                    let share = procs.iter().find(|(p, _)| *p == retry.pid).map(|(_, s)| *s);
                    match (dest, share) {
                        (Some(dest), Some(share)) => {
                            let epoch = self.next_epoch(retry.pid);
                            self.phase = ConductorPhase::AwaitingAccept {
                                dest,
                                pid: retry.pid,
                                epoch,
                                since: now,
                            };
                            self.stats.retries += 1;
                            self.stats.requests_sent += 1;
                            effects.push(LbEffect::Send(
                                dest,
                                LbMsg::MigRequest {
                                    pid: retry.pid,
                                    epoch,
                                    share,
                                    sender_load: local.cpu_pct,
                                },
                            ));
                        }
                        (None, Some(_)) => {
                            // Nowhere to go right now: wait one more backoff
                            // without burning an attempt.
                            self.retry = Some(RetryState {
                                not_before: now + self.backoff_us(retry.failures),
                                ..retry
                            });
                        }
                        (_, None) => {
                            // The process is gone (killed, or moved some
                            // other way): nothing left to retry.
                            self.retry = None;
                        }
                    }
                    return effects;
                }
            }
        }

        // Deferred intents: the transfer policy already fired for these;
        // only a congested destination held them back. The moment a fresh
        // sample shows a drained receiver, the highest-priority intent is
        // promoted (it owns the Idle slot ahead of fresh policy decisions).
        if self.phase == ConductorPhase::Idle && self.retry.is_none() && !self.deferred.is_empty() {
            self.deferred
                .retain(|d| procs.iter().any(|(p, _)| *p == d.pid));
            let avg = self.peers.cluster_average(local.cpu_pct);
            let exclude = self.blacklisted(now);
            if let Some(dest) =
                self.cfg
                    .choose_destination_at(now, local.cpu_pct, avg, &self.peers, &exclude)
            {
                if let Some(max_i) = self
                    .deferred
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        a.1.share
                            .partial_cmp(&b.1.share)
                            .expect("CPU shares are finite")
                            // Equal shares: promote the oldest intent.
                            .then(b.1.since.cmp(&a.1.since))
                    })
                    .map(|(i, _)| i)
                {
                    let d = self.deferred.remove(max_i);
                    self.stats.deferred_promoted += 1;
                    self.stats.requests_sent += 1;
                    let epoch = self.next_epoch(d.pid);
                    self.phase = ConductorPhase::AwaitingAccept {
                        dest,
                        pid: d.pid,
                        epoch,
                        since: now,
                    };
                    effects.push(LbEffect::Send(
                        dest,
                        LbMsg::MigRequest {
                            pid: d.pid,
                            epoch,
                            share: d.share,
                            sender_load: local.cpu_pct,
                        },
                    ));
                    return effects;
                }
            }
        }

        // Transfer policy, sender side. A pending retry owns the conductor's
        // single migration slot — no fresh migration starts under it.
        if self.phase == ConductorPhase::Idle && self.retry.is_none() {
            let avg = self.peers.cluster_average(local.cpu_pct);
            if self.cfg.should_initiate(local.cpu_pct, avg) {
                let exclude = self.blacklisted(now);
                // A deferred intent owns its process; the selection policy
                // only considers the rest.
                let eligible: Vec<(Pid, f64)> = procs
                    .iter()
                    .copied()
                    .filter(|(p, _)| !self.deferred.iter().any(|d| d.pid == *p))
                    .collect();
                if let Some(pid) = self.cfg.choose_process(local.cpu_pct, avg, &eligible) {
                    let share = eligible
                        .iter()
                        .find(|(p, _)| *p == pid)
                        .map(|(_, s)| *s)
                        .expect("selected pid comes from procs");
                    match self.cfg.choose_destination_at(
                        now,
                        local.cpu_pct,
                        avg,
                        &self.peers,
                        &exclude,
                    ) {
                        Some(dest) => {
                            let epoch = self.next_epoch(pid);
                            self.phase = ConductorPhase::AwaitingAccept {
                                dest,
                                pid,
                                epoch,
                                since: now,
                            };
                            self.stats.requests_sent += 1;
                            effects.push(LbEffect::Send(
                                dest,
                                LbMsg::MigRequest {
                                    pid,
                                    epoch,
                                    share,
                                    sender_load: local.cpu_pct,
                                },
                            ));
                        }
                        None if self
                            .cfg
                            .viable_but_congested(now, avg, &self.peers, &exclude) =>
                        {
                            self.defer(pid, share, now);
                        }
                        None => {}
                    }
                }
            }
        }
        effects
    }

    /// A message arrived from a peer conductor.
    pub fn on_msg(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: LbMsg,
        local: LoadInfo,
    ) -> Vec<LbEffect> {
        // An expired calm-down ends at the next event, whichever comes
        // first — a tick or an incoming request.
        if let ConductorPhase::CalmDown { until } = self.phase {
            if now >= until {
                self.phase = ConductorPhase::Idle;
            }
        }
        match msg {
            LbMsg::Hello(info) => {
                self.peers.update(info);
                vec![LbEffect::Send(from, LbMsg::HelloReply(local))]
            }
            LbMsg::HelloReply(info) => {
                self.peers.update(info);
                Vec::new()
            }
            LbMsg::Heartbeat(info) => {
                self.peers.update(info);
                match self.dissemination {
                    Dissemination::FlatBroadcast => Vec::new(),
                    Dissemination::SpanningTree => {
                        // Relay down the tree rooted at the heartbeat's
                        // origin.
                        tree_children(&self.members(), info.node, self.node)
                            .into_iter()
                            .map(|child| LbEffect::Send(child, LbMsg::Heartbeat(info)))
                            .collect()
                    }
                }
            }
            LbMsg::MigRequest {
                pid,
                epoch,
                share: _,
                sender_load: _,
            } => {
                if let ConductorPhase::Receiving {
                    from: f,
                    pid: p,
                    epoch: e,
                    lease_until,
                    ..
                } = self.phase
                {
                    // Duplicate of the request that granted the current
                    // reservation: re-send the same accept, touch nothing.
                    if f == from && p == pid && e == epoch {
                        return vec![LbEffect::Send(
                            from,
                            LbMsg::MigAccept {
                                pid,
                                epoch,
                                lease_until,
                            },
                        )];
                    }
                    // A strictly newer epoch from the same sender for the
                    // same pid supersedes the reservation it already holds
                    // (its earlier accept was lost and it re-proposed):
                    // re-grant under the new epoch with a fresh lease. No
                    // counters — this is one logical reservation renewed,
                    // not a second one granted.
                    if f == from && p == pid && epoch > e {
                        self.witness_epoch(pid, epoch);
                        let lease_until = now + self.cfg.lease_us;
                        self.phase = ConductorPhase::Receiving {
                            from,
                            pid,
                            epoch,
                            since: now,
                            lease_until,
                        };
                        return vec![LbEffect::Send(
                            from,
                            LbMsg::MigAccept {
                                pid,
                                epoch,
                                lease_until,
                            },
                        )];
                    }
                }
                // Stale epoch: a duplicated or reordered leftover of an
                // older negotiation. Echo a reject (idempotent — the sender
                // only honours epoch-matching answers) without touching
                // stats, so a duplicated trace leaves identical counters.
                if epoch <= self.fence_of(pid) {
                    return vec![LbEffect::Send(from, LbMsg::MigReject { pid, epoch })];
                }
                self.witness_epoch(pid, epoch);
                // Receiver transfer policy: one migration at a time, not in
                // calm-down, and genuinely below the cluster average.
                let avg = self.peers.cluster_average(local.cpu_pct);
                let accept = self.phase == ConductorPhase::Idle
                    && self.cfg.should_accept(local.cpu_pct, avg);
                if accept {
                    let lease_until = now + self.cfg.lease_us;
                    self.phase = ConductorPhase::Receiving {
                        from,
                        pid,
                        epoch,
                        since: now,
                        lease_until,
                    };
                    self.stats.requests_accepted += 1;
                    vec![LbEffect::Send(
                        from,
                        LbMsg::MigAccept {
                            pid,
                            epoch,
                            lease_until,
                        },
                    )]
                } else {
                    self.stats.requests_rejected += 1;
                    vec![LbEffect::Send(from, LbMsg::MigReject { pid, epoch })]
                }
            }
            LbMsg::MigAccept {
                pid,
                epoch,
                lease_until,
            } => match self.phase {
                ConductorPhase::AwaitingAccept {
                    dest,
                    pid: p,
                    epoch: e,
                    since,
                } if dest == from && p == pid && e == epoch => {
                    self.phase = ConductorPhase::Sending {
                        dest,
                        pid,
                        epoch,
                        since,
                        lease_until,
                    };
                    // Retries ask for one level less of socket-migration
                    // machinery per failed attempt.
                    let prefer = match self.retry {
                        Some(r) if r.pid == pid => StrategyPreference::for_attempt(r.failures + 1),
                        _ => StrategyPreference::Incremental,
                    };
                    vec![LbEffect::StartMigration {
                        pid,
                        dest,
                        prefer,
                        epoch,
                    }]
                }
                // Duplicate of the accept that started the current
                // transfer: ignore (the old catch-all replied
                // `MigDone { success: false }` here, which would have
                // released the receiver mid-migration).
                ConductorPhase::Sending {
                    dest,
                    pid: p,
                    epoch: e,
                    ..
                } if dest == from && p == pid && e == epoch => Vec::new(),
                // Stale accept (we already timed out, or a newer epoch
                // superseded it): release exactly the reservation it names.
                // The receiver ignores the release unless it still holds
                // that (pid, epoch), so duplicates are harmless.
                _ => vec![LbEffect::Send(
                    from,
                    LbMsg::MigDone {
                        pid,
                        epoch,
                        success: false,
                    },
                )],
            },
            LbMsg::MigReject { pid, epoch } => {
                if let ConductorPhase::AwaitingAccept {
                    dest,
                    pid: p,
                    epoch: e,
                    ..
                } = self.phase
                {
                    if dest == from && p == pid && e == epoch {
                        self.phase = ConductorPhase::Idle;
                        // A rejected retry waits a flat base backoff before
                        // asking again — the rejection is the receiver's
                        // load talking, not a failure of ours.
                        if let Some(r) = self.retry {
                            if r.pid == pid {
                                self.retry = Some(RetryState {
                                    not_before: now + self.cfg.retry_backoff_base_us,
                                    ..r
                                });
                            }
                        }
                    }
                }
                Vec::new()
            }
            LbMsg::MigDone {
                pid,
                epoch,
                success,
            } => {
                if let ConductorPhase::Receiving {
                    from: f,
                    pid: p,
                    epoch: e,
                    ..
                } = self.phase
                {
                    if f == from && p == pid && e == epoch {
                        if success {
                            self.stats.migrations_completed += 1;
                        }
                        self.phase = ConductorPhase::CalmDown {
                            until: now + self.cfg.calm_down_us,
                        };
                    }
                }
                Vec::new()
            }
            LbMsg::Leave => {
                self.peers.remove(from);
                Vec::new()
            }
        }
    }

    /// The migration daemon reports the sender-side outcome.
    ///
    /// Success enters calm-down and clears any pending retry. Failure
    /// blacklists the destination, and either schedules a retry with
    /// exponential backoff (staying out of calm-down so the retry can fire)
    /// or — once `retry_max_attempts` attempts failed — abandons the
    /// migration and calms down.
    pub fn on_migration_finished(&mut self, now: SimTime, success: bool) -> Vec<LbEffect> {
        if let ConductorPhase::Sending {
            dest, pid, epoch, ..
        } = self.phase
        {
            if success {
                self.stats.migrations_completed += 1;
                if self.retry.map(|r| r.pid) == Some(pid) {
                    self.retry = None;
                }
                self.phase = ConductorPhase::CalmDown {
                    until: now + self.cfg.calm_down_us,
                };
            } else {
                self.stats.migrations_failed += 1;
                self.blacklist.push((dest, now + self.cfg.blacklist_us));
                let failures = match self.retry {
                    Some(r) if r.pid == pid => r.failures + 1,
                    _ => 1,
                };
                if failures >= self.cfg.retry_max_attempts {
                    self.stats.migrations_abandoned += 1;
                    self.retry = None;
                    self.phase = ConductorPhase::CalmDown {
                        until: now + self.cfg.calm_down_us,
                    };
                } else {
                    self.retry = Some(RetryState {
                        pid,
                        failures,
                        not_before: now + self.backoff_us(failures),
                    });
                    self.phase = ConductorPhase::Idle;
                }
            }
            vec![LbEffect::Send(
                dest,
                LbMsg::MigDone {
                    pid,
                    epoch,
                    success,
                },
            )]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_sim::SECOND;

    /// Pids parked in the admission deferral queue.
    fn deferred_pids(c: &Conductor) -> Vec<Pid> {
        c.deferred.iter().map(|d| d.pid).collect()
    }

    /// An accept as the receiver would send it: default lease from `at`.
    fn accept(pid: Pid, epoch: u64, at: SimTime) -> LbMsg {
        LbMsg::MigAccept {
            pid,
            epoch,
            lease_until: at + PolicyConfig::default().lease_us,
        }
    }

    /// In-memory bus of conductors: delivers messages instantly.
    struct Bus {
        conds: Vec<Conductor>,
        loads: Vec<f64>,
        now: SimTime,
    }

    impl Bus {
        fn new(loads: &[f64]) -> Bus {
            let conds = (0..loads.len())
                .map(|i| Conductor::new(NodeId(i as u32), PolicyConfig::default()))
                .collect();
            let mut bus = Bus {
                conds,
                loads: loads.to_vec(),
                now: SimTime::from_secs(1),
            };
            // Startup discovery.
            let starts: Vec<(usize, Vec<LbEffect>)> = (0..bus.conds.len())
                .map(|i| {
                    let li = bus.local(i);
                    (i, bus.conds[i].on_start(li))
                })
                .collect();
            for (i, effects) in starts {
                bus.dispatch(i, effects);
            }
            bus
        }

        fn local(&self, i: usize) -> LoadInfo {
            LoadInfo::new(NodeId(i as u32), self.loads[i], 20, self.now)
        }

        fn dispatch(&mut self, from: usize, effects: Vec<LbEffect>) -> Vec<LbEffect> {
            let mut migrations = Vec::new();
            let mut queue: Vec<(usize, LbEffect)> =
                effects.into_iter().map(|a| (from, a)).collect();
            while let Some((src, action)) = queue.pop() {
                match action {
                    LbEffect::Broadcast(msg) => {
                        for i in 0..self.conds.len() {
                            if i != src {
                                let li = self.local(i);
                                let out =
                                    self.conds[i].on_msg(self.now, NodeId(src as u32), msg, li);
                                queue.extend(out.into_iter().map(|a| (i, a)));
                            }
                        }
                    }
                    LbEffect::Send(to, msg) => {
                        let i = to.0 as usize;
                        let li = self.local(i);
                        let out = self.conds[i].on_msg(self.now, NodeId(src as u32), msg, li);
                        queue.extend(out.into_iter().map(|a| (i, a)));
                    }
                    LbEffect::StartMigration { .. } | LbEffect::CancelMigration { .. } => {
                        migrations.push(action)
                    }
                }
            }
            migrations
        }

        fn tick_all(&mut self) -> Vec<(usize, LbEffect)> {
            let mut migs = Vec::new();
            for i in 0..self.conds.len() {
                let li = self.local(i);
                let procs: Vec<(Pid, f64)> = (0..20)
                    .map(|k| (Pid((i * 100 + k) as u64), self.loads[i] / 20.0))
                    .collect();
                let effects = self.conds[i].on_tick(self.now, li, &procs);
                for m in self.dispatch(i, effects) {
                    migs.push((i, m));
                }
            }
            migs
        }
    }

    #[test]
    fn discovery_populates_peer_dbs() {
        let bus = Bus::new(&[50.0, 60.0, 70.0]);
        for c in &bus.conds {
            assert_eq!(c.peers.len(), 2, "{:?} sees both peers", c.node);
        }
    }

    #[test]
    fn overloaded_node_initiates_to_mirror_peer() {
        let mut bus = Bus::new(&[95.0, 75.0, 55.0]);
        let migs = bus.tick_all();
        assert_eq!(migs.len(), 1, "exactly one migration started");
        let (sender, action) = &migs[0];
        assert_eq!(*sender, 0);
        match action {
            LbEffect::StartMigration { dest, .. } => assert_eq!(*dest, NodeId(2)),
            other => panic!("expected StartMigration, got {other:?}"),
        }
        assert!(matches!(
            bus.conds[0].phase(),
            ConductorPhase::Sending { .. }
        ));
        assert!(matches!(
            bus.conds[2].phase(),
            ConductorPhase::Receiving { .. }
        ));
    }

    #[test]
    fn balanced_cluster_stays_quiet() {
        let mut bus = Bus::new(&[75.0, 74.0, 76.0, 75.5]);
        assert!(bus.tick_all().is_empty());
        for c in &bus.conds {
            assert_eq!(c.phase(), ConductorPhase::Idle);
        }
    }

    #[test]
    fn receiver_rejects_second_request_during_migration() {
        let mut bus = Bus::new(&[95.0, 96.0, 40.0]);
        // Both heavy nodes target node2; only one wins the reservation.
        let migs = bus.tick_all();
        assert_eq!(
            migs.len(),
            1,
            "two-phase commit admits exactly one migration"
        );
        let rejected: u64 = bus.conds[2].stats().requests_rejected;
        assert_eq!(rejected, 1);
    }

    #[test]
    fn completion_enters_calm_down_on_both_sides() {
        let mut bus = Bus::new(&[95.0, 75.0, 55.0]);
        bus.tick_all();
        let done = bus.conds[0].on_migration_finished(bus.now, true);
        bus.dispatch(0, done);
        assert!(matches!(
            bus.conds[0].phase(),
            ConductorPhase::CalmDown { .. }
        ));
        assert!(matches!(
            bus.conds[2].phase(),
            ConductorPhase::CalmDown { .. }
        ));
        // Still overloaded, but calm-down suppresses a new request.
        assert!(bus.tick_all().is_empty());
        // After the calm-down expires, balancing resumes. The long silence
        // expired every peer entry, so the first tick only re-populates the
        // peer databases via heartbeats; the next one initiates.
        bus.now = bus.now + PolicyConfig::default().calm_down_us + SECOND;
        assert!(bus.tick_all().is_empty(), "peers must be re-learned first");
        bus.now += SECOND;
        let migs = bus.tick_all();
        assert_eq!(migs.len(), 1);
    }

    #[test]
    fn negotiation_timeout_releases_sender() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        let li = |cpu, at| LoadInfo::new(NodeId(0), cpu, 20, at);
        c.peers
            .update(LoadInfo::new(NodeId(1), 40.0, 20, SimTime::from_secs(1)));
        let t1 = SimTime::from_secs(1);
        let effects = c.on_tick(t1, li(95.0, t1), &[(Pid(7), 10.0)]);
        assert!(effects
            .iter()
            .any(|a| matches!(a, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert!(matches!(c.phase(), ConductorPhase::AwaitingAccept { .. }));
        // No answer arrives; next tick after the timeout resets to Idle.
        let t2 = SimTime::from_secs(3);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t2));
        c.on_tick(t2, li(50.0, t2), &[]);
        assert_eq!(c.phase(), ConductorPhase::Idle);
    }

    #[test]
    fn stale_accept_releases_receiver() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        let li = LoadInfo::new(NodeId(0), 50.0, 20, SimTime::from_secs(1));
        // An accept arrives while we are Idle (we already gave up). The
        // release names exactly the reservation the accept carried.
        let t = SimTime::from_secs(1);
        let out = c.on_msg(t, NodeId(1), accept(Pid(5), 3, t), li);
        assert_eq!(
            out,
            vec![LbEffect::Send(
                NodeId(1),
                LbMsg::MigDone {
                    pid: Pid(5),
                    epoch: 3,
                    success: false
                }
            )]
        );
    }

    #[test]
    fn heartbeats_follow_the_period() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        let mk = |at| LoadInfo::new(NodeId(0), 50.0, 20, at);
        let t = SimTime::from_secs(1);
        let a1 = c.on_tick(t, mk(t), &[]);
        assert!(a1
            .iter()
            .any(|a| matches!(a, LbEffect::Broadcast(LbMsg::Heartbeat(_)))));
        // 100 ms later: too early.
        let t2 = t + 100_000;
        assert!(c.on_tick(t2, mk(t2), &[]).is_empty());
        // A full period later: due again.
        let t3 = t + SECOND;
        assert!(!c.on_tick(t3, mk(t3), &[]).is_empty());
        assert_eq!(c.stats().heartbeats_sent, 2);
    }

    #[test]
    fn silent_peer_expires_from_db() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        c.peers
            .update(LoadInfo::new(NodeId(1), 40.0, 20, SimTime::from_secs(1)));
        let t = SimTime::from_secs(10);
        c.on_tick(t, LoadInfo::new(NodeId(0), 50.0, 20, t), &[]);
        assert!(c.peers.is_empty());
    }

    #[test]
    fn leave_removes_peer() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        c.peers
            .update(LoadInfo::new(NodeId(1), 40.0, 20, SimTime::from_secs(1)));
        let li = LoadInfo::new(NodeId(0), 50.0, 20, SimTime::from_secs(1));
        c.on_msg(SimTime::from_secs(1), NodeId(1), LbMsg::Leave, li);
        assert!(c.peers.is_empty());
    }

    #[test]
    fn strategy_preference_degrades_per_attempt() {
        assert_eq!(
            StrategyPreference::for_attempt(1),
            StrategyPreference::Incremental
        );
        assert_eq!(
            StrategyPreference::for_attempt(2),
            StrategyPreference::Collective
        );
        assert_eq!(
            StrategyPreference::for_attempt(3),
            StrategyPreference::Iterative
        );
        assert_eq!(
            StrategyPreference::for_attempt(9),
            StrategyPreference::Iterative
        );
    }

    /// Drives one sender conductor through: attempt 1 (fails) → backoff →
    /// attempt 2 to a non-blacklisted peer with a degraded preference
    /// (fails) → doubled backoff → attempt 3 (fails) → abandoned.
    #[test]
    fn fault_failed_migration_retries_with_backoff_and_blacklist() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |cpu: f64, at: SimTime| LoadInfo::new(NodeId(0), cpu, 20, at);
        let learn = |c: &mut Conductor, at: SimTime| {
            c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, at));
            c.peers.update(LoadInfo::new(NodeId(2), 45.0, 20, at));
        };
        let procs = [(Pid(7), 10.0)];

        // Attempt 1: the mirror peer (node1) is chosen.
        let t1 = SimTime::from_secs(1);
        learn(&mut c, t1);
        let out = c.on_tick(t1, local(95.0, t1), &procs);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::Send(NodeId(1), LbMsg::MigRequest { epoch: 1, .. })
        )));
        let out = c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(95.0, t1));
        assert_eq!(
            out,
            vec![LbEffect::StartMigration {
                pid: Pid(7),
                dest: NodeId(1),
                prefer: StrategyPreference::Incremental,
                epoch: 1,
            }]
        );
        let out = c.on_migration_finished(t1, false);
        assert_eq!(
            out,
            vec![LbEffect::Send(
                NodeId(1),
                LbMsg::MigDone {
                    pid: Pid(7),
                    epoch: 1,
                    success: false
                }
            )]
        );
        assert_eq!(c.phase(), ConductorPhase::Idle, "failure skips calm-down");
        assert_eq!(c.retry.map(|r| r.pid), Some(Pid(7)));
        assert_eq!(c.blacklisted(t1), vec![NodeId(1)]);
        assert_eq!(c.stats().migrations_failed, 1);

        // Inside the backoff window nothing fires — not even a fresh
        // transfer-policy migration (the retry owns the slot).
        let t2 = t1 + SECOND;
        learn(&mut c, t2);
        let out = c.on_tick(t2, local(95.0, t2), &procs);
        assert!(
            !out.iter()
                .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))),
            "backoff not elapsed: {out:?}"
        );

        // Attempt 2 fires after the base backoff, skipping the blacklisted
        // node1 and degrading to the collective strategy.
        let t3 = t1 + cfg.retry_backoff_base_us;
        learn(&mut c, t3);
        let out = c.on_tick(t3, local(95.0, t3), &procs);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::Send(NodeId(2), LbMsg::MigRequest { epoch: 2, .. })
        )));
        assert_eq!(c.stats().retries, 1);
        let out = c.on_msg(t3, NodeId(2), accept(Pid(7), 2, t3), local(95.0, t3));
        assert_eq!(
            out,
            vec![LbEffect::StartMigration {
                pid: Pid(7),
                dest: NodeId(2),
                prefer: StrategyPreference::Collective,
                epoch: 2,
            }]
        );
        c.on_migration_finished(t3, false);
        assert_eq!(c.retry.map(|r| r.pid), Some(Pid(7)));

        // Both peers are blacklisted now; a new one shows up for attempt 3,
        // which only fires after the *doubled* backoff.
        let t4 = t3 + cfg.retry_backoff_base_us;
        learn(&mut c, t4);
        c.peers.update(LoadInfo::new(NodeId(3), 40.0, 20, t4));
        let out = c.on_tick(t4, local(95.0, t4), &procs);
        assert!(
            !out.iter()
                .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))),
            "second backoff is doubled: {out:?}"
        );
        let t5 = t3 + 2 * cfg.retry_backoff_base_us;
        learn(&mut c, t5);
        c.peers.update(LoadInfo::new(NodeId(3), 40.0, 20, t5));
        let out = c.on_tick(t5, local(95.0, t5), &procs);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::Send(NodeId(3), LbMsg::MigRequest { epoch: 3, .. })
        )));
        assert_eq!(c.stats().retries, 2);
        let out = c.on_msg(t5, NodeId(3), accept(Pid(7), 3, t5), local(95.0, t5));
        assert_eq!(
            out,
            vec![LbEffect::StartMigration {
                pid: Pid(7),
                dest: NodeId(3),
                prefer: StrategyPreference::Iterative,
                epoch: 3,
            }]
        );

        // Third failure reaches retry_max_attempts: abandoned, calm-down.
        c.on_migration_finished(t5, false);
        assert_eq!(c.retry.map(|r| r.pid), None);
        assert_eq!(c.stats().migrations_abandoned, 1);
        assert!(matches!(c.phase(), ConductorPhase::CalmDown { .. }));
    }

    #[test]
    fn fault_retry_waits_when_everyone_is_blacklisted() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let procs = [(Pid(7), 10.0)];
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &procs);
        c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        c.on_migration_finished(t1, false);

        // Only peer is blacklisted: the due retry re-arms without burning an
        // attempt.
        let t2 = t1 + cfg.retry_backoff_base_us;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t2));
        let out = c.on_tick(t2, local(t2), &procs);
        assert!(!out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert_eq!(c.retry.map(|r| r.pid), Some(Pid(7)), "retry survives");
        assert_eq!(c.stats().retries, 0, "no attempt burned");

        // Once the embargo lapses the retry goes back to the same peer.
        let t3 = t1 + cfg.blacklist_us;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t3));
        let out = c.on_tick(t3, local(t3), &procs);
        assert!(out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(NodeId(1), LbMsg::MigRequest { .. }))));
        assert_eq!(c.stats().retries, 1);
    }

    #[test]
    fn fault_retry_for_killed_process_is_dropped() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        c.on_migration_finished(t1, false);
        assert_eq!(c.retry.map(|r| r.pid), Some(Pid(7)));

        // The process list no longer contains Pid(7) when the retry is due.
        let t2 = t1 + cfg.retry_backoff_base_us;
        c.peers.update(LoadInfo::new(NodeId(2), 40.0, 20, t2));
        let out = c.on_tick(t2, local(t2), &[(Pid(9), 10.0)]);
        assert!(!out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert_eq!(c.retry.map(|r| r.pid), None);
    }

    #[test]
    fn fault_rejected_retry_rearms_flat_backoff() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let procs = [(Pid(7), 10.0)];
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &procs);
        c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        c.on_migration_finished(t1, false);

        // Retry fires toward node2, which rejects.
        let t2 = t1 + cfg.retry_backoff_base_us;
        c.peers.update(LoadInfo::new(NodeId(2), 40.0, 20, t2));
        c.on_tick(t2, local(t2), &procs);
        assert!(matches!(c.phase(), ConductorPhase::AwaitingAccept { .. }));
        c.on_msg(
            t2,
            NodeId(2),
            LbMsg::MigReject {
                pid: Pid(7),
                epoch: 2,
            },
            local(t2),
        );
        assert_eq!(c.phase(), ConductorPhase::Idle);
        assert_eq!(
            c.retry.map(|r| r.pid),
            Some(Pid(7)),
            "rejection keeps the retry"
        );
        assert_eq!(c.stats().migrations_failed, 1, "a rejection is no failure");

        // It re-arms with the flat base backoff, then fires again.
        let t3 = t2 + cfg.retry_backoff_base_us;
        c.peers.update(LoadInfo::new(NodeId(2), 40.0, 20, t3));
        let out = c.on_tick(t3, local(t3), &procs);
        assert!(out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(NodeId(2), LbMsg::MigRequest { .. }))));
        assert_eq!(c.stats().retries, 2);
    }

    #[test]
    fn congested_destination_defers_then_promotes() {
        let cfg = PolicyConfig {
            dest_high_water: 60.0,
            ..PolicyConfig::default()
        };
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let procs = [(Pid(7), 10.0)];

        // The only peer is below the average but above the high water:
        // the intent parks instead of firing.
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 65.0, 20, t1));
        let out = c.on_tick(t1, local(t1), &procs);
        assert!(!out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert_eq!(deferred_pids(&c), vec![Pid(7)]);
        assert_eq!(c.stats().deferrals, 1);
        assert_eq!(c.phase(), ConductorPhase::Idle);

        // Still congested: the intent stays parked, no duplicate deferral.
        let t2 = t1 + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 65.0, 20, t2));
        c.on_tick(t2, local(t2), &procs);
        assert_eq!(c.stats().deferrals, 1);

        // The receiver drains below the high water: promotion fires the
        // parked request.
        let t3 = t2 + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t3));
        let out = c.on_tick(t3, local(t3), &procs);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::Send(NodeId(1), LbMsg::MigRequest { pid: Pid(7), .. })
        )));
        assert!(deferred_pids(&c).is_empty());
        assert_eq!(c.stats().deferred_promoted, 1);
        assert!(matches!(c.phase(), ConductorPhase::AwaitingAccept { .. }));
    }

    #[test]
    fn deferral_queue_bounds_and_sheds_lowest_priority() {
        let cfg = PolicyConfig {
            dest_high_water: 60.0,
            max_deferred: 1,
            ..PolicyConfig::default()
        };
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        // Two processes; the selection policy picks Pid(1) first (both are
        // equally distant from the 15% target and ties keep list order).
        let procs = [(Pid(1), 10.0), (Pid(2), 20.0)];

        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 65.0, 20, t1));
        c.on_tick(t1, local(t1), &procs);
        assert_eq!(deferred_pids(&c), vec![Pid(1)]);

        // Pid(1) is parked, so the next tick defers Pid(2); the bounded
        // queue sheds the smaller-share intent.
        let t2 = t1 + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 65.0, 20, t2));
        c.on_tick(t2, local(t2), &procs);
        assert_eq!(deferred_pids(&c), vec![Pid(2)], "lowest priority shed");
        assert_eq!(c.stats().deferrals, 2);
        assert_eq!(c.stats().deferred_shed, 1);

        // Drain: the surviving (highest-priority) intent is promoted.
        let t3 = t2 + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t3));
        let out = c.on_tick(t3, local(t3), &procs);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::Send(NodeId(1), LbMsg::MigRequest { pid: Pid(2), .. })
        )));
    }

    #[test]
    fn deferred_intent_for_killed_process_is_dropped() {
        let cfg = PolicyConfig {
            dest_high_water: 60.0,
            ..PolicyConfig::default()
        };
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 65.0, 20, t1));
        c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        assert_eq!(deferred_pids(&c), vec![Pid(7)]);

        // The process vanished before the receiver drained.
        let t2 = t1 + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t2));
        let out = c.on_tick(t2, local(t2), &[(Pid(9), 0.1)]);
        assert!(!out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert!(deferred_pids(&c).is_empty());
        assert_eq!(c.stats().deferred_promoted, 0);
    }

    #[test]
    fn stale_load_sample_blocks_initiation() {
        let mut c = Conductor::new(NodeId(0), PolicyConfig::default());
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        // The peer's only sample is 3 s old at tick time: not yet expired
        // from the db (5 s), but past the 2-heartbeat freshness window —
        // it must not be chosen, and it is no reason to defer either.
        let t0 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t0));
        let t1 = SimTime::from_secs(4);
        let out = c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        assert!(!out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(_, LbMsg::MigRequest { .. }))));
        assert!(deferred_pids(&c).is_empty());
        assert_eq!(c.phase(), ConductorPhase::Idle);

        // A fresh heartbeat restores eligibility.
        let t2 = SimTime::from_secs(5);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t2));
        let out = c.on_tick(t2, local(t2), &[(Pid(7), 10.0)]);
        assert!(out
            .iter()
            .any(|e| matches!(e, LbEffect::Send(NodeId(1), LbMsg::MigRequest { .. }))));
    }

    #[test]
    fn fault_success_clears_pending_retry() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let procs = [(Pid(7), 10.0)];
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &procs);
        c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        c.on_migration_finished(t1, false);

        let t2 = t1 + cfg.retry_backoff_base_us;
        c.peers.update(LoadInfo::new(NodeId(2), 40.0, 20, t2));
        c.on_tick(t2, local(t2), &procs);
        c.on_msg(t2, NodeId(2), accept(Pid(7), 2, t2), local(t2));
        c.on_migration_finished(t2, true);
        assert_eq!(c.retry.map(|r| r.pid), None);
        assert_eq!(c.stats().migrations_completed, 1);
        assert!(matches!(c.phase(), ConductorPhase::CalmDown { .. }));
    }

    // -----------------------------------------------------------------
    // Idempotency under duplication / staleness, per `on_msg` arm.
    // -----------------------------------------------------------------

    /// A receiver at 40% load in a 75%-average cluster, ready to accept.
    fn receiver() -> (Conductor, LoadInfo, SimTime) {
        let mut c = Conductor::new(NodeId(2), PolicyConfig::default());
        let t = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(0), 95.0, 20, t));
        c.peers.update(LoadInfo::new(NodeId(1), 90.0, 20, t));
        let local = LoadInfo::new(NodeId(2), 40.0, 20, t);
        (c, local, t)
    }

    fn request(pid: Pid, epoch: u64) -> LbMsg {
        LbMsg::MigRequest {
            pid,
            epoch,
            share: 10.0,
            sender_load: 95.0,
        }
    }

    #[test]
    fn dup_request_replays_same_accept_without_stats() {
        let (mut c, local, t) = receiver();
        let out1 = c.on_msg(t, NodeId(0), request(Pid(7), 1), local);
        assert_eq!(c.stats().requests_accepted, 1);
        let phase = c.phase();
        // The network duplicates the request: the very same accept (same
        // lease) is re-sent, and nothing else moves.
        let out2 = c.on_msg(t + 50, NodeId(0), request(Pid(7), 1), local);
        assert_eq!(out1, out2, "replayed accept is byte-identical");
        assert_eq!(c.phase(), phase, "reservation untouched");
        assert_eq!(c.stats().requests_accepted, 1, "no double count");
        assert_eq!(c.stats().requests_rejected, 0);
    }

    #[test]
    fn stale_request_is_rejected_without_stats() {
        let (mut c, local, t) = receiver();
        c.on_msg(t, NodeId(0), request(Pid(7), 3), local);
        let stats = c.stats();
        // A reordered leftover of an older negotiation for the same pid
        // (epoch 2 < fence 3) from anyone: silent epoch-matched reject.
        let out = c.on_msg(t + 50, NodeId(1), request(Pid(7), 2), local);
        assert_eq!(
            out,
            vec![LbEffect::Send(
                NodeId(1),
                LbMsg::MigReject {
                    pid: Pid(7),
                    epoch: 2
                }
            )]
        );
        assert_eq!(c.stats(), stats, "stale traffic moves no counters");
        assert!(matches!(c.phase(), ConductorPhase::Receiving { .. }));
    }

    #[test]
    fn newer_epoch_from_same_sender_renews_reservation() {
        let (mut c, local, t) = receiver();
        c.on_msg(t, NodeId(0), request(Pid(7), 1), local);
        // The accept was lost; the sender re-proposed under epoch 2. The
        // reservation is renewed in place — one logical reservation, one
        // accepted count.
        let out = c.on_msg(t + 100, NodeId(0), request(Pid(7), 2), local);
        let lease_until = t + 100 + PolicyConfig::default().lease_us;
        assert_eq!(
            out,
            vec![LbEffect::Send(
                NodeId(0),
                LbMsg::MigAccept {
                    pid: Pid(7),
                    epoch: 2,
                    lease_until,
                }
            )]
        );
        assert_eq!(c.stats().requests_accepted, 1);
        assert!(c.restore_allowed(Pid(7), 2, t + 200));
        assert!(!c.restore_allowed(Pid(7), 1, t + 200), "old epoch fenced");
    }

    /// Regression: a duplicated accept arriving mid-transfer used to hit
    /// the stale catch-all and send `MigDone { success: false }`, releasing
    /// the receiver while the migration was still running.
    #[test]
    fn dup_accept_during_sending_is_ignored() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        let out = c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        assert!(matches!(out[0], LbEffect::StartMigration { .. }));
        // The duplicate: no effects at all, phase untouched.
        let out = c.on_msg(t1 + 50, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        assert_eq!(out, Vec::new(), "duplicate accept must not release");
        assert!(matches!(c.phase(), ConductorPhase::Sending { .. }));
    }

    #[test]
    fn mismatched_reject_leaves_negotiation_running() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        assert!(matches!(c.phase(), ConductorPhase::AwaitingAccept { .. }));
        // A stale reject from an older epoch: ignored.
        c.on_msg(
            t1,
            NodeId(1),
            LbMsg::MigReject {
                pid: Pid(7),
                epoch: 0,
            },
            local(t1),
        );
        assert!(matches!(c.phase(), ConductorPhase::AwaitingAccept { .. }));
        // The matching reject lands; a duplicate of it is then a no-op.
        c.on_msg(
            t1,
            NodeId(1),
            LbMsg::MigReject {
                pid: Pid(7),
                epoch: 1,
            },
            local(t1),
        );
        assert_eq!(c.phase(), ConductorPhase::Idle);
        let stats = c.stats();
        c.on_msg(
            t1,
            NodeId(1),
            LbMsg::MigReject {
                pid: Pid(7),
                epoch: 1,
            },
            local(t1),
        );
        assert_eq!(c.phase(), ConductorPhase::Idle);
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn dup_done_is_idempotent_on_receiver() {
        let (mut c, local, t) = receiver();
        c.on_msg(t, NodeId(0), request(Pid(7), 1), local);
        let done = LbMsg::MigDone {
            pid: Pid(7),
            epoch: 1,
            success: true,
        };
        c.on_msg(t + 100, NodeId(0), done, local);
        assert!(matches!(c.phase(), ConductorPhase::CalmDown { .. }));
        assert_eq!(c.stats().migrations_completed, 1);
        // Duplicate: completion is not counted twice, calm-down untouched.
        let out = c.on_msg(t + 150, NodeId(0), done, local);
        assert_eq!(out, Vec::new());
        assert_eq!(c.stats().migrations_completed, 1);
        // A done for a mismatched epoch while Receiving is equally inert.
        let (mut c2, local2, t2) = receiver();
        c2.on_msg(t2, NodeId(0), request(Pid(7), 1), local2);
        c2.on_msg(
            t2 + 100,
            NodeId(0),
            LbMsg::MigDone {
                pid: Pid(7),
                epoch: 9,
                success: true,
            },
            local2,
        );
        assert!(matches!(c2.phase(), ConductorPhase::Receiving { .. }));
        assert_eq!(c2.stats().migrations_completed, 0);
    }

    #[test]
    fn receiver_lease_expires_on_sender_silence() {
        let (mut c, local, t) = receiver();
        let cfg = PolicyConfig::default();
        c.on_msg(t, NodeId(0), request(Pid(7), 1), local);
        assert!(c.restore_allowed(Pid(7), 1, t + cfg.lease_us));
        // One tick past the lease: the reservation dissolves.
        let t2 = t + cfg.lease_us + 1;
        let li = LoadInfo::new(NodeId(2), 40.0, 20, t2);
        c.on_tick(t2, li, &[]);
        assert_eq!(c.phase(), ConductorPhase::Idle);
        assert_eq!(c.stats().leases_expired, 1);
        assert!(!c.restore_allowed(Pid(7), 1, t2), "expired lease fences");
    }

    #[test]
    fn sender_cancels_only_after_timeout_and_lease() {
        let cfg = PolicyConfig::default();
        let mut c = Conductor::new(NodeId(0), cfg);
        let local = |at: SimTime| LoadInfo::new(NodeId(0), 95.0, 20, at);
        let t1 = SimTime::from_secs(1);
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t1));
        c.on_tick(t1, local(t1), &[(Pid(7), 10.0)]);
        c.on_msg(t1, NodeId(1), accept(Pid(7), 1, t1), local(t1));
        assert!(matches!(c.phase(), ConductorPhase::Sending { .. }));

        // Past the migration timeout but inside the lease: no cancel — the
        // destination could still legitimately resume the process.
        let t2 = t1 + cfg.migration_timeout_us + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t2));
        let out = c.on_tick(t2, local(t2), &[(Pid(7), 10.0)]);
        assert!(
            !out.iter()
                .any(|e| matches!(e, LbEffect::CancelMigration { .. })),
            "lease still live: {out:?}"
        );

        // Past both: the cancel fires, and the phase stays Sending until
        // the daemon reports back.
        let t3 = t1 + cfg.lease_us + SECOND;
        c.peers.update(LoadInfo::new(NodeId(1), 40.0, 20, t3));
        let out = c.on_tick(t3, local(t3), &[(Pid(7), 10.0)]);
        assert!(out.iter().any(|e| matches!(
            e,
            LbEffect::CancelMigration {
                pid: Pid(7),
                epoch: 1
            }
        )));
        assert!(matches!(c.phase(), ConductorPhase::Sending { .. }));
        // The daemon aborts; the usual failure path runs.
        c.on_migration_finished(t3, false);
        assert_eq!(c.stats().migrations_failed, 1);
        assert_eq!(c.retry.map(|r| r.pid), Some(Pid(7)));
    }

    #[test]
    fn epochs_stay_monotone_across_ownership_transfer() {
        let (mut c, local, t) = receiver();
        // Accept pid 7 under epoch 5 (the sender had history with it).
        c.on_msg(t, NodeId(0), request(Pid(7), 5), local);
        assert_eq!(c.fence_of(Pid(7)), 5);
        c.on_msg(
            t + 100,
            NodeId(0),
            LbMsg::MigDone {
                pid: Pid(7),
                epoch: 5,
                success: true,
            },
            local,
        );
        // This node now owns pid 7. When it later initiates a migration of
        // it, the proposal must exceed every epoch it witnessed.
        let t2 = t + PolicyConfig::default().calm_down_us + 2 * SECOND;
        c.peers.update(LoadInfo::new(NodeId(0), 30.0, 20, t2));
        c.peers.update(LoadInfo::new(NodeId(1), 30.0, 20, t2));
        let li = LoadInfo::new(NodeId(2), 95.0, 20, t2);
        let out = c.on_tick(t2, li, &[(Pid(7), 12.0)]);
        let sent_epoch = out.iter().find_map(|e| match e {
            LbEffect::Send(_, LbMsg::MigRequest { pid, epoch, .. }) if *pid == Pid(7) => {
                Some(*epoch)
            }
            _ => None,
        });
        assert_eq!(sent_epoch, Some(6), "proposal = highest witnessed + 1");
    }
}
