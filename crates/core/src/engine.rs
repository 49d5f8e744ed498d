//! The live-migration state machine (Fig. 3 + §III-C).
//!
//! One [`MigrationEngine`] instance drives one migration. The owner (the
//! cluster runtime, or a test harness) calls [`step`](MigrationEngine::step)
//! whenever the engine asked to be called again, passing an [`EffectSink`];
//! each step performs the work of one protocol phase against the two host
//! stacks and the migrating process, emits every externally visible
//! consequence as an ordered, timestamped [`Effect`], and returns a
//! [`StepPlan`] saying when to call back.
//!
//! Phase timeline, with the effects each phase emits:
//!
//! ```text
//! phase            effects emitted (in order)
//! ─────            ──────────────────────────
//! Start            PhaseEntered(PrecopyFull), Shipped(PrecopyMem)
//!                  [, Shipped(PrecopySocket)…]   — signal; full checkpoint;
//!                  transfer while the app runs
//! PrecopyIter ×k   PhaseEntered(PrecopyIter), Shipped(PrecopyMem)
//!                  [, Shipped(PrecopySocket)…]   — dirty pages + VMA diff
//!                  (+ socket deltas, incremental strategy); the loop timeout
//!                  halves each iteration; at 20 ms → freeze
//! CaptureRequest   PhaseEntered(FreezeCapture), SuspendApp,
//!                  [InstallCapture…], [SendXlate…]
//!                  — app suspended; capture entries enabled on the
//!                  destination; translation requests for in-cluster peers
//! Detach           PhaseEntered(FreezeDetach), [SocketDetached,
//!                  Shipped(FreezeSocket)…], Shipped(FreezeMem)
//!                  — sockets unhashed & quiesced in fd order; final memory
//!                  increment + freeze records shipped (per strategy)
//! Restore          PhaseEntered(Restore), [Stack(Dst)…],
//!                  [PacketReinjected, Stack(Dst)……], Complete
//!                  — sockets rehashed (timestamps shifted, timers
//!                  restarted), fd table rewritten, captured packets
//!                  re-injected, threads resumed — freeze ends
//! ```
//!
//! An abort ([`MigrationEngine::abort`], or a capture/restore failure the
//! engine detects itself) replaces the remaining phases with compensating
//! effects, phase-dependent (§III's free-rollback property: until the
//! freeze-phase commit the source copy is still authoritative):
//!
//! ```text
//! aborted in       effects emitted (in order)
//! ──────────       ──────────────────────────
//! precopy          Aborted(SourceKeptRunning) — the app never stopped;
//!                  shipped state is discarded, nothing was installed
//! FreezeCapture    [RemoveCapture…], [RevokeXlate…], ResumeApp,
//!                  Aborted(ResumedOnSource) — captures disabled on the
//!                  destination, peer rules recalled, threads resumed on
//!                  the still-intact source sockets
//! FreezeDetach /   [RevokeXlate…], [Stack(Src)…], [RemoveCapture,
//! Restore          [PacketReinjected, Stack(Src)…]…],
//!                  Aborted(RestoredOnSource) — sockets reinstalled on the
//!                  source from the in-flight copies, captured packets
//!                  re-injected there, threads resumed
//! (source dead)    Aborted(Lost) pre-detach, Aborted(ImageOnly) after —
//!                  only the captured image survives (cold-restart fodder)
//! ```
//!
//! The engine keeps no measurement state of its own: a
//! `dvelm_metrics::TraceRecorder` consuming the same stream derives the
//! `MigrationReport` (freeze time, byte classes, phase log) from the effects
//! above. `SuspendApp`'s timestamp is `frozen_at`; `Complete`'s is
//! `resumed_at`; `Aborted`'s closes the trace of a failed migration.

use crate::cost::CostModel;
use crate::effect::{
    AbortReason, AbortRecovery, ByteClass, Effect, EffectSink, MigrationAborted, PhaseId, Side,
};
use crate::strategy::Strategy;
use dvelm_ckpt::{
    apply_update, full_checkpoint, incremental_update, restore_process, IncrementalTracker,
};
use dvelm_net::{NodeId, ZoneId};
use dvelm_proc::{Fd, Pid, Process};
use dvelm_sim::{Jiffies, SimTime};
use dvelm_stack::capture::CaptureKey;
use dvelm_stack::xlate::{SelfXlateRule, XlateRule};
use dvelm_stack::{HostStack, SockId, Socket};
use std::collections::BTreeMap;

/// Per-socket attach record shipped in the freeze phase (fd binding), bytes.
const ATTACH_RECORD: u64 = 16;

/// Mutable world access for one engine step.
pub struct StepIo<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The source node's stack (where the process currently lives).
    pub src_stack: &'a mut HostStack,
    /// The destination node's stack.
    pub dst_stack: &'a mut HostStack,
    /// The migrating process (source copy; keeps running during precopy).
    pub proc: &'a mut Process,
}

/// Mutable world access for an abort. Unlike [`StepIo`], either stack may
/// be gone (`None` signals a dead host) and the source process is not
/// touched directly — thread resumption travels through
/// [`Effect::ResumeApp`] so the owner controls tick rescheduling.
pub struct AbortIo<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The source node's stack, if that node is still alive.
    pub src_stack: Option<&'a mut HostStack>,
    /// The destination node's stack, if that node is still alive.
    pub dst_stack: Option<&'a mut HostStack>,
}

/// What the owner must do after a step. Everything else — suspension,
/// translation requests, stack effects, completion — arrives through the
/// [`EffectSink`] passed to [`MigrationEngine::step`].
#[derive(Debug, Default)]
pub struct StepPlan {
    /// Call `step` again this many µs from now (`None` once done).
    pub next_step_after_us: Option<u64>,
}

/// Overload-protection knobs for one migration. The default disables both
/// guards, reproducing the paper's (unguarded) behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadGuard {
    /// Wall-clock budget: when a precopy round begins more than this many
    /// µs after the migration started, abort with
    /// [`AbortReason::Overloaded`] instead of starting the round.
    pub deadline_us: Option<u64>,
    /// Convergence guard: abort with [`AbortReason::NonConverging`] after
    /// this many *consecutive* precopy rounds whose dirty diff failed to
    /// shrink — the dirty rate has caught up with the drain rate, so
    /// freezing would ship an ever-growing payload.
    pub max_stagnant_rounds: Option<u32>,
}

impl OverloadGuard {
    /// Both guards off (the default).
    pub const DISABLED: OverloadGuard = OverloadGuard {
        deadline_us: None,
        max_stagnant_rounds: None,
    };
}

/// Final result of a migration, carried by [`Effect::Complete`].
#[derive(Debug)]
pub struct MigrationComplete {
    /// The process as restored on the destination (fd table rewritten to
    /// the new socket ids, threads resumed).
    pub process: Process,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    PrecopyIter,
    CaptureRequest,
    Detach,
    Restore,
    Done,
    Aborted,
}

/// The live-migration engine.
#[derive(Debug)]
pub struct MigrationEngine {
    /// The process being migrated.
    pub pid: Pid,
    /// Source node (where the process runs when migration starts).
    pub src: NodeId,
    /// Destination node (where the process resumes).
    pub dst: NodeId,
    /// Socket-migration strategy (§IV).
    pub strategy: Strategy,
    /// Timing/size model for transfer and freeze costs.
    pub cost: CostModel,
    phase: Phase,
    tracker: IncrementalTracker,
    staged: Option<Process>,
    /// Last shipped mutation stamp per socket (incremental strategy).
    sock_stamps: BTreeMap<SockId, u64>,
    loop_timeout_us: u64,
    capture_keys: Vec<CaptureKey>,
    /// Sockets in flight between detach and restore, with their fds.
    in_flight: Vec<(Fd, Socket)>,
    /// Destination-side translation rules to install at restore.
    self_rules: Vec<SelfXlateRule>,
    /// Peer-side rules this process held on the source host (its view of
    /// *other* migrated endpoints), carried along so zone↔zone connections
    /// survive even when both ends migrate.
    carried_rules: Vec<XlateRule>,
    /// Translation rules already sent to peers (replayed as
    /// [`Effect::RevokeXlate`] on abort).
    sent_rules: Vec<(NodeId, XlateRule)>,
    /// Self-rules the *source* held for these sockets (from an earlier
    /// migration onto it), taken at detach so restore-on-source can
    /// reinstate them.
    src_self_rules: Vec<SelfXlateRule>,
    src_jiffies_at_detach: Jiffies,
    /// Overload protection (deadline + convergence guard), off by default.
    pub guard: OverloadGuard,
    /// Ownership epoch of the conductor negotiation that started this
    /// migration; `0` means manually initiated (no negotiation, so restore
    /// fencing does not apply). See `dvelm-lb`'s epoch/lease protocol.
    pub epoch: u64,
    /// Zones the process holds interest subscriptions for (set by the
    /// owner before the first step, like `epoch`). The engine moves them
    /// with the sockets: the destination subscribes at capture setup, the
    /// source unsubscribes at switch-over, and every abort row emits the
    /// compensating [`Effect::Unsubscribe`]/[`Effect::Subscribe`] pair so
    /// no recovery outcome can leak a subscription. Empty (the default)
    /// for processes without registered zone interest — zero new effects.
    pub zones: Vec<ZoneId>,
    /// When the first step ran (the deadline's epoch).
    started_at: Option<SimTime>,
    /// Consecutive precopy rounds whose dirty diff did not shrink.
    stagnant_rounds: u32,
    /// Dirty-diff bytes of the previous precopy round.
    last_round_bytes: Option<u64>,
}

impl MigrationEngine {
    /// Prepare a migration of `pid` from `src` to `dst`. The engine keeps
    /// no clock of its own: the start instant belongs to the trace consumer
    /// (`dvelm_metrics::TraceRecorder::new`).
    pub fn new(
        pid: Pid,
        src: NodeId,
        dst: NodeId,
        strategy: Strategy,
        cost: CostModel,
    ) -> MigrationEngine {
        MigrationEngine {
            pid,
            src,
            dst,
            strategy,
            loop_timeout_us: cost.initial_loop_timeout_us,
            cost,
            phase: Phase::Start,
            tracker: IncrementalTracker::new(),
            staged: None,
            sock_stamps: BTreeMap::new(),
            capture_keys: Vec::new(),
            in_flight: Vec::new(),
            self_rules: Vec::new(),
            carried_rules: Vec::new(),
            sent_rules: Vec::new(),
            src_self_rules: Vec::new(),
            src_jiffies_at_detach: Jiffies(0),
            guard: OverloadGuard::DISABLED,
            epoch: 0,
            zones: Vec::new(),
            started_at: None,
            stagnant_rounds: 0,
            last_round_bytes: None,
        }
    }

    /// Whether the migration was aborted.
    pub fn is_aborted(&self) -> bool {
        self.phase == Phase::Aborted
    }

    /// Whether the source sockets have already been detached — the point of
    /// no free return: an abort after this restores from the captured image
    /// instead of simply resuming the source copy.
    pub fn past_detach(&self) -> bool {
        matches!(self.phase, Phase::Restore | Phase::Done)
    }

    /// Capture keys this migration enabled on the destination stack (empty
    /// before freeze and after restore/abort drains them). The owner uses
    /// this to attribute capture-queue pressure to the right migration when
    /// several are in flight toward the same host.
    pub fn capture_keys(&self) -> &[CaptureKey] {
        &self.capture_keys
    }

    /// Execute the current phase, emitting its effects into `sink`. The
    /// owner must call this exactly when the previous plan's
    /// `next_step_after_us` elapses.
    pub fn step(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Every phase may read the process image; make its logged writes.
        io.proc.addr_space.settle();
        match self.phase {
            Phase::Start => self.step_start(io, sink),
            Phase::PrecopyIter => self.step_precopy(io, sink),
            Phase::CaptureRequest => self.step_capture_request(io, sink),
            Phase::Detach => self.step_detach(io, sink),
            Phase::Restore => self.step_restore(io, sink),
            Phase::Done | Phase::Aborted => StepPlan::default(),
        }
    }

    /// Abort the migration, emitting the phase-dependent compensating
    /// effects (see the module docs) and finally [`Effect::Aborted`]. Safe
    /// to call in any phase; a no-op once the migration is finished.
    pub fn abort(&mut self, reason: AbortReason, io: AbortIo<'_>, sink: &mut dyn EffectSink) {
        let AbortIo {
            now,
            src_stack,
            dst_stack,
        } = io;
        let (phase, recovery) = match self.phase {
            Phase::Done | Phase::Aborted => return,
            // Precopy: the source copy never stopped; just drop the staged
            // image. Nothing was installed anywhere yet.
            Phase::Start | Phase::PrecopyIter | Phase::CaptureRequest => {
                let phase = if self.phase == Phase::Start {
                    PhaseId::PrecopyFull
                } else {
                    PhaseId::PrecopyIter
                };
                self.staged = None;
                let recovery = if src_stack.is_some() {
                    AbortRecovery::SourceKeptRunning
                } else {
                    AbortRecovery::Lost
                };
                (phase, recovery)
            }
            // Capture step ran: app frozen, captures enabled on the
            // destination, rules sent — but sockets are still hashed on the
            // source. Tear the remote state down and resume in place.
            Phase::Detach => {
                self.rollback_remote_state(now, dst_stack, sink);
                self.staged = None;
                self.self_rules.clear();
                let recovery = if src_stack.is_some() {
                    sink.emit(now, Effect::ResumeApp);
                    AbortRecovery::ResumedOnSource
                } else {
                    AbortRecovery::Lost
                };
                (PhaseId::FreezeCapture, recovery)
            }
            // Detach ran: sockets are in flight, the source holds nothing.
            // Rebuild on the source from the captured image if it lives.
            Phase::Restore => {
                let recovery = self.abort_restore(now, src_stack, dst_stack, sink);
                (PhaseId::FreezeDetach, recovery)
            }
        };
        self.phase = Phase::Aborted;
        sink.emit(
            now,
            Effect::Aborted(MigrationAborted {
                phase,
                reason,
                recovery,
            }),
        );
    }

    /// Recall translation rules from peers and (if the destination lives)
    /// disable its capture entries, discarding anything queued.
    fn rollback_remote_state(
        &mut self,
        now: SimTime,
        dst_stack: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) {
        for (peer, rule) in self.sent_rules.drain(..) {
            sink.emit(now, Effect::RevokeXlate { peer, rule });
        }
        if let Some(dst) = dst_stack {
            for key in self.capture_keys.drain(..) {
                dst.capture.disable_and_drain(&key);
                sink.emit(now, Effect::RemoveCapture { key });
            }
        } else {
            self.capture_keys.clear();
        }
        // The destination subscribed at capture setup; with the captures
        // gone its interest seats go too (the source never unsubscribed —
        // pre-detach rows leave it the sole subscriber).
        for &zone in &self.zones {
            sink.emit(
                now,
                Effect::Unsubscribe {
                    zone,
                    side: Side::Dst,
                },
            );
        }
    }

    /// Post-detach abort: reinstall the in-flight sockets on the source,
    /// drain the destination captures into it, resume the staged process.
    fn abort_restore(
        &mut self,
        now: SimTime,
        src_stack: Option<&mut HostStack>,
        mut dst_stack: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) -> AbortRecovery {
        for (peer, rule) in self.sent_rules.drain(..) {
            sink.emit(now, Effect::RevokeXlate { peer, rule });
        }
        self.self_rules.clear();
        // Whatever the recovery row, the destination stops receiving for
        // this process: its capture-setup subscriptions are rolled back.
        // The source kept its seat (switch-over never ran), so the
        // RestoredOnSource row ends with exactly one subscriber.
        for &zone in &self.zones {
            sink.emit(
                now,
                Effect::Unsubscribe {
                    zone,
                    side: Side::Dst,
                },
            );
        }
        let Some(src) = src_stack else {
            // Source gone too: discard the remote residue; only the image
            // survives (its sockets are lost — BLCR semantics).
            if let Some(dst) = dst_stack.as_deref_mut() {
                for key in self.capture_keys.drain(..) {
                    dst.capture.disable_and_drain(&key);
                    sink.emit(now, Effect::RemoveCapture { key });
                }
            } else {
                self.capture_keys.clear();
            }
            self.in_flight.clear();
            // Nothing live is left anywhere: clear the source's seat too
            // (idempotent when the owner already purged the dead node).
            for &zone in &self.zones {
                sink.emit(
                    now,
                    Effect::Unsubscribe {
                        zone,
                        side: Side::Src,
                    },
                );
            }
            return match self.staged.take() {
                Some(img) => AbortRecovery::ImageOnly(img),
                None => AbortRecovery::Lost,
            };
        };

        let mut staged = self
            .staged
            .take()
            .expect("staged process exists past detach");
        // The sockets left the source at `src_jiffies_at_detach`; shift
        // their timestamps by the source time that passed since (§V-C1
        // applied homeward).
        let delta = src.jiffies(now).delta(self.src_jiffies_at_detach);
        for (fd, mut sock) in self.in_flight.drain(..) {
            sock.apply_jiffies_delta(delta);
            let (sid, fx) = src.install_socket(sock, now);
            for effect in fx {
                sink.emit(
                    now,
                    Effect::Stack {
                        side: Side::Src,
                        effect,
                    },
                );
            }
            staged.fds.insert_at(fd, dvelm_proc::FdEntry::Socket(sid));
        }
        // Reinstate the self-rules the source held for these sockets from
        // an earlier migration onto it, and this process's view of other
        // migrated peers.
        for rule in self.src_self_rules.drain(..) {
            src.xlate.install_self(rule);
        }
        for rule in self.carried_rules.drain(..) {
            src.xlate.install_at(rule, now);
        }
        // Packets captured on the destination while the sockets were in
        // transit are re-injected on the source — nothing is dropped.
        if let Some(dst) = dst_stack {
            for key in self.capture_keys.drain(..) {
                let segs = dst.capture.disable_and_drain(&key);
                sink.emit(now, Effect::RemoveCapture { key });
                for seg in segs {
                    sink.emit(now, Effect::PacketReinjected);
                    for effect in src.reinject(seg, now) {
                        sink.emit(
                            now,
                            Effect::Stack {
                                side: Side::Src,
                                effect,
                            },
                        );
                    }
                }
            }
        } else {
            self.capture_keys.clear();
        }
        staged.resume_all();
        AbortRecovery::RestoredOnSource(staged)
    }

    // ------------------------------------------------------------------

    fn migratable_sockets<'a>(
        proc: &Process,
        stack: &'a HostStack,
    ) -> Vec<(Fd, SockId, &'a Socket)> {
        proc.fds
            .sockets()
            .filter_map(|(fd, sid)| stack.sock(sid).map(|s| (fd, sid, s)))
            .filter(|(_, _, s)| s.is_migratable())
            .collect()
    }

    /// Whether the wall-clock deadline (if armed) has expired by `now`.
    fn deadline_exceeded(&self, now: SimTime) -> bool {
        match (self.guard.deadline_us, self.started_at) {
            (Some(deadline), Some(start)) => now.saturating_since(start) > deadline,
            _ => false,
        }
    }

    fn step_start(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        self.started_at = Some(io.now);
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyFull));
        // Live checkpoint request: the helper thread transfers the full
        // image while the app continues.
        let img = full_checkpoint(io.proc);
        let mem_bytes = img.transfer_bytes();
        let mut bytes = mem_bytes;
        self.staged = Some(restore_process(&img));
        // Initialize the dirty/VMA tracking (clears dirty bits).
        let _ = incremental_update(&mut self.tracker, io.proc);
        sink.emit(
            io.now,
            Effect::Shipped {
                class: ByteClass::PrecopyMem,
                bytes: mem_bytes,
            },
        );

        // Incremental strategy: ship full socket records now, so the freeze
        // phase only carries deltas.
        if self.strategy.tracks_sockets_in_precopy() {
            for (_, sid, sock) in Self::migratable_sockets(io.proc, io.src_stack) {
                let b = sock.record_len();
                bytes += b;
                sink.emit(
                    io.now,
                    Effect::Shipped {
                        class: ByteClass::PrecopySocket,
                        bytes: b,
                    },
                );
                self.sock_stamps.insert(sid, sock.mutation_stamp());
            }
        }

        let delay =
            self.cost.signal_us + self.cost.serialize_us(bytes) + self.cost.transfer_us(bytes);
        self.phase = Phase::PrecopyIter;
        StepPlan {
            next_step_after_us: Some(self.loop_timeout_us.max(delay)),
        }
    }

    fn step_precopy(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Deadline guard: abort *before* spending another round. The source
        // copy is authoritative throughout precopy, so this is the free
        // rollback (§III) — drop the staged image, nothing was installed.
        if self.deadline_exceeded(io.now) {
            return self.abort_in_precopy(io.now, AbortReason::Overloaded, sink);
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyIter));
        let update = incremental_update(&mut self.tracker, io.proc);
        let staged = self
            .staged
            .as_mut()
            .expect("staged process exists after Start");
        apply_update(staged, &update);
        let mem_bytes = update.transfer_bytes();
        let mut bytes = mem_bytes;
        sink.emit(
            io.now,
            Effect::Shipped {
                class: ByteClass::PrecopyMem,
                bytes: mem_bytes,
            },
        );

        if self.strategy.tracks_sockets_in_precopy() {
            for (_, sid, sock) in Self::migratable_sockets(io.proc, io.src_stack) {
                let since = self.sock_stamps.get(&sid).copied().unwrap_or(0);
                let b = if since == 0 {
                    sock.record_len()
                } else {
                    sock.delta_len(since)
                };
                bytes += b;
                sink.emit(
                    io.now,
                    Effect::Shipped {
                        class: ByteClass::PrecopySocket,
                        bytes: b,
                    },
                );
                self.sock_stamps.insert(sid, sock.mutation_stamp());
            }
        }

        let delay = self.cost.serialize_us(bytes) + self.cost.transfer_us(bytes);

        // Convergence guard: under overload the dirty diff stops shrinking
        // round over round (the round length is floored by its own transfer
        // time, so a dirty rate above the drain rate produces monotonically
        // non-decreasing diffs). N consecutive stagnant rounds → abort
        // rather than freeze with an unbounded payload.
        if let Some(max_stagnant) = self.guard.max_stagnant_rounds {
            match self.last_round_bytes {
                // A zero diff is convergence, not stagnation.
                Some(prev) if bytes > 0 && bytes >= prev => self.stagnant_rounds += 1,
                _ => self.stagnant_rounds = 0,
            }
            self.last_round_bytes = Some(bytes);
            if self.stagnant_rounds >= max_stagnant {
                return self.abort_in_precopy(io.now, AbortReason::NonConverging, sink);
            }
        }

        // "In each subsequent iteration the loop timeout is decreased. When
        // it reaches a threshold (currently 20 ms) it signals the
        // application threads for final checkpointing."
        self.loop_timeout_us = (self.loop_timeout_us / 2).max(self.cost.freeze_threshold_us);
        if self.loop_timeout_us <= self.cost.freeze_threshold_us {
            self.phase = Phase::CaptureRequest;
        }
        StepPlan {
            next_step_after_us: Some(self.loop_timeout_us.max(delay)),
        }
    }

    /// In-step abort during precopy: the app never stopped, nothing was
    /// installed anywhere — drop the staged image and close the stream.
    fn abort_in_precopy(
        &mut self,
        now: SimTime,
        reason: AbortReason,
        sink: &mut dyn EffectSink,
    ) -> StepPlan {
        self.staged = None;
        self.phase = Phase::Aborted;
        sink.emit(
            now,
            Effect::Aborted(MigrationAborted {
                phase: PhaseId::PrecopyIter,
                reason,
                recovery: AbortRecovery::SourceKeptRunning,
            }),
        );
        StepPlan {
            next_step_after_us: None,
        }
    }

    fn step_capture_request(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Deadline audit (ISSUE 8): the wall-clock budget is enforced at
        // every phase boundary, not just precopy rounds. Here the freeze
        // has not begun, so the rollback is still free.
        if self.deadline_exceeded(io.now) {
            return self.abort_in_precopy(io.now, AbortReason::Overloaded, sink);
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::FreezeCapture));
        // Freeze begins: signal for the final checkpoint, threads barrier.
        sink.emit(io.now, Effect::SuspendApp);
        io.proc.freeze_all();

        // Phase one of collective migration: collect capturing details of
        // all connections and enable them on the destination. (Also the
        // per-socket capture of the iterative strategy — its extra
        // round-trips are accounted in the detach phase.)
        self.capture_keys.clear();
        self.self_rules.clear();
        let mut install_failed = false;
        for (_, _, sock) in Self::migratable_sockets(io.proc, io.src_stack) {
            let local = sock.local();
            let key = match sock.remote() {
                Some(remote) => CaptureKey::connected(remote, local.port),
                None => CaptureKey::any_remote(local.port),
            };
            if !io.dst_stack.capture.try_enable(key, io.now) {
                install_failed = true;
                break;
            }
            self.capture_keys.push(key);
            sink.emit(io.now, Effect::InstallCapture { key });

            // In-cluster connection: the peer needs a translation rule and
            // the destination a self-rule (§III-C, §V-D).
            if let Some(remote) = sock.remote() {
                if let Some(peer_node) = remote.ip.local_host() {
                    let rule = XlateRule::new(remote, local.ip, io.dst_stack.local_ip, local.port);
                    self.sent_rules.push((peer_node, rule));
                    sink.emit(
                        io.now,
                        Effect::SendXlate {
                            peer: peer_node,
                            rule,
                        },
                    );
                    self.self_rules.push(SelfXlateRule {
                        sock_local: local,
                        peer: remote,
                        host_ip: io.dst_stack.local_ip,
                    });
                }
            }
        }

        if install_failed {
            // A capture hook the destination refused means packets would be
            // lost during detach: the migration cannot proceed safely. Roll
            // the remote state back and resume in place — the source
            // sockets were never touched.
            self.staged = None;
            self.self_rules.clear();
            for (peer, rule) in self.sent_rules.drain(..) {
                sink.emit(io.now, Effect::RevokeXlate { peer, rule });
            }
            for key in self.capture_keys.drain(..) {
                io.dst_stack.capture.disable_and_drain(&key);
                sink.emit(io.now, Effect::RemoveCapture { key });
            }
            sink.emit(io.now, Effect::ResumeApp);
            io.proc.resume_all();
            self.phase = Phase::Aborted;
            sink.emit(
                io.now,
                Effect::Aborted(MigrationAborted {
                    phase: PhaseId::FreezeCapture,
                    reason: AbortReason::CaptureInstallFailed,
                    recovery: AbortRecovery::ResumedOnSource,
                }),
            );
            return StepPlan {
                next_step_after_us: None,
            };
        }

        // Zone interest moves with the sockets: the destination subscribes
        // the moment its capture hooks are armed, so under AOI routing it
        // hears (and captures) the client's frames during transit exactly
        // as it would under full broadcast. Emitted only after the capture
        // install succeeded — the inline rollback above owes no
        // compensation.
        for &zone in &self.zones {
            sink.emit(
                io.now,
                Effect::Subscribe {
                    zone,
                    side: Side::Dst,
                },
            );
        }

        let n = self.capture_keys.len() as u64;
        let setup = match self.strategy {
            // One aggregated capture message for all connections.
            Strategy::Collective | Strategy::IncrementalCollective => self.cost.capture_setup_us(n),
            // The first socket's handshake; the rest are inside the
            // per-socket detach loop.
            Strategy::Iterative => self.cost.rtt_us(),
        };
        self.phase = Phase::Detach;
        StepPlan {
            next_step_after_us: Some(self.cost.signal_us + self.cost.barrier_us + setup),
        }
    }

    fn step_detach(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Deadline audit: the app froze at capture but its sockets are
        // still hashed on the source — aborting here resumes it in place
        // (ResumedOnSource), which is still cheap.
        if self.deadline_exceeded(io.now) {
            let StepIo {
                now,
                src_stack,
                dst_stack,
                ..
            } = io;
            self.abort(
                AbortReason::Overloaded,
                AbortIo {
                    now,
                    src_stack: Some(src_stack),
                    dst_stack: Some(dst_stack),
                },
                sink,
            );
            return StepPlan {
                next_step_after_us: None,
            };
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::FreezeDetach));
        // Record source jiffies for the timestamp adjustment (§V-C1).
        self.src_jiffies_at_detach = io.src_stack.jiffies(io.now);

        // Sockets in non-migratable states (mid-handshake, closing) are not
        // worth carrying: release them so the source keeps no residue. The
        // application sees them as closed after restore.
        let stale: Vec<SockId> = io
            .proc
            .fds
            .sockets()
            .filter(|(_, sid)| io.src_stack.sock(*sid).is_none_or(|s| !s.is_migratable()))
            .map(|(_, sid)| sid)
            .collect();
        for sid in stale {
            io.src_stack.release(sid);
        }

        // Disable and subtract every migratable socket, in fd order.
        let socks = Self::migratable_sockets(io.proc, io.src_stack)
            .into_iter()
            .map(|(fd, sid, _)| (fd, sid))
            .collect::<Vec<_>>();

        let mut sock_bytes = 0u64;
        let mut sock_time = 0u64;
        for (fd, sid) in socks {
            let sock = io
                .src_stack
                .detach_socket(sid)
                .expect("socket listed in fd table exists");
            // Take any destination-side rules this host held for it (no
            // residual dependencies on re-migration; kept around so an
            // abort can reinstate them), and carry along its view of other
            // migrated peers.
            self.src_self_rules
                .extend(io.src_stack.xlate.take_self_rules_for(sock.local()));
            self.carried_rules
                .extend(io.src_stack.xlate.take_rules_for(sock.local()));
            sink.emit(io.now, Effect::SocketDetached { sock: sid });
            let b = match self.strategy {
                Strategy::Iterative | Strategy::Collective => sock.record_len(),
                Strategy::IncrementalCollective => {
                    let since = self.sock_stamps.get(&sid).copied().unwrap_or(0);
                    sock.delta_len(since)
                }
            } + ATTACH_RECORD;
            sink.emit(
                io.now,
                Effect::Shipped {
                    class: ByteClass::FreezeSocket,
                    bytes: b,
                },
            );
            sock_bytes += b;
            if self.strategy == Strategy::Iterative {
                sock_time += self.cost.per_socket_iterative_us(b);
            }
            self.in_flight.push((fd, sock));
        }
        if self.strategy.is_collective() {
            sock_time = self.cost.bulk_us(sock_bytes);
        }

        // Final incremental memory step + the freeze records the leader
        // thread dumps (open-file table, thread registers, signal handlers).
        let update = incremental_update(&mut self.tracker, io.proc);
        let staged = self.staged.as_mut().expect("staged process exists");
        apply_update(staged, &update);
        let mem_bytes =
            update.transfer_bytes() + dvelm_ckpt::freeze_records(io.proc).transfer_bytes();
        let mem_time = self.cost.bulk_us(mem_bytes);
        sink.emit(
            io.now,
            Effect::Shipped {
                class: ByteClass::FreezeMem,
                bytes: mem_bytes,
            },
        );

        self.phase = Phase::Restore;
        StepPlan {
            next_step_after_us: Some(sock_time + mem_time + self.cost.barrier_us),
        }
    }

    fn step_restore(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Deadline audit: a stalled post-detach transfer (e.g. a partition
        // that parked the migration between detach and restore) can
        // overshoot the wall-clock budget. Restore-on-source is the
        // compensation row — the process resumes at home instead of
        // committing a restore the conductor already gave up on.
        if self.deadline_exceeded(io.now) {
            let StepIo {
                now,
                src_stack,
                dst_stack,
                ..
            } = io;
            self.abort(
                AbortReason::Overloaded,
                AbortIo {
                    now,
                    src_stack: Some(src_stack),
                    dst_stack: Some(dst_stack),
                },
                sink,
            );
            return StepPlan {
                next_step_after_us: None,
            };
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::Restore));
        let mut staged = self.staged.take().expect("staged process exists");

        // Timestamp adjustment: difference between destination jiffies now
        // and source jiffies at checkpoint (§V-C1).
        let delta = io
            .dst_stack
            .jiffies(io.now)
            .delta(self.src_jiffies_at_detach);

        let mut installed: Vec<(Fd, SockId)> = Vec::new();
        let mut failure: Option<(Fd, Socket)> = None;
        let mut remaining = std::mem::take(&mut self.in_flight).into_iter();
        for (fd, mut sock) in remaining.by_ref() {
            sock.apply_jiffies_delta(delta);
            match io.dst_stack.try_install_socket(sock, io.now) {
                Ok((sid, fx)) => {
                    for effect in fx {
                        sink.emit(
                            io.now,
                            Effect::Stack {
                                side: Side::Dst,
                                effect,
                            },
                        );
                    }
                    installed.push((fd, sid));
                }
                Err(mut sock) => {
                    sock.apply_jiffies_delta(-delta);
                    failure = Some((fd, sock));
                    break;
                }
            }
        }
        if let Some((fd, sock)) = failure {
            // A socket the destination cannot rehash strands the whole
            // restore: unwind the partial install (reversing the timestamp
            // shift) and fall back to the source, which is still alive.
            let mut back: Vec<(Fd, Socket)> = Vec::new();
            for (fd, sid) in installed {
                let mut sock = io
                    .dst_stack
                    .detach_socket(sid)
                    .expect("socket installed moments ago exists");
                sock.apply_jiffies_delta(-delta);
                back.push((fd, sock));
            }
            back.push((fd, sock));
            back.extend(remaining);
            self.in_flight = back;
            self.staged = Some(staged);
            let recovery = self.abort_restore(io.now, Some(io.src_stack), Some(io.dst_stack), sink);
            self.phase = Phase::Aborted;
            sink.emit(
                io.now,
                Effect::Aborted(MigrationAborted {
                    phase: PhaseId::Restore,
                    reason: AbortReason::RestoreFailed,
                    recovery,
                }),
            );
            return StepPlan {
                next_step_after_us: None,
            };
        }
        // Reattach "to the right file descriptor of the process": the
        // BLCR-restored fd table has these slots empty (sockets were
        // omitted from the image).
        for (fd, sid) in installed {
            staged.fds.insert_at(fd, dvelm_proc::FdEntry::Socket(sid));
        }
        for rule in self.self_rules.drain(..) {
            io.dst_stack.xlate.install_self(rule);
        }
        for rule in self.carried_rules.drain(..) {
            io.dst_stack.xlate.install_at(rule, io.now);
        }

        // Re-inject captured packets through the okfn() path, then let the
        // process run.
        for key in self.capture_keys.drain(..) {
            for seg in io.dst_stack.capture.disable_and_drain(&key) {
                sink.emit(io.now, Effect::PacketReinjected);
                for effect in io.dst_stack.reinject(seg, io.now) {
                    sink.emit(
                        io.now,
                        Effect::Stack {
                            side: Side::Dst,
                            effect,
                        },
                    );
                }
            }
        }
        staged.resume_all();
        staged.cpu_share = io.proc.cpu_share;

        // Switch-over: the destination copy runs from this instant, so the
        // source's zone subscriptions end here (the destination subscribed
        // at capture setup and simply keeps its seat).
        for &zone in &self.zones {
            sink.emit(
                io.now,
                Effect::Unsubscribe {
                    zone,
                    side: Side::Src,
                },
            );
        }

        self.phase = Phase::Done;
        // Complete is the final effect of the migration, after every
        // destination stack effect above; its timestamp ends the freeze.
        sink.emit(
            io.now,
            Effect::Complete(MigrationComplete { process: staged }),
        );
        StepPlan {
            next_step_after_us: None,
        }
    }
}
