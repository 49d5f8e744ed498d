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
//! Every abort goes through [`MigrationEngine::abort`]: the owner's, the
//! deadline's (checked once, before each step), the convergence guard's and
//! the destination's refusals (a capture hook, a socket rehash). It replaces
//! the remaining phases with compensating effects. The row is the last
//! phase entered, with the precopy rounds folded into one; the
//! compensation follows from what the migration holds (§III's free-rollback
//! property: until detach the source copy is still authoritative):
//!
//! ```text
//! row (last entered)   effects emitted (in order)
//! ──────────────────   ──────────────────────────
//! PrecopyFull (none),  Aborted(SourceKeptRunning) — holds nothing: the app
//! PrecopyIter          never stopped, the staged image is dropped
//! FreezeCapture        [RevokeXlate…], [RemoveCapture…],
//!                      [Unsubscribe(Dst)…]†, ResumeApp,
//!                      Aborted(ResumedOnSource) — holds captures and peer
//!                      rules, sockets still hashed on the source: rules
//!                      recalled, captures disabled on the destination, the
//!                      owner resumes the threads in place
//! FreezeDetach,        [RevokeXlate…], [Unsubscribe(Dst)…], [Stack(Src)…],
//! Restore              [RemoveCapture, [PacketReinjected, Stack(Src)…]…],
//!                      Aborted(RestoredOnSource) — holds the sockets, in
//!                      flight: reinstalled on the source, captured packets
//!                      re-injected there, the staged process resumed
//! (source dead)        Aborted(Lost) pre-detach (no ResumeApp); after it
//!                      [RemoveCapture…], [Unsubscribe(Src)…],
//!                      Aborted(ImageOnly) — only the captured image survives
//!                      (cold-restart fodder)
//! ```
//!
//! † Only once every capture hook was armed: a refused hook aborts before
//! the destination subscribes.
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
    /// The last phase announced by [`Effect::PhaseEntered`]: an abort's
    /// row.
    entered: Option<PhaseId>,
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
            entered: None,
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

    /// Whether the source sockets have already been detached — the point of
    /// no free return: an abort after this restores from the captured image
    /// instead of simply resuming the source copy.
    pub fn past_detach(&self) -> bool {
        matches!(self.phase, Phase::Restore | Phase::Done)
    }

    /// Execute the current phase, emitting its effects into `sink`. The
    /// owner must call this exactly when the previous plan's
    /// `next_step_after_us` elapses.
    pub fn step(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        // Every phase may read the process image; make its logged writes.
        io.proc.addr_space.settle();
        // The wall-clock budget is checked before a step spends anything:
        // an expired deadline aborts from wherever the migration stands.
        if self.deadline_exceeded(io.now) {
            return self.abort_step(AbortReason::Overloaded, io, sink);
        }
        match self.phase {
            Phase::Start => self.step_start(io, sink),
            Phase::PrecopyIter => self.step_precopy(io, sink),
            Phase::CaptureRequest => self.step_capture_request(io, sink),
            Phase::Detach => self.step_detach(io, sink),
            Phase::Restore => self.step_restore(io, sink),
            Phase::Done | Phase::Aborted => StepPlan::default(),
        }
    }

    /// Abort the migration, emitting the compensating effects (see the
    /// module docs) and finally [`Effect::Aborted`]. Safe to call in any
    /// phase; a no-op once the migration is finished. Every abort — the
    /// owner's, the guards', a destination refusal — ends here.
    ///
    /// The row is the last phase entered (precopy rounds fold into one
    /// row); the compensation follows from what the migration holds:
    /// nothing yet (precopy), capture entries and peer rules with the
    /// sockets still on the source (freeze begun), or the sockets
    /// themselves, in flight (past detach).
    pub fn abort(&mut self, reason: AbortReason, io: AbortIo<'_>, sink: &mut dyn EffectSink) {
        if matches!(self.phase, Phase::Done | Phase::Aborted) {
            return;
        }
        let AbortIo {
            now,
            src_stack,
            dst_stack,
        } = io;
        let phase = match self.entered {
            None => PhaseId::PrecopyFull,
            Some(PhaseId::PrecopyFull) => PhaseId::PrecopyIter,
            Some(entered) => entered,
        };
        // Peer rules are recalled first, so their removal is in flight
        // before the application can send again.
        for (peer, rule) in self.sent_rules.drain(..) {
            sink.emit(now, Effect::RevokeXlate { peer, rule });
        }
        self.self_rules.clear();
        let staged = self.staged.take();
        let recovery = match phase {
            // The source copy never stopped; the staged image is dropped
            // and nothing was installed anywhere.
            PhaseId::PrecopyFull | PhaseId::PrecopyIter => match src_stack {
                Some(_) => AbortRecovery::SourceKeptRunning,
                None => AbortRecovery::Lost,
            },
            // App frozen, captures enabled on the destination, but the
            // sockets are still hashed on the source: tear the remote
            // state down and resume in place.
            PhaseId::FreezeCapture => {
                self.drain_captures(now, dst_stack, None, sink);
                // The destination subscribed once every capture hook was
                // armed; a refused hook leaves it unsubscribed.
                if self.phase == Phase::Detach {
                    self.unsubscribe(now, Side::Dst, sink);
                }
                if src_stack.is_some() {
                    sink.emit(now, Effect::ResumeApp);
                    AbortRecovery::ResumedOnSource
                } else {
                    AbortRecovery::Lost
                }
            }
            // The sockets are in flight and the source holds nothing:
            // rebuild there from the staged image if the source lives.
            PhaseId::FreezeDetach | PhaseId::Restore => {
                // Whatever survives, the destination stops receiving for
                // this process; the source kept its seat (switch-over
                // never ran).
                self.unsubscribe(now, Side::Dst, sink);
                self.restore_on_source(now, staged, src_stack, dst_stack, sink)
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

    /// [`abort`](Self::abort) from inside a step, where both stacks live.
    fn abort_step(
        &mut self,
        reason: AbortReason,
        io: StepIo<'_>,
        sink: &mut dyn EffectSink,
    ) -> StepPlan {
        let io = AbortIo {
            now: io.now,
            src_stack: Some(io.src_stack),
            dst_stack: Some(io.dst_stack),
        };
        self.abort(reason, io, sink);
        StepPlan::default()
    }

    /// Post-detach compensation: reinstall the in-flight sockets on the
    /// source, drain the destination captures into it and resume the
    /// staged process. With the source dead only the image survives.
    fn restore_on_source(
        &mut self,
        now: SimTime,
        staged: Option<Process>,
        src_stack: Option<&mut HostStack>,
        dst_stack: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) -> AbortRecovery {
        let Some(src) = src_stack else {
            // Its sockets are lost with the source (BLCR semantics).
            self.drain_captures(now, dst_stack, None, sink);
            self.in_flight.clear();
            // Nothing live is left anywhere: clear the source's seat too
            // (idempotent when the owner already purged the dead node).
            self.unsubscribe(now, Side::Src, sink);
            return match staged {
                Some(img) => AbortRecovery::ImageOnly(img),
                None => AbortRecovery::Lost,
            };
        };
        let mut staged = staged.expect("staged process exists past detach");
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
        self.drain_captures(now, dst_stack, Some(src), sink);
        staged.resume_all();
        AbortRecovery::RestoredOnSource(staged)
    }

    /// Disable this migration's capture entries on the destination (if it
    /// lives), re-injecting what they queued into `reinject_into` or
    /// discarding it.
    fn drain_captures(
        &mut self,
        now: SimTime,
        dst_stack: Option<&mut HostStack>,
        mut reinject_into: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) {
        let Some(dst) = dst_stack else {
            self.capture_keys.clear();
            return;
        };
        for key in self.capture_keys.drain(..) {
            let segs = dst.capture.disable_and_drain(&key);
            sink.emit(now, Effect::RemoveCapture { key });
            let Some(src) = reinject_into.as_deref_mut() else {
                continue;
            };
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
    }

    /// Drop `side`'s interest seat in every zone the process serves.
    fn unsubscribe(&self, now: SimTime, side: Side, sink: &mut dyn EffectSink) {
        for &zone in &self.zones {
            sink.emit(now, Effect::Unsubscribe { zone, side });
        }
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
        self.entered = Some(PhaseId::PrecopyFull);
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyFull));
        // Initialize the dirty/VMA tracking (clears dirty bits). It folds
        // the pages' pending writes first, so the full image below reads
        // stored fingerprints and computes no write chain twice.
        let _ = incremental_update(&mut self.tracker, io.proc);
        // Live checkpoint request: the helper thread transfers the full
        // image while the app continues.
        let img = full_checkpoint(io.proc);
        let mem_bytes = img.transfer_bytes();
        let mut bytes = mem_bytes;
        self.staged = Some(restore_process(&img));
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
        self.entered = Some(PhaseId::PrecopyIter);
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
                return self.abort_step(AbortReason::NonConverging, io, sink);
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

    fn step_capture_request(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        self.entered = Some(PhaseId::FreezeCapture);
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
        let mut refused = false;
        for (_, _, sock) in Self::migratable_sockets(io.proc, io.src_stack) {
            let local = sock.local();
            let key = match sock.remote() {
                Some(remote) => CaptureKey::connected(remote, local.port),
                None => CaptureKey::any_remote(local.port),
            };
            if !io.dst_stack.capture.try_enable(key, io.now) {
                refused = true;
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

        if refused {
            // A capture hook the destination refused means packets would be
            // lost during detach: the migration cannot proceed safely. The
            // source sockets were never touched, so it resumes in place.
            return self.abort_step(AbortReason::CaptureInstallFailed, io, sink);
        }

        // Zone interest moves with the sockets: the destination subscribes
        // the moment its capture hooks are armed, so under AOI routing it
        // hears (and captures) the client's frames during transit exactly
        // as it would under full broadcast. Emitted only after every
        // capture hook was armed, so a refused hook owes no compensation.
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
        self.entered = Some(PhaseId::FreezeDetach);
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
        self.entered = Some(PhaseId::Restore);
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::Restore));
        let mut staged = self.staged.take().expect("staged process exists");

        // Timestamp adjustment: difference between destination jiffies now
        // and source jiffies at checkpoint (§V-C1).
        let delta = io
            .dst_stack
            .jiffies(io.now)
            .delta(self.src_jiffies_at_detach);

        let mut in_flight = std::mem::take(&mut self.in_flight).into_iter();
        while let Some((fd, mut sock)) = in_flight.next() {
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
                    // Reattach "to the right file descriptor of the
                    // process": the BLCR-restored fd table has these slots
                    // empty (sockets were omitted from the image).
                    staged.fds.insert_at(fd, dvelm_proc::FdEntry::Socket(sid));
                }
                Err(mut sock) => {
                    // A socket the destination cannot rehash strands the
                    // whole restore. Refusals are armed between steps and
                    // each consumes its arming, so only a step's first
                    // rehash can fail: nothing is on the destination yet.
                    // Everything goes back in flight, unshifted, and the
                    // source — still alive — takes the process back.
                    sock.apply_jiffies_delta(-delta);
                    self.in_flight.push((fd, sock));
                    self.in_flight.extend(in_flight);
                    self.staged = Some(staged);
                    return self.abort_step(AbortReason::RestoreFailed, io, sink);
                }
            }
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
        self.unsubscribe(io.now, Side::Src, sink);

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
