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
//!                  [InstallCapture…], [SendXlate…], [Stack(Src)…]
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
//! DemandResolve ×k PhaseEntered(DemandResolve) once (at restore end,
//!                  when the destination resumes), then per round
//!                  [Shipped(DemandFetch)…], [Shipped(WriteBack)…],
//!                  finally Complete — post-copy family only: the source's
//!                  residual-dependency ledger services demand faults
//!                  (priority) and a background write-back stream until
//!                  every page has landed
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
    IncrementalUpdate, PageRecord, VmaDiff, PAGE_RECORD_OVERHEAD,
};
use dvelm_net::{NodeId, ZoneId};
use dvelm_proc::{Fd, Pid, Process, PAGE_SIZE};
use dvelm_sim::{Jiffies, SimTime};
use dvelm_stack::capture::CaptureKey;
use dvelm_stack::xlate::{SelfXlateRule, XlateRule};
use dvelm_stack::{HostStack, SockId, Socket};
use std::collections::{BTreeMap, VecDeque};

/// Per-socket attach record shipped in the freeze phase (fd binding), bytes.
const ATTACH_RECORD: u64 = 16;

/// Transfer size of one residual page (record header + payload), bytes.
const RESIDUAL_PAGE_BYTES: u64 = PAGE_RECORD_OVERHEAD + PAGE_SIZE;

/// Demand faults serviced per demand-resolve round. The faulted-page queue
/// preempts the background write-back stream: every fault is a synchronous
/// round trip the destination is blocked on.
const DEMAND_FAULTS_PER_STEP: usize = 4;

/// Pages pushed per background write-back batch each demand-resolve round.
const WRITEBACK_BATCH_PAGES: usize = 32;

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
    /// Escalation policy: when the convergence guard fires, degrade the
    /// non-converging precopy into a hybrid switch-over (freeze now, ship
    /// metadata + sockets only, resolve the residual pages on demand —
    /// [`PhaseId::DemandResolve`]) instead of aborting. Off by default so
    /// fault-free figures stay byte-identical to the unguarded runs.
    pub escalate_nonconverging: bool,
}

impl OverloadGuard {
    /// Both guards off (the default).
    pub const DISABLED: OverloadGuard = OverloadGuard {
        deadline_us: None,
        max_stagnant_rounds: None,
        escalate_nonconverging: false,
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
    DemandResolve,
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
    /// Signal-based checkpoint notification (the paper's design). When
    /// false, checkpointing is kernel-initiated (as in the incremental-C/R
    /// systems the paper cites): threads are not pulled out of system
    /// calls, so sockets can reach the freeze phase locked, with non-empty
    /// backlogs/prequeues that must be shipped too.
    pub signal_based: bool,
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
    /// Precopy rounds completed (bounds the hybrid prefix).
    rounds_done: u32,
    /// Residual-dependency ledger (post-copy family): pages that stayed
    /// authoritative on the source at switch-over and have not yet landed
    /// on the destination. The queue front is the next demand fault; the
    /// background write-back stream drains from the same queue behind it.
    /// Not cleared on abort — the owner reads the outstanding count to
    /// attribute residual leaks.
    residual: VecDeque<PageRecord>,
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
            signal_based: true,
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
            rounds_done: 0,
            residual: VecDeque::new(),
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
        matches!(
            self.phase,
            Phase::Restore | Phase::DemandResolve | Phase::Done
        )
    }

    /// Whether the engine is resolving residual dependencies (post-copy
    /// family): the process already runs on the destination while the
    /// source ledger services demand fetches and the write-back stream.
    pub fn in_demand_resolve(&self) -> bool {
        self.phase == Phase::DemandResolve
    }

    /// Outstanding residual-dependency ledger entries: pages still
    /// authoritative on the source after switch-over. Zero for the
    /// stop-and-copy strategies and once the resolve drains. Preserved
    /// across an abort so the owner can attribute residual leaks.
    pub fn residual_pages(&self) -> u64 {
        self.residual.len() as u64
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
            Phase::DemandResolve => self.step_demand_resolve(io, sink),
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
            // Switch-over done: the destination copy runs, the source
            // ledger is still authoritative for the unfetched pages. Fall
            // back per the abort-row table (DESIGN.md §12) — while the
            // ledger is intact, `Lost` is impossible.
            Phase::DemandResolve => {
                let recovery = self.abort_demand_resolve(now, src_stack, dst_stack, sink);
                (PhaseId::DemandResolve, recovery)
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

    /// Demand-resolve abort: the destination already runs the process; the
    /// source still holds the residual-dependency ledger (every unfetched
    /// page) *and* the write-back log (pages already pushed), which together
    /// reassemble the full image. Socket state, however, has lived on the
    /// destination since switch-over: a post-switch-over failure loses the
    /// connections (BLCR semantics), unlike the pre-detach rows.
    ///
    /// Outcome rows (`Lost` requires a destroyed ledger):
    /// * source alive → `RestoredOnSource`: the image is reassembled on the
    ///   source from ledger + write-back log; sockets are closed.
    /// * source dead, ledger already drained → `ImageOnly`: the destination
    ///   image is complete (cold-restart fodder).
    /// * source dead, residual outstanding → `Lost` — the stale-source
    ///   hazard realized: the destination copy is missing pages only the
    ///   (dead) ledger held.
    fn abort_demand_resolve(
        &mut self,
        now: SimTime,
        src_stack: Option<&mut HostStack>,
        dst_stack: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) -> AbortRecovery {
        for (peer, rule) in self.sent_rules.drain(..) {
            sink.emit(now, Effect::RevokeXlate { peer, rule });
        }
        self.self_rules.clear();
        self.carried_rules.clear();
        self.src_self_rules.clear();
        let Some(mut staged) = self.staged.take() else {
            // Unreachable by construction: DemandResolve always stages.
            return AbortRecovery::Lost;
        };
        // Tear the destination copy down if that node still lives: its
        // sockets are released (the connections break) and the translation
        // rules installed at restore are withdrawn with them.
        let sids: Vec<(Fd, SockId)> = staged.fds.sockets().collect();
        if let Some(dst) = dst_stack {
            for (_, sid) in &sids {
                if let Some(sock) = dst.sock(*sid) {
                    let local = sock.local();
                    let _ = dst.xlate.take_self_rules_for(local);
                    let _ = dst.xlate.take_rules_for(local);
                }
                dst.release(*sid);
            }
        }
        for (fd, _) in sids {
            staged.fds.close(fd);
        }

        // The source already gave its interest seats up at switch-over, so
        // unlike the pre-switch-over rows the compensation must *restore*
        // them when the process falls back home — and in every row the
        // destination's seats end with its torn-down copy.
        for &zone in &self.zones {
            sink.emit(
                now,
                Effect::Unsubscribe {
                    zone,
                    side: Side::Dst,
                },
            );
        }
        match src_stack {
            Some(_) => {
                // Ledger intact: reassemble the image on the source. Pages
                // still in the ledger never left it; pages already pushed
                // are replayed from the write-back log (in-model, `staged`
                // already holds them). The ledger itself is kept so the
                // owner can observe the outstanding count.
                let pages: Vec<PageRecord> = self.residual.iter().copied().collect();
                apply_update(
                    &mut staged,
                    &IncrementalUpdate {
                        vma_diff: VmaDiff::default(),
                        pages,
                    },
                );
                for &zone in &self.zones {
                    sink.emit(
                        now,
                        Effect::Subscribe {
                            zone,
                            side: Side::Src,
                        },
                    );
                }
                AbortRecovery::RestoredOnSource(staged)
            }
            None if self.residual.is_empty() => AbortRecovery::ImageOnly(staged),
            None => AbortRecovery::Lost,
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
        if self.strategy == Strategy::PostCopy {
            // Restore-first: no precopy transfer at all. Signal, then go
            // straight to the switch-over; the entire image stays
            // authoritative on the source as the residual-dependency
            // ledger, built at detach.
            if self.signal_based {
                io.proc.signal_checkpoint();
            }
            self.phase = Phase::CaptureRequest;
            return StepPlan {
                next_step_after_us: Some(self.cost.signal_us),
            };
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyFull));
        // Live checkpoint request: signal; all threads return to userspace
        // (guaranteeing empty backlogs/prequeues, §V-C1), then the helper
        // thread transfers the full image while the app continues.
        if self.signal_based {
            io.proc.signal_checkpoint();
        }
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
        // Hybrid prefix bound: after `precopy_rounds` iterations the
        // strategy switches over regardless of convergence — the remaining
        // dirty set resolves on demand, so a bounded prefix is safe even
        // against a workload that never converges.
        if let Some(limit) = self.strategy.precopy_round_limit() {
            if self.rounds_done >= limit {
                self.phase = Phase::CaptureRequest;
                return self.step_capture_request(io, sink);
            }
        }
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
                if self.guard.escalate_nonconverging {
                    // Escalation ladder: instead of abandoning the
                    // migration the guard degrades it into a hybrid
                    // switch-over — freeze now, ship metadata + sockets
                    // only, and resolve the residual dirty set on demand.
                    // The strategy mutates so the detach/restore arms take
                    // the residual path; the report keeps the strategy the
                    // migration was started with.
                    self.rounds_done += 1;
                    self.strategy = Strategy::Hybrid {
                        precopy_rounds: self.rounds_done,
                    };
                    self.phase = Phase::CaptureRequest;
                    return StepPlan {
                        next_step_after_us: Some(delay.max(self.cost.signal_us)),
                    };
                }
                return self.abort_in_precopy(io.now, AbortReason::NonConverging, sink);
            }
        }

        // "In each subsequent iteration the loop timeout is decreased. When
        // it reaches a threshold (currently 20 ms) it signals the
        // application threads for final checkpointing."
        self.rounds_done += 1;
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
        // has not begun, so the rollback is still free. The residual
        // family is exempt past precopy: its switch-over *is* the bounded
        // completion path (finishing beats rolling back).
        if !self.strategy.has_demand_resolve() && self.deadline_exceeded(io.now) {
            return self.abort_in_precopy(io.now, AbortReason::Overloaded, sink);
        }
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::FreezeCapture));
        // Freeze begins: signal for the final checkpoint, threads barrier.
        // SuspendApp must precede the source stack effects below, so the
        // owner sees the process suspended before backlog processing runs.
        sink.emit(io.now, Effect::SuspendApp);
        let mut src_effects = Vec::new();
        if self.signal_based {
            // Every thread abandons its system call and returns to
            // userspace: socket locks drop and the fast path is left, so
            // parked segments are processed *before* the state is dumped.
            io.proc.signal_checkpoint();
            let sids: Vec<SockId> = io.proc.fds.sockets().map(|(_, s)| s).collect();
            for sid in sids {
                if let Some(Socket::Tcp(t)) = io.src_stack.sock_mut(sid) {
                    t.user_locked = false;
                    t.fast_path_reader = false;
                }
                src_effects.extend(io.src_stack.set_user_locked(sid, false, io.now));
            }
        }
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
        for effect in src_effects {
            sink.emit(
                io.now,
                Effect::Stack {
                    side: Side::Src,
                    effect,
                },
            );
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
            // One aggregated capture message for all connections (the
            // residual family switches over collectively too).
            Strategy::Collective
            | Strategy::IncrementalCollective
            | Strategy::PostCopy
            | Strategy::Hybrid { .. } => self.cost.capture_setup_us(n),
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
        // (ResumedOnSource), which is still cheap. Exempt for the residual
        // family (see `step_capture_request`).
        if !self.strategy.has_demand_resolve() && self.deadline_exceeded(io.now) {
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
            let parked_nonempty = match &sock {
                Socket::Tcp(t) => !t.parked_queues_empty(),
                _ => false,
            };
            sink.emit(
                io.now,
                Effect::SocketDetached {
                    sock: sid,
                    parked_nonempty,
                },
            );
            let b = match self.strategy {
                // Post-copy never shipped socket state before the freeze.
                Strategy::Iterative | Strategy::Collective | Strategy::PostCopy => {
                    sock.record_len()
                }
                Strategy::IncrementalCollective => {
                    let since = self.sock_stamps.get(&sid).copied().unwrap_or(0);
                    sock.delta_len(since)
                }
                // A hybrid that *escalated* out of a non-tracking strategy
                // has no precopy baseline (stamp 0): ship the full record.
                Strategy::Hybrid { .. } => match self.sock_stamps.get(&sid).copied().unwrap_or(0) {
                    0 => sock.record_len(),
                    since => sock.delta_len(since),
                },
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
        // The residual family defers the pages themselves: only metadata
        // (VMA layout + freeze records) crosses in the freeze window, and
        // every deferred page is seeded into the source's residual-
        // dependency ledger for the demand-resolve phase.
        let mem_bytes = if self.strategy.has_demand_resolve() {
            let (full_bytes, pages) = if self.strategy == Strategy::PostCopy {
                // No precopy ran: the ledger is the entire image. Stage
                // the process now (metadata + VMA layout; the transfer of
                // its pages is what the ledger accounts).
                let img = full_checkpoint(io.proc);
                self.staged = Some(restore_process(&img));
                (img.transfer_bytes(), img.pages)
            } else {
                let update = incremental_update(&mut self.tracker, io.proc);
                let bytes =
                    update.transfer_bytes() + dvelm_ckpt::freeze_records(io.proc).transfer_bytes();
                let IncrementalUpdate { vma_diff, pages } = update;
                let staged = self.staged.as_mut().expect("staged process exists");
                apply_update(
                    staged,
                    &IncrementalUpdate {
                        vma_diff,
                        pages: Vec::new(),
                    },
                );
                (bytes, pages)
            };
            let ledger_bytes = pages.len() as u64 * RESIDUAL_PAGE_BYTES;
            self.residual = pages.into();
            full_bytes - ledger_bytes
        } else {
            let update = incremental_update(&mut self.tracker, io.proc);
            let staged = self.staged.as_mut().expect("staged process exists");
            apply_update(staged, &update);
            update.transfer_bytes() + dvelm_ckpt::freeze_records(io.proc).transfer_bytes()
        };
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
        // committing a restore the conductor already gave up on. Exempt
        // for the residual family (see `step_capture_request`).
        if !self.strategy.has_demand_resolve() && self.deadline_exceeded(io.now) {
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

        if self.strategy.has_demand_resolve() && !self.residual.is_empty() {
            // Switch-over complete: the destination runs the process from
            // this instant — the freeze window ends here — while the
            // source ledger stays authoritative for the residual pages.
            // Completion is deferred until the ledger drains.
            self.staged = Some(staged);
            self.phase = Phase::DemandResolve;
            sink.emit(io.now, Effect::PhaseEntered(PhaseId::DemandResolve));
            return StepPlan {
                next_step_after_us: Some(self.cost.rtt_us()),
            };
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

    /// One demand-resolve round: service the faulted-page queue first
    /// (demand fetches cost a round trip each and preempt the background
    /// stream), then push one bounded write-back batch. Pages leave the
    /// source ledger only as they land, so an abort at any instant still
    /// finds every unfetched page authoritative on the source.
    ///
    /// The wall-clock deadline is deliberately *not* enforced here: the
    /// destination already runs the application, the ledger only shrinks
    /// (each round moves ≥ 1 page), and rolling back costs strictly more
    /// than finishing. Overload shows up as slower rounds, never as an
    /// abandoned live process.
    fn step_demand_resolve(&mut self, io: StepIo<'_>, sink: &mut dyn EffectSink) -> StepPlan {
        if self.residual.is_empty() {
            // The last batch has landed: the source owes nothing. Hand
            // the process over — Complete stays the final effect.
            let Some(staged) = self.staged.take() else {
                return StepPlan::default();
            };
            self.phase = Phase::Done;
            sink.emit(
                io.now,
                Effect::Complete(MigrationComplete { process: staged }),
            );
            return StepPlan {
                next_step_after_us: None,
            };
        }
        let Some(staged) = self.staged.as_mut() else {
            return StepPlan::default();
        };
        let mut delay = 0u64;
        let mut landed: Vec<PageRecord> = Vec::new();
        // Faulted-page queue: pages the destination touched before they
        // arrived; each fault blocks a destination thread on a synchronous
        // round trip to the source.
        let faults = DEMAND_FAULTS_PER_STEP.min(self.residual.len());
        for _ in 0..faults {
            let Some(page) = self.residual.pop_front() else {
                break;
            };
            sink.emit(
                io.now,
                Effect::Shipped {
                    class: ByteClass::DemandFetch,
                    bytes: RESIDUAL_PAGE_BYTES,
                },
            );
            delay += self.cost.rtt_us() + self.cost.transfer_us(RESIDUAL_PAGE_BYTES);
            landed.push(page);
        }
        // Background write-back: one bounded batch behind the fetches.
        let batch = WRITEBACK_BATCH_PAGES.min(self.residual.len());
        if batch > 0 {
            let mut bytes = 0u64;
            for _ in 0..batch {
                let Some(page) = self.residual.pop_front() else {
                    break;
                };
                sink.emit(
                    io.now,
                    Effect::Shipped {
                        class: ByteClass::WriteBack,
                        bytes: RESIDUAL_PAGE_BYTES,
                    },
                );
                bytes += RESIDUAL_PAGE_BYTES;
                landed.push(page);
            }
            delay += self.cost.bulk_us(bytes);
        }
        apply_update(
            staged,
            &IncrementalUpdate {
                vma_diff: VmaDiff::default(),
                pages: landed,
            },
        );
        StepPlan {
            next_step_after_us: Some(delay.max(1)),
        }
    }
}
