//! The live-migration state machine (Fig. 3 + §III-C).
//!
//! One [`MigrationEngine`] instance drives one migration. The owner (the
//! cluster runtime, or a test harness) calls [`step`](MigrationEngine::step)
//! whenever the engine asked to be called again, passing an [`EffectSink`];
//! each step performs the work of one protocol phase against the two host
//! stacks and the migrating process, emits every externally visible
//! consequence as an ordered, timestamped [`Effect`], and returns how many
//! µs later to call again (`None` once the migration finished).
//!
//! Where the migration stands is one enum whose variants carry what the
//! migration holds there. Each step consumes one variant and returns the
//! next:
//!
//! ```text
//! variant → next        effects its step emits (in order)
//! ──────────────        ─────────────────────────────────
//! NotStarted → Precopy  PhaseEntered(PrecopyFull), Shipped(PrecopyMem)
//!                       [, Shipped(PrecopySocket)…] — signal; full
//!                       checkpoint; transfer while the app runs
//! Precopy ×k → Precopy  PhaseEntered(PrecopyIter), Shipped(PrecopyMem)
//!                       [, Shipped(PrecopySocket)…] — dirty pages + VMA
//!                       diff (+ socket deltas, incremental strategy); the
//!                       loop timeout halves each round; at 20 ms → freeze
//! Precopy → Captured    PhaseEntered(FreezeCapture), SuspendApp,
//!                       [InstallCapture…], [SendXlate…], [Subscribe(Dst)…]
//!                       — app suspended; capture entries enabled on the
//!                       destination; translation requests for in-cluster
//!                       peers
//! Captured → Detached   PhaseEntered(FreezeDetach), [SocketDetached,
//!                       Shipped(FreezeSocket)…], Shipped(FreezeMem)
//!                       — sockets unhashed & quiesced in fd order; final
//!                       memory increment + freeze records shipped
//! Detached → Finished   PhaseEntered(Restore), [Stack(Dst)…],
//!                       [PacketReinjected, Stack(Dst)……], [Unsubscribe(Src)…],
//!                       Complete — sockets rehashed (timestamps shifted,
//!                       timers restarted), fd table rewritten, captured
//!                       packets re-injected, threads resumed — freeze ends
//! ```
//!
//! Every abort goes through [`MigrationEngine::abort`]: the owner's, the
//! deadline's (checked once, before each step), the convergence guard's and
//! the destination's refusals (a capture hook, a socket rehash). It consumes
//! the variant and emits the compensation for what that variant holds
//! (§III's free-rollback property: until detach the source copy is still
//! authoritative). The row is the last phase entered, with the precopy
//! rounds folded into one:
//!
//! ```text
//! variant (row)              effects emitted (in order)
//! ─────────────              ──────────────────────────
//! NotStarted (PrecopyFull),  Aborted(SourceKeptRunning) — holds nothing: the
//! Precopy (PrecopyIter)      app never stopped, the staged image is dropped
//! Captured (FreezeCapture)   [RevokeXlate…], [RemoveCapture…],
//!                            [Unsubscribe(Dst)…]†, ResumeApp,
//!                            Aborted(ResumedOnSource) — holds captures and
//!                            peer rules, sockets still hashed on the source:
//!                            rules recalled, captures disabled, the owner
//!                            resumes the threads in place
//! Detached (FreezeDetach,    [RevokeXlate…], [Unsubscribe(Dst)…], [Stack(Src)…],
//! or Restore once the        [RemoveCapture, [PacketReinjected, Stack(Src)…]…],
//! restore step began)        Aborted(RestoredOnSource) — holds the sockets,
//!                            in flight: reinstalled on the source, captured
//!                            packets re-injected there, the image resumed
//! (source dead)              Aborted(Lost) before detach (no ResumeApp); after
//!                            it [RemoveCapture…], [Unsubscribe(Src)…],
//!                            Aborted(ImageOnly) — only the image survives
//!                            (cold-restart fodder)
//! Finished                   nothing: the abort is a no-op
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
use dvelm_proc::{Fd, FdEntry, Process};
use dvelm_sim::{Jiffies, SimTime};
use dvelm_stack::capture::CaptureKey;
use dvelm_stack::xlate::{SelfXlateRule, XlateRule};
use dvelm_stack::{HostStack, SockId, Socket, StackEffect};
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

/// Where a migration stands, with what it holds there.
#[derive(Debug)]
enum Progress {
    /// Before the first step: nothing staged, nothing installed.
    NotStarted,
    /// The app runs while its image is copied round by round.
    Precopy(Precopy),
    /// The app is frozen and the destination captures its traffic; the
    /// sockets are still hashed on the source.
    Captured(Captured),
    /// The sockets left the source: the point of no free return.
    Detached(Detached),
    /// Completed or aborted.
    Finished,
}

/// The destination's copy of the process image, and what the next
/// increment is measured against.
#[derive(Debug)]
struct Staged {
    image: Process,
    tracker: IncrementalTracker,
    /// Last shipped mutation stamp per socket (incremental strategy).
    sock_stamps: BTreeMap<SockId, u64>,
}

#[derive(Debug)]
struct Precopy {
    staged: Staged,
    loop_timeout_us: u64,
    /// Consecutive precopy rounds whose dirty diff did not shrink.
    stagnant_rounds: u32,
    /// Dirty-diff bytes of the previous precopy round.
    last_round_bytes: Option<u64>,
    /// The loop timeout reached the freeze threshold: the next step freezes.
    freeze_next: bool,
}

/// What the capture step set up on other hosts.
#[derive(Debug, Default)]
struct Hooks {
    /// Capture entries enabled on the destination.
    capture_keys: Vec<CaptureKey>,
    /// Translation rules sent to peers (revoked on abort).
    sent_rules: Vec<(NodeId, XlateRule)>,
    /// Destination-side translation rules to install at restore.
    self_rules: Vec<SelfXlateRule>,
}

#[derive(Debug)]
struct Captured {
    staged: Staged,
    hooks: Hooks,
    /// Every capture hook was armed, so the destination subscribed.
    subscribed: bool,
}

#[derive(Debug)]
struct Detached {
    image: Process,
    hooks: Hooks,
    /// The sockets in flight, with their fds.
    in_flight: Vec<(Fd, Socket)>,
    /// Peer-side rules this process held on the source host (its view of
    /// *other* migrated endpoints), carried along so zone↔zone connections
    /// survive even when both ends migrate.
    carried_rules: Vec<XlateRule>,
    /// Self-rules the *source* held for these sockets (from an earlier
    /// migration onto it), kept so restore-on-source can reinstate them.
    src_self_rules: Vec<SelfXlateRule>,
    /// Source jiffies when the sockets left it (§V-C1).
    src_jiffies: Jiffies,
    /// The restore step began: an abort's row is `Restore`.
    restoring: bool,
}

/// What a step leaves.
enum Stepped {
    /// The next variant, and how many µs later to step again.
    Next(Progress, Option<u64>),
    /// What the migration holds, to abort for the reason given.
    Abort(Progress, AbortReason),
}

/// The live-migration engine.
#[derive(Debug)]
pub struct MigrationEngine {
    /// Socket-migration strategy (§IV).
    pub strategy: Strategy,
    /// Timing/size model for transfer and freeze costs.
    pub cost: CostModel,
    /// Overload protection (deadline + convergence guard), off by default.
    pub guard: OverloadGuard,
    /// Zones the process holds interest subscriptions for (set by the
    /// owner before the first step). The engine moves them with the
    /// sockets: the destination subscribes at capture setup, the source
    /// unsubscribes at switch-over, and every abort row emits the
    /// compensating [`Effect::Unsubscribe`] so no recovery outcome can leak
    /// a subscription. Empty (the default) for processes without registered
    /// zone interest — zero new effects.
    pub zones: Vec<ZoneId>,
    /// When the first step ran (the deadline's epoch).
    started_at: Option<SimTime>,
    progress: Progress,
}

impl MigrationEngine {
    /// Prepare a migration. The engine keeps no clock of its own: the start
    /// instant belongs to the trace consumer
    /// (`dvelm_metrics::TraceRecorder::new`).
    pub fn new(strategy: Strategy, cost: CostModel) -> MigrationEngine {
        MigrationEngine {
            strategy,
            cost,
            guard: OverloadGuard::DISABLED,
            zones: Vec::new(),
            started_at: None,
            progress: Progress::NotStarted,
        }
    }

    /// Whether the source sockets are detached and not yet restored — past
    /// the point of no free return: an abort now restores from the captured
    /// image instead of simply resuming the source copy.
    pub fn past_detach(&self) -> bool {
        matches!(self.progress, Progress::Detached(_))
    }

    /// Execute the current phase, emitting its effects into `sink`, and
    /// return how many µs later to call again (`None` once finished). The
    /// owner must call this exactly when the previous step's delay elapses.
    pub fn step(&mut self, mut io: StepIo<'_>, sink: &mut dyn EffectSink) -> Option<u64> {
        // Every phase may read the process image; make its logged writes.
        io.proc.addr_space.settle();
        let progress = std::mem::replace(&mut self.progress, Progress::Finished);
        // The wall-clock budget is checked before a step spends anything:
        // an expired deadline aborts from wherever the migration stands.
        let stepped = if self.deadline_exceeded(io.now) {
            Stepped::Abort(progress, AbortReason::Overloaded)
        } else {
            match progress {
                Progress::NotStarted => self.step_start(&mut io, sink),
                Progress::Precopy(p) if p.freeze_next => self.step_capture(p.staged, &mut io, sink),
                Progress::Precopy(p) => self.step_precopy(p, &mut io, sink),
                Progress::Captured(c) => self.step_detach(c, &mut io, sink),
                Progress::Detached(d) => self.step_restore(d, &mut io, sink),
                Progress::Finished => Stepped::Next(Progress::Finished, None),
            }
        };
        match stepped {
            Stepped::Next(next, after) => {
                self.progress = next;
                after
            }
            Stepped::Abort(held, reason) => {
                self.progress = held;
                let io = AbortIo {
                    now: io.now,
                    src_stack: Some(io.src_stack),
                    dst_stack: Some(io.dst_stack),
                };
                self.abort(reason, io, sink);
                None
            }
        }
    }

    /// Abort the migration, emitting the compensating effects (see the
    /// module docs) and finally [`Effect::Aborted`]. Safe to call in any
    /// phase; a no-op once the migration is finished. Every abort — the
    /// owner's, the guards', a destination refusal — ends here.
    ///
    /// The row and the compensation both follow from the variant: nothing
    /// held yet (precopy), capture entries and peer rules with the sockets
    /// still on the source (captured), or the sockets themselves, in flight
    /// (detached).
    pub fn abort(&mut self, reason: AbortReason, io: AbortIo<'_>, sink: &mut dyn EffectSink) {
        let AbortIo {
            now,
            src_stack,
            dst_stack,
        } = io;
        // The source copy never stopped: the staged image is dropped and
        // nothing was installed anywhere.
        let untouched = match src_stack {
            Some(_) => AbortRecovery::SourceKeptRunning,
            None => AbortRecovery::Lost,
        };
        let (phase, recovery) = match std::mem::replace(&mut self.progress, Progress::Finished) {
            Progress::Finished => return,
            Progress::NotStarted => (PhaseId::PrecopyFull, untouched),
            Progress::Precopy(_) => (PhaseId::PrecopyIter, untouched),
            // App frozen, captures enabled on the destination, but the
            // sockets are still hashed on the source: tear the remote
            // state down and resume in place.
            Progress::Captured(c) => {
                revoke(now, &c.hooks, sink);
                drain_captures(now, c.hooks.capture_keys, dst_stack, None, sink);
                if c.subscribed {
                    self.unsubscribe(now, Side::Dst, sink);
                }
                let recovery = match src_stack {
                    Some(_) => {
                        sink.emit(now, Effect::ResumeApp);
                        AbortRecovery::ResumedOnSource
                    }
                    None => AbortRecovery::Lost,
                };
                (PhaseId::FreezeCapture, recovery)
            }
            // The sockets are in flight and the source holds nothing:
            // rebuild there from the staged image if the source lives.
            // Whatever survives, the destination stops receiving for this
            // process; the source kept its seat (switch-over never ran).
            Progress::Detached(d) => {
                revoke(now, &d.hooks, sink);
                self.unsubscribe(now, Side::Dst, sink);
                let phase = match d.restoring {
                    true => PhaseId::Restore,
                    false => PhaseId::FreezeDetach,
                };
                let recovery = self.restore_on_source(now, d, src_stack, dst_stack, sink);
                (phase, recovery)
            }
        };
        sink.emit(
            now,
            Effect::Aborted(MigrationAborted {
                phase,
                reason,
                recovery,
            }),
        );
    }

    /// Post-detach compensation: reinstall the in-flight sockets on the
    /// source, drain the destination captures into it and resume the
    /// staged process. With the source dead only the image survives.
    fn restore_on_source(
        &self,
        now: SimTime,
        d: Detached,
        src_stack: Option<&mut HostStack>,
        dst_stack: Option<&mut HostStack>,
        sink: &mut dyn EffectSink,
    ) -> AbortRecovery {
        let mut image = d.image;
        let Some(src) = src_stack else {
            // Its sockets are lost with the source (BLCR semantics).
            drain_captures(now, d.hooks.capture_keys, dst_stack, None, sink);
            // Nothing live is left anywhere: clear the source's seat too
            // (idempotent when the owner already purged the dead node).
            self.unsubscribe(now, Side::Src, sink);
            return AbortRecovery::ImageOnly(image);
        };
        // The sockets left the source at `src_jiffies`; shift their
        // timestamps by the source time that passed since (§V-C1 applied
        // homeward).
        let delta = src.jiffies(now).delta(d.src_jiffies);
        for (fd, mut sock) in d.in_flight {
            sock.apply_jiffies_delta(delta);
            let (sid, fx) = src.install_socket(sock, now);
            emit_stack(now, Side::Src, fx, sink);
            image.fds.insert_at(fd, FdEntry::Socket(sid));
        }
        // Reinstate the self-rules the source held for these sockets from
        // an earlier migration onto it, and this process's view of other
        // migrated peers.
        for rule in d.src_self_rules {
            src.xlate.install_self(rule);
        }
        for rule in d.carried_rules {
            src.xlate.install_at(rule, now);
        }
        // Packets captured on the destination while the sockets were in
        // transit are re-injected on the source — nothing is dropped.
        drain_captures(now, d.hooks.capture_keys, dst_stack, Some(src), sink);
        image.resume_all();
        AbortRecovery::RestoredOnSource(image)
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

    /// Ship the migratable sockets' state while the app runs (incremental
    /// strategy only): a full record for a socket not shipped before, its
    /// delta otherwise. Returns the bytes shipped.
    fn ship_precopy_sockets(
        &self,
        stamps: &mut BTreeMap<SockId, u64>,
        io: &StepIo<'_>,
        sink: &mut dyn EffectSink,
    ) -> u64 {
        if !self.strategy.tracks_sockets_in_precopy() {
            return 0;
        }
        let mut bytes = 0;
        for (_, sid, sock) in Self::migratable_sockets(io.proc, io.src_stack) {
            let b = match stamps.get(&sid).copied().unwrap_or(0) {
                0 => sock.record_len(),
                since => sock.delta_len(since),
            };
            bytes += b;
            ship(io.now, ByteClass::PrecopySocket, b, sink);
            stamps.insert(sid, sock.mutation_stamp());
        }
        bytes
    }

    fn step_start(&mut self, io: &mut StepIo<'_>, sink: &mut dyn EffectSink) -> Stepped {
        self.started_at = Some(io.now);
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyFull));
        // Initialize the dirty/VMA tracking (clears dirty bits). It folds
        // the pages' pending writes first, so the full image below reads
        // stored fingerprints and computes no write chain twice.
        let mut tracker = IncrementalTracker::new();
        let _ = incremental_update(&mut tracker, io.proc);
        // Live checkpoint request: the helper thread transfers the full
        // image while the app continues.
        let img = full_checkpoint(io.proc);
        let mem_bytes = img.transfer_bytes();
        ship(io.now, ByteClass::PrecopyMem, mem_bytes, sink);
        let mut staged = Staged {
            image: restore_process(&img),
            tracker,
            sock_stamps: BTreeMap::new(),
        };
        // Incremental strategy: ship full socket records now, so the freeze
        // phase only carries deltas.
        let bytes = mem_bytes + self.ship_precopy_sockets(&mut staged.sock_stamps, io, sink);

        let delay =
            self.cost.signal_us + self.cost.serialize_us(bytes) + self.cost.transfer_us(bytes);
        let loop_timeout_us = self.cost.initial_loop_timeout_us;
        let precopy = Precopy {
            staged,
            loop_timeout_us,
            stagnant_rounds: 0,
            last_round_bytes: None,
            freeze_next: false,
        };
        Stepped::Next(Progress::Precopy(precopy), Some(loop_timeout_us.max(delay)))
    }

    fn step_precopy(
        &self,
        mut p: Precopy,
        io: &mut StepIo<'_>,
        sink: &mut dyn EffectSink,
    ) -> Stepped {
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::PrecopyIter));
        let update = incremental_update(&mut p.staged.tracker, io.proc);
        apply_update(&mut p.staged.image, &update);
        let mem_bytes = update.transfer_bytes();
        ship(io.now, ByteClass::PrecopyMem, mem_bytes, sink);
        let bytes = mem_bytes + self.ship_precopy_sockets(&mut p.staged.sock_stamps, io, sink);
        let delay = self.cost.serialize_us(bytes) + self.cost.transfer_us(bytes);

        // Convergence guard: under overload the dirty diff stops shrinking
        // round over round (the round length is floored by its own transfer
        // time, so a dirty rate above the drain rate produces monotonically
        // non-decreasing diffs). N consecutive stagnant rounds → abort
        // rather than freeze with an unbounded payload.
        if let Some(max_stagnant) = self.guard.max_stagnant_rounds {
            match p.last_round_bytes {
                // A zero diff is convergence, not stagnation.
                Some(prev) if bytes > 0 && bytes >= prev => p.stagnant_rounds += 1,
                _ => p.stagnant_rounds = 0,
            }
            p.last_round_bytes = Some(bytes);
            if p.stagnant_rounds >= max_stagnant {
                return Stepped::Abort(Progress::Precopy(p), AbortReason::NonConverging);
            }
        }

        // "In each subsequent iteration the loop timeout is decreased. When
        // it reaches a threshold (currently 20 ms) it signals the
        // application threads for final checkpointing."
        p.loop_timeout_us = (p.loop_timeout_us / 2).max(self.cost.freeze_threshold_us);
        p.freeze_next = p.loop_timeout_us <= self.cost.freeze_threshold_us;
        let after = p.loop_timeout_us.max(delay);
        Stepped::Next(Progress::Precopy(p), Some(after))
    }

    fn step_capture(
        &self,
        staged: Staged,
        io: &mut StepIo<'_>,
        sink: &mut dyn EffectSink,
    ) -> Stepped {
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::FreezeCapture));
        // Freeze begins: signal for the final checkpoint, threads barrier.
        sink.emit(io.now, Effect::SuspendApp);
        io.proc.freeze_all();

        // Phase one of collective migration: collect capturing details of
        // all connections and enable them on the destination. (Also the
        // per-socket capture of the iterative strategy — its extra
        // round-trips are accounted in the detach phase.)
        let mut hooks = Hooks::default();
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
            hooks.capture_keys.push(key);
            sink.emit(io.now, Effect::InstallCapture { key });

            // In-cluster connection: the peer needs a translation rule and
            // the destination a self-rule (§III-C, §V-D).
            if let Some(remote) = sock.remote() {
                if let Some(peer) = remote.ip.local_host() {
                    let rule = XlateRule::new(remote, local.ip, io.dst_stack.local_ip, local.port);
                    hooks.sent_rules.push((peer, rule));
                    sink.emit(io.now, Effect::SendXlate { peer, rule });
                    hooks.self_rules.push(SelfXlateRule {
                        sock_local: local,
                        peer: remote,
                        host_ip: io.dst_stack.local_ip,
                    });
                }
            }
        }
        let n = hooks.capture_keys.len() as u64;
        let captured = Captured {
            staged,
            hooks,
            subscribed: !refused,
        };
        if refused {
            // A capture hook the destination refused means packets would be
            // lost during detach: the migration cannot proceed safely. The
            // source sockets were never touched, so it resumes in place.
            return Stepped::Abort(
                Progress::Captured(captured),
                AbortReason::CaptureInstallFailed,
            );
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

        let setup = match self.strategy {
            // One aggregated capture message for all connections.
            Strategy::Collective | Strategy::IncrementalCollective => self.cost.capture_setup_us(n),
            // The first socket's handshake; the rest are inside the
            // per-socket detach loop.
            Strategy::Iterative => self.cost.rtt_us(),
        };
        let after = self.cost.signal_us + self.cost.barrier_us + setup;
        Stepped::Next(Progress::Captured(captured), Some(after))
    }

    fn step_detach(&self, c: Captured, io: &mut StepIo<'_>, sink: &mut dyn EffectSink) -> Stepped {
        let mut staged = c.staged;
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::FreezeDetach));
        // Record source jiffies for the timestamp adjustment (§V-C1).
        let src_jiffies = io.src_stack.jiffies(io.now);

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

        let mut in_flight = Vec::with_capacity(socks.len());
        let (mut src_self_rules, mut carried_rules) = (Vec::new(), Vec::new());
        let mut sock_bytes = 0u64;
        let mut sock_time = 0u64;
        for (fd, sid) in socks {
            // Listed just above from the same stack, so always present.
            let Some(sock) = io.src_stack.detach_socket(sid) else {
                continue;
            };
            // Take any destination-side rules this host held for it (no
            // residual dependencies on re-migration; kept around so an
            // abort can reinstate them), and carry along its view of other
            // migrated peers.
            src_self_rules.extend(io.src_stack.xlate.take_self_rules_for(sock.local()));
            carried_rules.extend(io.src_stack.xlate.take_rules_for(sock.local()));
            sink.emit(io.now, Effect::SocketDetached { sock: sid });
            let b = match self.strategy {
                Strategy::Iterative | Strategy::Collective => sock.record_len(),
                Strategy::IncrementalCollective => {
                    let since = staged.sock_stamps.get(&sid).copied().unwrap_or(0);
                    sock.delta_len(since)
                }
            } + ATTACH_RECORD;
            ship(io.now, ByteClass::FreezeSocket, b, sink);
            sock_bytes += b;
            if self.strategy == Strategy::Iterative {
                sock_time += self.cost.per_socket_iterative_us(b);
            }
            in_flight.push((fd, sock));
        }
        if self.strategy.is_collective() {
            sock_time = self.cost.bulk_us(sock_bytes);
        }

        // Final incremental memory step + the freeze records the leader
        // thread dumps (open-file table, thread registers, signal handlers).
        let update = incremental_update(&mut staged.tracker, io.proc);
        apply_update(&mut staged.image, &update);
        let mem_bytes =
            update.transfer_bytes() + dvelm_ckpt::freeze_records(io.proc).transfer_bytes();
        let mem_time = self.cost.bulk_us(mem_bytes);
        ship(io.now, ByteClass::FreezeMem, mem_bytes, sink);

        let detached = Detached {
            image: staged.image,
            hooks: c.hooks,
            in_flight,
            carried_rules,
            src_self_rules,
            src_jiffies,
            restoring: false,
        };
        let after = sock_time + mem_time + self.cost.barrier_us;
        Stepped::Next(Progress::Detached(detached), Some(after))
    }

    fn step_restore(
        &self,
        mut d: Detached,
        io: &mut StepIo<'_>,
        sink: &mut dyn EffectSink,
    ) -> Stepped {
        sink.emit(io.now, Effect::PhaseEntered(PhaseId::Restore));
        d.restoring = true;

        // Timestamp adjustment: difference between destination jiffies now
        // and source jiffies at checkpoint (§V-C1).
        let delta = io.dst_stack.jiffies(io.now).delta(d.src_jiffies);

        let mut in_flight = std::mem::take(&mut d.in_flight).into_iter();
        while let Some((fd, mut sock)) = in_flight.next() {
            sock.apply_jiffies_delta(delta);
            match io.dst_stack.try_install_socket(sock, io.now) {
                Ok((sid, fx)) => {
                    emit_stack(io.now, Side::Dst, fx, sink);
                    // Reattach "to the right file descriptor of the
                    // process": the BLCR-restored fd table has these slots
                    // empty (sockets were omitted from the image).
                    d.image.fds.insert_at(fd, FdEntry::Socket(sid));
                }
                Err(mut sock) => {
                    // A socket the destination cannot rehash strands the
                    // whole restore. Refusals are armed between steps and
                    // each consumes its arming, so only a step's first
                    // rehash can fail: nothing is on the destination yet.
                    // Everything goes back in flight, unshifted, and the
                    // source — still alive — takes the process back.
                    sock.apply_jiffies_delta(-delta);
                    d.in_flight.push((fd, sock));
                    d.in_flight.extend(in_flight);
                    return Stepped::Abort(Progress::Detached(d), AbortReason::RestoreFailed);
                }
            }
        }
        for rule in d.hooks.self_rules {
            io.dst_stack.xlate.install_self(rule);
        }
        for rule in d.carried_rules {
            io.dst_stack.xlate.install_at(rule, io.now);
        }

        // Re-inject captured packets through the okfn() path, then let the
        // process run.
        for key in d.hooks.capture_keys {
            for seg in io.dst_stack.capture.disable_and_drain(&key) {
                sink.emit(io.now, Effect::PacketReinjected);
                let fx = io.dst_stack.reinject(seg, io.now);
                emit_stack(io.now, Side::Dst, fx, sink);
            }
        }
        let mut process = d.image;
        process.resume_all();
        process.cpu_share = io.proc.cpu_share;

        // Switch-over: the destination copy runs from this instant, so the
        // source's zone subscriptions end here (the destination subscribed
        // at capture setup and simply keeps its seat).
        self.unsubscribe(io.now, Side::Src, sink);

        // Complete is the final effect of the migration, after every
        // destination stack effect above; its timestamp ends the freeze.
        sink.emit(io.now, Effect::Complete(MigrationComplete { process }));
        Stepped::Next(Progress::Finished, None)
    }
}

/// Account `bytes` shipped to the destination as `class`.
fn ship(now: SimTime, class: ByteClass, bytes: u64, sink: &mut dyn EffectSink) {
    sink.emit(now, Effect::Shipped { class, bytes });
}

/// Emit `fx` as stack effects on `side`.
fn emit_stack(now: SimTime, side: Side, fx: Vec<StackEffect>, sink: &mut dyn EffectSink) {
    for effect in fx {
        sink.emit(now, Effect::Stack { side, effect });
    }
}

/// Recall the translation rules sent to peers, first in every abort row
/// that holds any, so their removal is in flight before the application
/// can send again.
fn revoke(now: SimTime, hooks: &Hooks, sink: &mut dyn EffectSink) {
    for &(peer, rule) in &hooks.sent_rules {
        sink.emit(now, Effect::RevokeXlate { peer, rule });
    }
}

/// Disable the capture entries `keys` on the destination (if it lives),
/// re-injecting what they queued into `reinject_into` or discarding it.
fn drain_captures(
    now: SimTime,
    keys: Vec<CaptureKey>,
    dst_stack: Option<&mut HostStack>,
    mut reinject_into: Option<&mut HostStack>,
    sink: &mut dyn EffectSink,
) {
    let Some(dst) = dst_stack else {
        return;
    };
    for key in keys {
        let segs = dst.capture.disable_and_drain(&key);
        sink.emit(now, Effect::RemoveCapture { key });
        let Some(src) = reinject_into.as_deref_mut() else {
            continue;
        };
        for seg in segs {
            sink.emit(now, Effect::PacketReinjected);
            emit_stack(now, Side::Src, src.reinject(seg, now), sink);
        }
    }
}
