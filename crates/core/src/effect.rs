//! The typed cross-layer effect pipeline.
//!
//! Every externally visible consequence of a migration step — suspending the
//! application, sending a translation rule to a peer, a stack effect on
//! either host, phase transitions, bytes shipped — is expressed as one
//! [`Effect`] value and delivered, in order and timestamped, through an
//! [`EffectSink`] passed to [`MigrationEngine::step`](crate::MigrationEngine::step).
//!
//! An owner implements (or reuses) a single dispatcher over `Effect`, and a
//! trace consumer — `dvelm_metrics::TraceRecorder` — derives the entire
//! [`MigrationReport`](crate::MigrationReport) plus a per-phase timeline from
//! the same stream, with no hand-maintained counters inside the engine.
//!
//! # Ordering contract
//!
//! The engine emits effects in the exact order the owner must act on them:
//!
//! * [`Effect::SuspendApp`] opens the freeze phase, before any socket is
//!   detached from the source;
//! * [`Effect::SendXlate`] requests are emitted at capture setup, before
//!   detach (the owner schedules rule installation one control latency
//!   later);
//! * [`Effect::Complete`] is always the final effect of a migration, after
//!   every destination-side stack effect of the restore step.
//!
//! On an abort ([`MigrationEngine::abort`](crate::MigrationEngine::abort) or
//! a failure detected inside a step) the compensating effects follow the
//! same discipline:
//!
//! * [`Effect::RevokeXlate`] requests precede [`Effect::ResumeApp`] so a
//!   peer rule removal is already in flight before the application can send
//!   again (the owner schedules removal one control latency later, like
//!   installation);
//! * [`Effect::Aborted`] is always the final effect of an aborted
//!   migration — a migration emits exactly one of `Complete` / `Aborted`,
//!   never both.
//!
//! Purely observational effects ([`Effect::PhaseEntered`],
//! [`Effect::InstallCapture`], [`Effect::RemoveCapture`],
//! [`Effect::Shipped`], [`Effect::SocketDetached`],
//! [`Effect::PacketReinjected`]) require no owner action; they exist for
//! the trace spine.

use crate::engine::MigrationComplete;
use dvelm_net::{NodeId, ZoneId};
use dvelm_proc::Process;
use dvelm_sim::SimTime;
use dvelm_stack::capture::CaptureKey;
use dvelm_stack::xlate::XlateRule;
use dvelm_stack::{SockId, StackEffect};

/// Which host a [`Effect::Stack`] effect applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The node the process is migrating away from.
    Src,
    /// The node the process is migrating to.
    Dst,
}

/// Classification of bytes shipped by a migration, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteClass {
    /// Memory image + freeze-record bytes shipped while the app runs.
    PrecopyMem,
    /// Socket state shipped while the app runs (incremental strategy).
    PrecopySocket,
    /// Memory + freeze-record bytes shipped during the freeze phase.
    FreezeMem,
    /// Socket state shipped during the freeze phase (the Fig. 5c metric).
    FreezeSocket,
}

impl ByteClass {
    /// Whether the application was still running when these bytes moved.
    pub fn is_precopy(self) -> bool {
        matches!(self, ByteClass::PrecopyMem | ByteClass::PrecopySocket)
    }
}

/// Protocol phases of the migration state machine (Fig. 3), as observed on
/// the effect stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseId {
    /// Signal + full checkpoint; transfer while the app runs.
    PrecopyFull,
    /// One incremental precopy iteration (dirty pages + VMA diff).
    PrecopyIter,
    /// Freeze begins: final-checkpoint signal, capture setup, translation
    /// requests.
    FreezeCapture,
    /// Sockets detached; final memory increment + socket state shipped.
    FreezeDetach,
    /// Sockets rehashed, captured packets re-injected, threads resumed.
    Restore,
}

impl PhaseId {
    /// Human-readable label, stable across releases (the
    /// `MigrationReport::phase_log` vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            PhaseId::PrecopyFull => "precopy: full checkpoint",
            PhaseId::PrecopyIter => "precopy: incremental iteration",
            PhaseId::FreezeCapture => "freeze: signal + capture setup",
            PhaseId::FreezeDetach => "freeze: detach + transfer",
            PhaseId::Restore => "restore: rehash + reinject + resume",
        }
    }

    /// Whether this phase is a precopy iteration (counts toward
    /// `precopy_iterations`).
    pub fn is_precopy(self) -> bool {
        matches!(self, PhaseId::PrecopyFull | PhaseId::PrecopyIter)
    }
}

/// Why a migration was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The destination node crashed mid-migration.
    DestinationCrashed,
    /// The source node crashed mid-migration.
    SourceCrashed,
    /// The transfer link partitioned or stalled past the deadline.
    TransferStalled,
    /// A capture entry could not be enabled on the destination stack.
    CaptureInstallFailed,
    /// A socket could not be installed on the destination during restore.
    RestoreFailed,
    /// The migrating process was killed while the migration was in flight.
    ProcessKilled,
    /// The source or destination node was administratively detached.
    NodeDetached,
    /// A resource budget was exhausted: the migration deadline expired or a
    /// capture queue hit a hard-fail budget. Backing off is cheaper than
    /// buffering further.
    Overloaded,
    /// The precopy loop stopped converging: the dirty-diff rate exceeded
    /// the drain rate for N consecutive rounds, so freezing would mean an
    /// unbounded freeze payload. The source keeps running instead.
    NonConverging,
    /// The destination refused to resume the process because the
    /// migration's ownership epoch is stale: its reservation lease expired
    /// or a newer epoch for the same pid was witnessed (e.g. after a
    /// partition heal). Fencing the restore is what guarantees at most one
    /// live copy per pid.
    FencedStaleEpoch,
}

impl AbortReason {
    /// Human-readable label, stable across releases.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::DestinationCrashed => "destination crashed",
            AbortReason::SourceCrashed => "source crashed",
            AbortReason::TransferStalled => "transfer stalled",
            AbortReason::CaptureInstallFailed => "capture install failed",
            AbortReason::RestoreFailed => "restore failed",
            AbortReason::ProcessKilled => "process killed",
            AbortReason::NodeDetached => "node detached",
            AbortReason::Overloaded => "overloaded",
            AbortReason::NonConverging => "precopy not converging",
            AbortReason::FencedStaleEpoch => "fenced stale epoch",
        }
    }
}

/// What survives an aborted migration. The variants are ordered from
/// cheapest (nothing ever stopped) to total loss.
#[derive(Debug)]
pub enum AbortRecovery {
    /// Abort landed during precopy: the source copy never stopped running.
    /// Shipped state is discarded; nothing was installed anywhere.
    SourceKeptRunning,
    /// The application was suspended (freeze begun) but its sockets never
    /// left the source stack: the owner resumes the threads in place.
    ResumedOnSource,
    /// Sockets had already been detached; the process was rebuilt on the
    /// source from the captured image, its sockets reinstalled there, and
    /// captured packets re-injected. The owner re-adopts it on the source.
    RestoredOnSource(Process),
    /// The source is gone too: only the captured image survives. The owner
    /// may cold-restart it elsewhere (sockets are lost, BLCR semantics).
    ImageOnly(Process),
    /// Nothing survives (abort before any image was captured, source dead).
    Lost,
}

impl AbortRecovery {
    /// Human-readable label, stable across releases.
    pub fn label(&self) -> &'static str {
        match self {
            AbortRecovery::SourceKeptRunning => "source kept running",
            AbortRecovery::ResumedOnSource => "resumed on source",
            AbortRecovery::RestoredOnSource(_) => "restored on source",
            AbortRecovery::ImageOnly(_) => "image only",
            AbortRecovery::Lost => "lost",
        }
    }
}

/// Final result of an aborted migration, carried by [`Effect::Aborted`].
#[derive(Debug)]
pub struct MigrationAborted {
    /// The protocol phase the migration died in.
    pub phase: PhaseId,
    /// Why it was aborted.
    pub reason: AbortReason,
    /// What survived, and where.
    pub recovery: AbortRecovery,
}

/// One side effect of a migration step.
#[derive(Debug)]
pub enum Effect {
    /// The engine entered a protocol phase. Trace-only.
    PhaseEntered(PhaseId),
    /// The application stopped executing (freeze phase entered): the
    /// engine froze the process's threads in the same step, and they are
    /// the record of it. Emitted at most once per migration; its timestamp
    /// is the report's `frozen_at`.
    SuspendApp,
    /// A capture entry was enabled on the destination stack. Trace-only
    /// (the engine enables it directly; it owns the destination stack for
    /// the duration of the step).
    InstallCapture {
        /// The flow whose packets the entry captures.
        key: CaptureKey,
    },
    /// Deliver a translation rule to the in-cluster peer currently owning
    /// the connection's other endpoint; installation should happen one
    /// control-message latency later.
    SendXlate {
        /// The node that installs the rule.
        peer: NodeId,
        /// The rule to install.
        rule: XlateRule,
    },
    /// A stack effect produced on `side` while stepping: timer arming and
    /// ACKs from re-installed or re-injected sockets on the destination, or
    /// on the source when an abort restores the sockets there.
    Stack {
        /// The stack that produced the effect.
        side: Side,
        /// What that stack asks the runtime to do.
        effect: StackEffect,
    },
    /// A migratable socket was detached from the source stack. Trace-only.
    SocketDetached {
        /// Source-side socket id (no longer valid after restore).
        sock: SockId,
    },
    /// Bytes moved between the hosts. Trace-only.
    Shipped {
        /// What the bytes carried, and whether the app was running.
        class: ByteClass,
        /// How many bytes moved.
        bytes: u64,
    },
    /// A destination capture queue hit its budget and shed or refused
    /// packets. Trace-only — the trace spine's view of pressure building.
    /// Never emitted under the default (unlimited) budget, so fault-free
    /// streams are unchanged.
    QueuePressure {
        /// The capture entry under pressure.
        key: CaptureKey,
        /// Packets queued after the incident.
        queued_packets: u64,
        /// Payload bytes queued after the incident.
        queued_bytes: u64,
        /// Packets shed or refused by the incident.
        shed_packets: u64,
    },
    /// One captured packet was re-injected on the destination. Trace-only.
    PacketReinjected,
    /// The migration finished. Always the last effect of a migration; its
    /// timestamp is the report's `resumed_at`. The owner moves the restored
    /// process (and its application state) to the destination node.
    Complete(MigrationComplete),
    /// Rollback: the suspended application must resume executing on the
    /// source (the counterpart of [`Effect::SuspendApp`]). The owner
    /// resumes the source process's threads — an abort does not hand the
    /// engine the process. Emitted at most once per migration, and only on
    /// an abort whose recovery is [`AbortRecovery::ResumedOnSource`].
    ResumeApp,
    /// Rollback: a capture entry was disabled on the destination stack
    /// (the counterpart of [`Effect::InstallCapture`]). Trace-only.
    RemoveCapture {
        /// The flow whose capture entry was disabled.
        key: CaptureKey,
    },
    /// Rollback: ask the in-cluster peer to remove a previously delivered
    /// translation rule (the counterpart of [`Effect::SendXlate`]); removal
    /// should happen one control-message latency later.
    RevokeXlate {
        /// The node that installed the rule.
        peer: NodeId,
        /// The rule to remove.
        rule: XlateRule,
    },
    /// The migration aborted. Always the last effect of an aborted
    /// migration (mutually exclusive with [`Effect::Complete`]); its
    /// timestamp closes the trace. The owner acts on
    /// [`MigrationAborted::recovery`].
    Aborted(MigrationAborted),
    /// `side`'s node must be added to `zone`'s interest set: under AOI
    /// routing the destination subscribes at capture setup, so it hears
    /// (and captures) the client's frames exactly as it did under full
    /// broadcast — the subscription is the multicast-era form of the
    /// paper's loss-prevention property. Emitted only for processes with
    /// registered zone interest; legacy streams are unchanged.
    Subscribe {
        /// The zone whose frames the node must hear.
        zone: ZoneId,
        /// The node that subscribes.
        side: Side,
    },
    /// Rollback/handover: `side`'s node must be dropped from `zone`'s
    /// interest set (the counterpart of [`Effect::Subscribe`]). The source
    /// unsubscribes at switch-over; an aborted migration unsubscribes the
    /// destination (and, when nothing survives, the source too) so no
    /// abort row can leak a subscription.
    Unsubscribe {
        /// The zone whose frames the node stops hearing.
        zone: ZoneId,
        /// The node that unsubscribes.
        side: Side,
    },
}

/// Consumer of the ordered, timestamped effect stream of one migration.
pub trait EffectSink {
    /// Deliver one effect, emitted at simulated time `at`.
    fn emit(&mut self, at: SimTime, effect: Effect);
}

/// Any `FnMut(SimTime, Effect)` is a sink — convenient for tests.
impl<F: FnMut(SimTime, Effect)> EffectSink for F {
    fn emit(&mut self, at: SimTime, effect: Effect) {
        self(at, effect)
    }
}

/// A `Vec`-backed sink: buffers one step's effects for later dispatch.
#[derive(Debug, Default)]
pub struct EffectBuf {
    events: Vec<(SimTime, Effect)>,
}

impl EffectBuf {
    /// An empty buffer.
    pub fn new() -> EffectBuf {
        EffectBuf::default()
    }

    /// An empty buffer reusing `storage`'s allocation (cleared first).
    /// Callers that step engines in a loop can pool the vectors returned by
    /// [`take`](Self::take) instead of allocating a fresh buffer per step.
    pub fn with_storage(mut storage: Vec<(SimTime, Effect)>) -> EffectBuf {
        storage.clear();
        EffectBuf { events: storage }
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered effects, in emission order.
    pub fn events(&self) -> &[(SimTime, Effect)] {
        &self.events
    }

    /// Take the buffered effects, leaving the buffer empty for reuse.
    pub fn take(&mut self) -> Vec<(SimTime, Effect)> {
        std::mem::take(&mut self.events)
    }
}

impl EffectSink for EffectBuf {
    fn emit(&mut self, at: SimTime, effect: Effect) {
        self.events.push((at, effect));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(PhaseId::PrecopyFull.label(), "precopy: full checkpoint");
        assert_eq!(
            PhaseId::PrecopyIter.label(),
            "precopy: incremental iteration"
        );
        assert_eq!(
            PhaseId::FreezeCapture.label(),
            "freeze: signal + capture setup"
        );
        assert_eq!(PhaseId::FreezeDetach.label(), "freeze: detach + transfer");
        assert_eq!(
            PhaseId::Restore.label(),
            "restore: rehash + reinject + resume"
        );
        assert!(PhaseId::PrecopyIter.is_precopy());
        assert!(!PhaseId::Restore.is_precopy());
    }

    #[test]
    fn byte_class_predicates() {
        assert!(ByteClass::PrecopyMem.is_precopy());
        assert!(!ByteClass::FreezeSocket.is_precopy());
    }

    #[test]
    fn buf_orders_and_takes() {
        let mut buf = EffectBuf::new();
        assert!(buf.is_empty());
        buf.emit(SimTime::ZERO, Effect::PhaseEntered(PhaseId::PrecopyFull));
        buf.emit(SimTime::from_micros(5), Effect::SuspendApp);
        assert_eq!(buf.len(), 2);
        let taken = buf.take();
        assert!(buf.is_empty());
        assert!(matches!(
            taken[0],
            (SimTime::ZERO, Effect::PhaseEntered(PhaseId::PrecopyFull))
        ));
        assert!(matches!(taken[1].1, Effect::SuspendApp));
        assert_eq!(taken[1].0, SimTime::from_micros(5));
    }

    #[test]
    fn closures_are_sinks() {
        let mut n = 0u32;
        {
            let mut sink = |_at: SimTime, _e: Effect| n += 1;
            sink.emit(SimTime::ZERO, Effect::PacketReinjected);
            sink.emit(SimTime::ZERO, Effect::SuspendApp);
        }
        assert_eq!(n, 2);
    }
}
