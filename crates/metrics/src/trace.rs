//! The migration trace spine: per-migration phase timelines and report
//! derivation from the typed effect stream.
//!
//! A [`TraceRecorder`] consumes the ordered, timestamped
//! [`Effect`] stream one migration emits and produces
//! two views of it:
//!
//! * a [`MigrationReport`] — the Fig. 4 / 5b / 5c record — *derived* from
//!   the stream instead of hand-assembled inside the engine (`frozen_at` is
//!   the `SuspendApp` timestamp, `resumed_at` the `Complete` timestamp,
//!   byte counters come from `Shipped` effects, and so on);
//! * a list of [`PhaseSpan`]s — enter/exit instant, bytes shipped, sockets
//!   touched and packets re-injected per protocol phase — the per-migration
//!   timeline behind `migration_timeline`-style renderings.
//!
//! The recorder is a pure fold over the stream: feeding the same effects in
//! the same order always yields the same report, which is what makes the
//! effect pipeline the single source of truth for measurements.

use dvelm_migrate::{ByteClass, Effect, MigrationReport, PhaseId, Strategy};
use dvelm_proc::Pid;
use dvelm_sim::SimTime;

/// One protocol phase as observed on the effect stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: PhaseId,
    /// When the engine entered it.
    pub entered_at: SimTime,
    /// When the next phase was entered (or the migration completed);
    /// `None` while the phase is still open.
    pub exited_at: Option<SimTime>,
    /// Bytes shipped during the phase (all [`ByteClass`]es).
    pub bytes: u64,
    /// Sockets touched: capture entries installed plus sockets detached.
    pub sockets_touched: u32,
    /// Captured packets re-injected during the phase.
    pub packets_reinjected: u64,
}

/// Folds one migration's effect stream into a [`MigrationReport`] plus a
/// per-phase timeline.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    report: MigrationReport,
    spans: Vec<PhaseSpan>,
    captures_enabled: u32,
    captures_removed: u32,
    xlate_rules_sent: u32,
    xlate_rules_revoked: u32,
    pressure_events: u32,
    shed_packets: u64,
    /// Whether a `SuspendApp` was observed — i.e. the application actually
    /// stopped at some point.
    suspended: bool,
    finished: bool,
}

impl TraceRecorder {
    /// Start recording a migration of `pid` under `strategy`, initiated at
    /// `started_at`.
    pub fn new(pid: Pid, strategy: Strategy, started_at: SimTime) -> TraceRecorder {
        TraceRecorder {
            report: MigrationReport::new(pid, strategy, started_at),
            spans: Vec::new(),
            captures_enabled: 0,
            captures_removed: 0,
            xlate_rules_sent: 0,
            xlate_rules_revoked: 0,
            pressure_events: 0,
            shed_packets: 0,
            suspended: false,
            finished: false,
        }
    }

    /// Fold one effect, emitted at `at`, into the trace.
    pub fn observe(&mut self, at: SimTime, effect: &Effect) {
        match effect {
            Effect::PhaseEntered(phase) => {
                if let Some(open) = self.spans.last_mut() {
                    if open.exited_at.is_none() {
                        open.exited_at = Some(at);
                    }
                }
                self.spans.push(PhaseSpan {
                    phase: *phase,
                    entered_at: at,
                    exited_at: None,
                    bytes: 0,
                    sockets_touched: 0,
                    packets_reinjected: 0,
                });
                self.report.phase_log.push((phase.label(), at));
                if phase.is_precopy() {
                    self.report.precopy_iterations += 1;
                }
                // Post-copy family: the application resumes on the
                // destination when demand-resolve begins, not when the last
                // residual page lands — downtime ends here.
                if *phase == PhaseId::DemandResolve && self.suspended {
                    self.report.resumed_at = at;
                    self.suspended = false;
                }
            }
            Effect::SuspendApp => {
                self.report.frozen_at = at;
                self.suspended = true;
            }
            Effect::InstallCapture { .. } => {
                self.captures_enabled += 1;
                if let Some(open) = self.spans.last_mut() {
                    open.sockets_touched += 1;
                }
            }
            Effect::SendXlate { .. } => self.xlate_rules_sent += 1,
            Effect::Shipped { class, bytes } => {
                if let Some(open) = self.spans.last_mut() {
                    open.bytes += bytes;
                }
                match class {
                    ByteClass::PrecopyMem => self.report.precopy_bytes += bytes,
                    ByteClass::PrecopySocket => {
                        self.report.precopy_bytes += bytes;
                        self.report.precopy_socket_bytes += bytes;
                    }
                    ByteClass::FreezeMem => self.report.freeze_bytes += bytes,
                    ByteClass::FreezeSocket => {
                        self.report.freeze_bytes += bytes;
                        self.report.freeze_socket_bytes += bytes;
                    }
                    // Residual traffic is emitted one page per effect, so
                    // the effect count doubles as the page count.
                    ByteClass::DemandFetch => {
                        self.report.demand_fetch_bytes += bytes;
                        self.report.demand_fetch_pages += 1;
                    }
                    ByteClass::WriteBack => {
                        self.report.writeback_bytes += bytes;
                        self.report.writeback_pages += 1;
                    }
                }
            }
            Effect::SocketDetached {
                parked_nonempty, ..
            } => {
                self.report.sockets_migrated += 1;
                if *parked_nonempty {
                    self.report.parked_nonempty_sockets += 1;
                }
                if let Some(open) = self.spans.last_mut() {
                    open.sockets_touched += 1;
                }
            }
            Effect::PacketReinjected => {
                self.report.packets_reinjected += 1;
                if let Some(open) = self.spans.last_mut() {
                    open.packets_reinjected += 1;
                }
            }
            Effect::Stack { .. } => {}
            // Interest handoff rides the stream for ordering/observability;
            // the table itself lives in the router, so the trace only needs
            // the timestamps already carried by the effect log.
            Effect::Subscribe { .. } | Effect::Unsubscribe { .. } => {}
            Effect::QueuePressure { shed_packets, .. } => {
                self.pressure_events += 1;
                self.shed_packets += shed_packets;
            }
            Effect::Complete(_) => {
                // For the stop-and-copy strategies the app resumes at
                // completion; for the post-copy family `resumed_at` was
                // already closed at `DemandResolve` entry and completion
                // merely marks the ledger drained.
                if self.suspended {
                    self.report.resumed_at = at;
                    self.suspended = false;
                }
                if let Some(open) = self.spans.last_mut() {
                    if open.exited_at.is_none() {
                        open.exited_at = Some(at);
                    }
                }
                self.finished = true;
            }
            Effect::ResumeApp => self.report.resumed_at = at,
            Effect::RemoveCapture { .. } => self.captures_removed += 1,
            Effect::RevokeXlate { .. } => self.xlate_rules_revoked += 1,
            Effect::Aborted(a) => {
                self.report.aborted = Some((a.phase, a.reason));
                // The rollback instant closes the trace: an abort whose
                // recovery resumed or restored the source copy ends the
                // application's unresponsive interval here, so `freeze_us`
                // measures downtime for aborted migrations too. A precopy
                // abort never stopped the app — there is no unresponsive
                // interval to close, so `resumed_at` stays at `frozen_at`
                // and the freeze reads zero.
                if self.suspended {
                    self.report.resumed_at = at;
                }
                if let Some(open) = self.spans.last_mut() {
                    if open.exited_at.is_none() {
                        open.exited_at = Some(at);
                    }
                }
                self.report.phase_log.push(("aborted", at));
                self.finished = true;
            }
        }
    }

    /// Whether a `Complete` effect has been observed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The phase timeline so far.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Capture entries installed on the destination.
    pub fn captures_enabled(&self) -> u32 {
        self.captures_enabled
    }

    /// Capture entries rolled back by an abort.
    pub fn captures_removed(&self) -> u32 {
        self.captures_removed
    }

    /// Translation rules sent to in-cluster peers.
    pub fn xlate_rules_sent(&self) -> u32 {
        self.xlate_rules_sent
    }

    /// Translation rules recalled from peers by an abort.
    pub fn xlate_rules_revoked(&self) -> u32 {
        self.xlate_rules_revoked
    }

    /// Capture-queue budget-pressure incidents observed on the stream.
    pub fn pressure_events(&self) -> u32 {
        self.pressure_events
    }

    /// Packets shed or refused by capture-queue budgets.
    pub fn shed_packets(&self) -> u64 {
        self.shed_packets
    }

    /// The derived report so far (complete once [`finished`](Self::finished)).
    pub fn report(&self) -> &MigrationReport {
        &self.report
    }

    /// Consume the recorder, yielding the derived report.
    pub fn into_report(self) -> MigrationReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_migrate::MigrationComplete;
    use dvelm_proc::Process;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + us
    }

    fn recorder() -> TraceRecorder {
        TraceRecorder::new(Pid(9), Strategy::IncrementalCollective, t(1_000))
    }

    #[test]
    fn derives_report_from_stream() {
        let mut r = recorder();
        r.observe(t(1_000), &Effect::PhaseEntered(PhaseId::PrecopyFull));
        r.observe(
            t(1_000),
            &Effect::Shipped {
                class: ByteClass::PrecopyMem,
                bytes: 4_000,
            },
        );
        r.observe(
            t(1_000),
            &Effect::Shipped {
                class: ByteClass::PrecopySocket,
                bytes: 300,
            },
        );
        r.observe(t(321_000), &Effect::PhaseEntered(PhaseId::PrecopyIter));
        r.observe(
            t(321_000),
            &Effect::Shipped {
                class: ByteClass::PrecopyMem,
                bytes: 512,
            },
        );
        r.observe(t(481_000), &Effect::PhaseEntered(PhaseId::FreezeCapture));
        r.observe(t(481_000), &Effect::SuspendApp);
        r.observe(t(483_000), &Effect::PhaseEntered(PhaseId::FreezeDetach));
        r.observe(
            t(483_000),
            &Effect::SocketDetached {
                sock: dvelm_stack::SockId(3),
                parked_nonempty: true,
            },
        );
        r.observe(
            t(483_000),
            &Effect::Shipped {
                class: ByteClass::FreezeSocket,
                bytes: 88,
            },
        );
        r.observe(
            t(483_000),
            &Effect::Shipped {
                class: ByteClass::FreezeMem,
                bytes: 1_024,
            },
        );
        r.observe(t(489_000), &Effect::PhaseEntered(PhaseId::Restore));
        r.observe(t(489_000), &Effect::PacketReinjected);
        r.observe(t(489_000), &Effect::PacketReinjected);
        assert!(!r.finished());
        r.observe(
            t(489_500),
            &Effect::Complete(MigrationComplete {
                process: Process::new(Pid(9), "p", 1, 1),
            }),
        );
        assert!(r.finished());

        let report = r.into_report();
        assert_eq!(report.pid, Pid(9));
        assert_eq!(report.started_at, t(1_000));
        assert_eq!(report.frozen_at, t(481_000));
        assert_eq!(report.resumed_at, t(489_500));
        assert_eq!(report.freeze_us(), 8_500);
        assert_eq!(report.precopy_iterations, 2);
        assert_eq!(report.precopy_bytes, 4_812);
        assert_eq!(report.precopy_socket_bytes, 300);
        assert_eq!(report.freeze_bytes, 1_112);
        assert_eq!(report.freeze_socket_bytes, 88);
        assert_eq!(report.sockets_migrated, 1);
        assert_eq!(report.parked_nonempty_sockets, 1);
        assert_eq!(report.packets_reinjected, 2);
        assert_eq!(
            report.phase_log,
            vec![
                ("precopy: full checkpoint", t(1_000)),
                ("precopy: incremental iteration", t(321_000)),
                ("freeze: signal + capture setup", t(481_000)),
                ("freeze: detach + transfer", t(483_000)),
                ("restore: rehash + reinject + resume", t(489_000)),
            ]
        );
    }

    #[test]
    fn spans_track_phase_boundaries() {
        let mut r = recorder();
        r.observe(t(0), &Effect::PhaseEntered(PhaseId::PrecopyFull));
        r.observe(
            t(0),
            &Effect::Shipped {
                class: ByteClass::PrecopyMem,
                bytes: 10,
            },
        );
        r.observe(t(100), &Effect::PhaseEntered(PhaseId::FreezeCapture));
        r.observe(
            t(100),
            &Effect::InstallCapture {
                key: dvelm_stack::capture::CaptureKey::any_remote(dvelm_net::Port(80)),
            },
        );
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, PhaseId::PrecopyFull);
        assert_eq!(spans[0].exited_at, Some(t(100)));
        assert_eq!(spans[0].bytes, 10);
        assert_eq!(spans[1].exited_at, None);
        assert_eq!(spans[1].sockets_touched, 1);
        assert_eq!(r.captures_enabled(), 1);
    }

    #[test]
    fn abort_closes_the_trace() {
        use dvelm_migrate::{AbortReason, AbortRecovery, MigrationAborted};
        let mut r = recorder();
        r.observe(t(1_000), &Effect::PhaseEntered(PhaseId::PrecopyFull));
        r.observe(t(5_000), &Effect::PhaseEntered(PhaseId::FreezeCapture));
        r.observe(t(5_000), &Effect::SuspendApp);
        r.observe(
            t(5_000),
            &Effect::InstallCapture {
                key: dvelm_stack::capture::CaptureKey::any_remote(dvelm_net::Port(80)),
            },
        );
        r.observe(
            t(7_000),
            &Effect::RemoveCapture {
                key: dvelm_stack::capture::CaptureKey::any_remote(dvelm_net::Port(80)),
            },
        );
        r.observe(t(7_000), &Effect::ResumeApp);
        assert!(!r.finished());
        r.observe(
            t(7_000),
            &Effect::Aborted(MigrationAborted {
                phase: PhaseId::FreezeCapture,
                reason: AbortReason::DestinationCrashed,
                recovery: AbortRecovery::ResumedOnSource,
            }),
        );
        assert!(r.finished());
        assert_eq!(r.captures_removed(), 1);
        let report = r.into_report();
        assert!(report.is_aborted());
        assert_eq!(
            report.aborted,
            Some((PhaseId::FreezeCapture, AbortReason::DestinationCrashed))
        );
        assert_eq!(report.frozen_at, t(5_000));
        assert_eq!(report.resumed_at, t(7_000));
        assert_eq!(report.freeze_us(), 2_000, "abort downtime is measured");
        assert_eq!(
            report.phase_log.last(),
            Some(&("aborted", t(7_000))),
            "the abort is on the phase log"
        );
    }

    #[test]
    fn queue_pressure_is_folded() {
        let mut r = recorder();
        r.observe(t(0), &Effect::PhaseEntered(PhaseId::FreezeDetach));
        let key = dvelm_stack::capture::CaptureKey::any_remote(dvelm_net::Port(80));
        r.observe(
            t(10),
            &Effect::QueuePressure {
                key,
                queued_packets: 32,
                queued_bytes: 4_096,
                shed_packets: 3,
            },
        );
        r.observe(
            t(20),
            &Effect::QueuePressure {
                key,
                queued_packets: 16,
                queued_bytes: 8_192,
                shed_packets: 1,
            },
        );
        assert_eq!(r.pressure_events(), 2);
        assert_eq!(r.shed_packets(), 4);
    }

    #[test]
    fn fold_is_deterministic() {
        // Same stream twice → identical reports (the property the effect
        // pipeline owes its consumers).
        let stream = [
            (t(0), Effect::PhaseEntered(PhaseId::PrecopyFull)),
            (
                t(0),
                Effect::Shipped {
                    class: ByteClass::PrecopyMem,
                    bytes: 7,
                },
            ),
            (t(5), Effect::PhaseEntered(PhaseId::FreezeCapture)),
            (t(5), Effect::SuspendApp),
        ];
        let mut a = recorder();
        let mut b = recorder();
        for (at, e) in &stream {
            a.observe(*at, e);
            b.observe(*at, e);
        }
        assert_eq!(a.into_report(), b.into_report());
    }
}
