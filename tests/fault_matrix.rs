//! The fault matrix: every migration must be survivable (ISSUE 2).
//!
//! World-level acceptance tests for the fault-injection + abort/rollback
//! subsystem, exercised per socket-migration strategy where the recovery
//! path differs:
//!
//! * destination crash **before** detach → the source copy never stopped
//!   (zero downtime, nothing to roll back);
//! * destination crash **after** detach → the process is restored on the
//!   source from the captured image, captured packets drained back;
//! * destination kernel refusals (capture hook, socket rehash) → freeze
//!   rollback / restore fallback, the client stream keeps flowing;
//! * source crash after detach → only the captured image survives
//!   (`World::lost_images`, BLCR cold-restart fodder);
//! * conductor-level recovery: failed migrations are retried with
//!   exponential backoff, failed destinations are blacklisted, and the
//!   migration eventually completes;
//! * control blackouts stall negotiation without wedging the sender;
//! * correlated (burst) WAN loss across the freeze window neither kills
//!   the migration nor the stream.

use dvelm::dve::{SwarmClient, ZoneServer, ZONE_BASE_PORT};
use dvelm::migrate::{AbortReason, PhaseId};
use dvelm::net::LossModel;
use dvelm::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The reference scenario: a zone server on `n0` with a 4-connection TCP
/// swarm behind the WAN router, warmed up for a second. Returns
/// `(world, n0, n1, client_host, zone_pid, updates_sent, updates_received)`
/// — the two counters are live handles into the running apps.
#[allow(clippy::type_complexity)]
fn zone_world(
    seed: u64,
) -> (
    World,
    usize,
    usize,
    usize,
    Pid,
    Rc<RefCell<u64>>,
    Rc<RefCell<u64>>,
) {
    let mut w = World::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let ch = w.add_client_host();

    let server = ZoneServer::new();
    let updates_sent = server.updates_sent.clone();
    let zone = w.spawn_process(n0, "zone", 64, 1024, Box::new(server));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    w.app_tcp_listen(n0, zone, addr);

    let client = SwarmClient::new();
    let updates_received = client.updates_received.clone();
    let swarm = w.spawn_process(ch, "swarm", 64, 256, Box::new(client));
    for _ in 0..4 {
        w.app_tcp_connect(ch, swarm, addr, false);
    }

    w.run_for(SECOND);
    (w, n0, n1, ch, zone, updates_sent, updates_received)
}

/// Drive the world until the migration crosses its detach point, then
/// assert it actually did (rather than completing under us).
fn run_until_past_detach(w: &mut World, mig: dvelm::cluster::MigId, strategy: Strategy) {
    // Step an *absolute* deadline forward: the world clock only advances
    // when events are popped, so a relative `run_for(200)` would spin in
    // place whenever the next event is further out than the slice.
    let mut deadline = w.now();
    while w.migration_past_detach(mig) == Some(false) {
        deadline += 200;
        w.run_until(deadline);
    }
    assert_eq!(
        w.migration_past_detach(mig),
        Some(true),
        "{strategy:?}: migration finished before the crash window opened"
    );
}

/// Assert that `counter` keeps advancing over the next two seconds — the
/// app-level liveness probe used after every recovery.
fn assert_stream_alive(w: &mut World, counter: &Rc<RefCell<u64>>, what: &str) {
    let before = *counter.borrow();
    w.run_for(2 * SECOND);
    let after = *counter.borrow();
    assert!(
        after > before + 20,
        "{what}: counter stuck at {before} -> {after}"
    );
}

// ---------------------------------------------------------------------
// destination crash, pre-detach: zero downtime
// ---------------------------------------------------------------------

#[test]
fn fault_predetach_dst_crash_keeps_source_running() {
    for strategy in Strategy::ALL {
        let (mut w, n0, n1, _ch, zone, updates_sent, _) = zone_world(0xfa01);
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        w.run_for(5 * MILLISECOND);
        assert_eq!(
            w.migration_past_detach(mig),
            Some(false),
            "{strategy:?}: 4 MiB of precopy cannot have finished in 5 ms"
        );

        w.inject_fault(Fault::NodeCrash { host: n1 });

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted {
                reason, recovery, ..
            }) => {
                assert_eq!(reason, AbortReason::DestinationCrashed, "{strategy:?}");
                assert_eq!(
                    recovery,
                    Recovery::SourceKeptRunning,
                    "{strategy:?}: precopy abort must not have frozen the app"
                );
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert_eq!(w.active_migrations(), 0);
        assert_eq!(w.host_of(zone), Some(n0), "{strategy:?}");

        // Zero downtime: the report shows no freeze window at all.
        let report = w.reports.last().expect("abort produces a report");
        assert!(report.is_aborted(), "{strategy:?}");
        assert_eq!(report.freeze_us(), 0, "{strategy:?}: downtime must be zero");

        assert_stream_alive(&mut w, &updates_sent, "zone server after precopy abort");
    }
}

// ---------------------------------------------------------------------
// destination crash, post-detach: restore on source
// ---------------------------------------------------------------------

#[test]
fn fault_postdetach_dst_crash_restores_on_source() {
    for strategy in Strategy::ALL {
        let (mut w, n0, n1, _ch, zone, _, updates_received) = zone_world(0xfa02);
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        run_until_past_detach(&mut w, mig, strategy);

        w.inject_fault(Fault::NodeCrash { host: n1 });

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted {
                phase,
                reason,
                recovery,
            }) => {
                assert_eq!(phase, PhaseId::FreezeDetach, "{strategy:?}");
                assert_eq!(reason, AbortReason::DestinationCrashed, "{strategy:?}");
                assert_eq!(recovery, Recovery::RestoredOnSource, "{strategy:?}");
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert_eq!(w.active_migrations(), 0);
        assert_eq!(w.host_of(zone), Some(n0), "{strategy:?}");
        assert!(w.lost_images.is_empty(), "{strategy:?}: nothing was lost");

        // The restored copy serves the same (retransmitting) connections:
        // the clients see updates again without reconnecting.
        assert_stream_alive(
            &mut w,
            &updates_received,
            "swarm clients after restore-on-source",
        );
    }
}

// ---------------------------------------------------------------------
// abort between capture and detach: the frozen source thaws
// ---------------------------------------------------------------------

#[test]
fn fault_capture_window_abort_thaws_the_source_threads() {
    for strategy in Strategy::ALL {
        let (mut w, n0, n1, _ch, zone, updates_sent, _) = zone_world(0xfa01);
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        let frozen = |w: &World| w.hosts[n0].procs[&zone].process.is_frozen();
        // The capture step freezes the threads; detach follows at least
        // the signal and barrier cost (230 µs) later.
        let mut deadline = w.now();
        while !frozen(&w) {
            deadline += 20;
            w.run_until(deadline);
        }
        assert_eq!(
            w.migration_past_detach(mig),
            Some(false),
            "{strategy:?}: the abort must land between capture and detach"
        );

        assert!(w.abort_migration(mig, AbortReason::TransferStalled));

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted {
                phase, recovery, ..
            }) => {
                assert_eq!(phase, PhaseId::FreezeCapture, "{strategy:?}");
                assert_eq!(recovery, Recovery::ResumedOnSource, "{strategy:?}");
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert!(
            !frozen(&w),
            "{strategy:?}: resumed threads right after the abort"
        );
        assert_stream_alive(&mut w, &updates_sent, "zone server after resume");
        assert!(!frozen(&w), "{strategy:?}: threads still running 2 s later");
    }
}

// ---------------------------------------------------------------------
// destination kernel refusals: freeze rollback and restore fallback
// ---------------------------------------------------------------------

#[test]
fn fault_capture_install_failure_resumes_frozen_source() {
    for strategy in Strategy::ALL {
        let (mut w, n0, n1, _ch, zone, updates_sent, _) = zone_world(0xfa03);
        w.inject_fault(Fault::CaptureInstallFail { host: n1 });
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        w.run_for(2 * SECOND);

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted {
                phase,
                reason,
                recovery,
            }) => {
                assert_eq!(phase, PhaseId::FreezeCapture, "{strategy:?}");
                assert_eq!(reason, AbortReason::CaptureInstallFailed, "{strategy:?}");
                assert_eq!(recovery, Recovery::ResumedOnSource, "{strategy:?}");
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert_eq!(w.host_of(zone), Some(n0), "{strategy:?}");
        assert_stream_alive(&mut w, &updates_sent, "zone server after capture rollback");
    }
}

#[test]
fn fault_restore_failure_falls_back_without_losing_packets() {
    for strategy in Strategy::ALL {
        let (mut w, n0, n1, _ch, zone, _, updates_received) = zone_world(0xfa04);
        w.inject_fault(Fault::RestoreFail { host: n1 });
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        w.run_for(2 * SECOND);

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted {
                phase,
                reason,
                recovery,
            }) => {
                assert_eq!(phase, PhaseId::Restore, "{strategy:?}");
                assert_eq!(reason, AbortReason::RestoreFailed, "{strategy:?}");
                assert_eq!(recovery, Recovery::RestoredOnSource, "{strategy:?}");
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert_eq!(w.host_of(zone), Some(n0), "{strategy:?}");

        // The destination stayed alive, so every packet captured during the
        // freeze was drained back into the source's reinstalled sockets —
        // the clients' TCP streams continue without resets.
        assert_stream_alive(
            &mut w,
            &updates_received,
            "swarm clients after restore fallback",
        );
    }
}

// ---------------------------------------------------------------------
// source crash post-detach: the image is all that survives
// ---------------------------------------------------------------------

#[test]
fn fault_postdetach_src_crash_leaves_cold_restartable_image() {
    let strategy = Strategy::IncrementalCollective;
    let (mut w, n0, n1, _ch, zone, _, _) = zone_world(0xfa05);
    let mig = w.begin_migration(zone, n1, strategy).unwrap();
    run_until_past_detach(&mut w, mig, strategy);

    w.inject_fault(Fault::NodeCrash { host: n0 });

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            phase,
            reason,
            recovery,
        }) => {
            assert_eq!(phase, PhaseId::FreezeDetach);
            assert_eq!(reason, AbortReason::SourceCrashed);
            assert_eq!(recovery, Recovery::ImageOnly);
        }
        other => panic!("expected an aborted outcome, got {other:?}"),
    }
    assert_eq!(w.host_of(zone), None, "the live copy died with its source");
    assert_eq!(w.lost_images.len(), 1, "the captured image survived");
    assert_eq!(w.lost_images[0].pid, zone);

    // The destination is intact and keeps running.
    assert_eq!(w.active_migrations(), 0);
    w.run_for(SECOND);
}

// ---------------------------------------------------------------------
// orchestration-level aborts: stalls, kills, drains
// ---------------------------------------------------------------------

#[test]
fn fault_transfer_stall_aborts_via_fault_plan() {
    let (mut w, n0, n1, _ch, zone, updates_sent, _) = zone_world(0xfa06);
    // Scripted injection: the stall deadline fires 5 ms into the transfer.
    let at = w.now() + 5 * MILLISECOND;
    w.install_fault_plan(FaultPlan::new().at(at, Fault::TransferStall { pid: zone }));
    let mig = w.begin_migration(zone, n1, Strategy::Collective).unwrap();
    w.run_for(2 * SECOND);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            reason, recovery, ..
        }) => {
            assert_eq!(reason, AbortReason::TransferStalled);
            assert_eq!(recovery, Recovery::SourceKeptRunning);
        }
        other => panic!("expected an aborted outcome, got {other:?}"),
    }
    assert_eq!(w.host_of(zone), Some(n0));
    assert_stream_alive(&mut w, &updates_sent, "zone server after stall abort");
}

#[test]
fn fault_kill_process_mid_migration_aborts_first() {
    for (strategy, past_detach) in [
        (Strategy::Iterative, false),
        (Strategy::IncrementalCollective, true),
    ] {
        let (mut w, _n0, n1, _ch, zone, _, _) = zone_world(0xfa07);
        let mig = w.begin_migration(zone, n1, strategy).unwrap();
        if past_detach {
            run_until_past_detach(&mut w, mig, strategy);
        } else {
            w.run_for(5 * MILLISECOND);
        }

        assert!(w.kill_process(zone), "{strategy:?}: the process exists");

        match w.migration_outcome(mig) {
            Some(MigrationOutcome::Aborted { reason, .. }) => {
                assert_eq!(reason, AbortReason::ProcessKilled, "{strategy:?}")
            }
            other => panic!("{strategy:?}: expected an aborted outcome, got {other:?}"),
        }
        assert_eq!(w.active_migrations(), 0, "{strategy:?}");
        assert_eq!(w.host_of(zone), None, "{strategy:?}: the kill still lands");
        // The world keeps running cleanly with no stale migration events.
        w.run_for(2 * SECOND);
        assert!(w.lost_images.is_empty(), "{strategy:?}");
    }
}

#[test]
fn fault_detach_node_aborts_inbound_migration() {
    let (mut w, n0, n1, _ch, zone, updates_sent, _) = zone_world(0xfa08);
    let mig = w.begin_migration(zone, n1, Strategy::Iterative).unwrap();
    w.run_for(5 * MILLISECOND);

    // Administratively detaching the destination must first abort the
    // migration headed there (satellite: detach_node guards in-flight
    // migrations), then leave a healthy one-node world.
    w.detach_node(n1);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            reason, recovery, ..
        }) => {
            assert_eq!(reason, AbortReason::NodeDetached);
            assert_eq!(recovery, Recovery::SourceKeptRunning);
        }
        other => panic!("expected an aborted outcome, got {other:?}"),
    }
    assert_eq!(w.active_migrations(), 0);
    assert_eq!(w.host_of(zone), Some(n0));
    assert_stream_alive(
        &mut w,
        &updates_sent,
        "zone server after destination detach",
    );
}

// ---------------------------------------------------------------------
// conductor recovery: retry with backoff, blacklist, completion
// ---------------------------------------------------------------------

/// A synthetic CPU hog for load-balancing tests.
struct Hog {
    share: f64,
}

impl App for Hog {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.set_cpu_share(self.share);
        ctx.touch_memory(1);
    }
    fn tick_period_us(&self) -> u64 {
        200 * MILLISECOND
    }
}

#[test]
fn fault_conductor_retries_with_backoff_until_complete() {
    let mut w = World::new(WorldConfig {
        seed: 0xfa09,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();

    let mut pids = Vec::new();
    for i in 0..6 {
        pids.push(w.spawn_process(n0, &format!("hog{i}"), 8, 32, Box::new(Hog { share: 15.0 })));
    }
    w.spawn_process(n1, "small", 8, 32, Box::new(Hog { share: 10.0 }));

    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();

    // Wait for the conductor on the overloaded node to start a migration,
    // then stall it: the orchestration deadline aborts the transfer.
    let mut started = None;
    for _ in 0..200 {
        w.run_for(100 * MILLISECOND);
        if let Some((pid, mig)) = pids
            .iter()
            .find_map(|p| w.migration_of(*p).map(|m| (*p, m)))
        {
            started = Some((pid, mig));
            break;
        }
    }
    let (pid, mig) = started.expect("the conductor migrates a hog within 20 s");
    w.inject_fault(Fault::TransferStall { pid });
    assert!(
        matches!(
            w.migration_outcome(mig),
            Some(MigrationOutcome::Aborted {
                reason: AbortReason::TransferStalled,
                ..
            })
        ),
        "the stall aborted attempt #1"
    );

    // Recovery: the destination is blacklisted (30 s), the retry backs off
    // (base 2 s), waits out the embargo — n1 is the only other node — and
    // the re-attempt completes.
    w.run_for(45 * SECOND);

    let stats = w.hosts[n0].conductor.as_ref().expect("conductor").stats();
    assert!(
        stats.migrations_failed >= 1,
        "the abort was reported: {stats:?}"
    );
    assert!(stats.retries >= 1, "a retry fired: {stats:?}");
    assert!(
        stats.migrations_completed >= 1,
        "the retry eventually completed: {stats:?}"
    );
    assert_eq!(stats.migrations_abandoned, 0, "{stats:?}");
    assert!(w.reports.iter().any(|r| r.is_aborted()));
    assert!(w.reports.iter().any(|r| !r.is_aborted()));
    assert!(
        w.hosts[n1].procs.len() >= 2,
        "a hog landed on the spare node"
    );
}

#[test]
fn fault_ctrl_blackout_stalls_negotiation_without_wedging() {
    let mut w = World::new(WorldConfig {
        seed: 0xfa0a,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    for i in 0..6 {
        w.spawn_process(n0, &format!("hog{i}"), 8, 32, Box::new(Hog { share: 15.0 }));
    }
    w.spawn_process(n1, "small", 8, 32, Box::new(Hog { share: 10.0 }));

    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();
    // The receiver goes deaf for 10 s: requests are swallowed, the sender's
    // negotiation timeout (500 ms) keeps releasing it to try again.
    w.inject_fault(Fault::CtrlBlackout {
        host: n1,
        dir: CtrlDir::Both,
        for_us: 10 * SECOND,
    });

    w.run_for(8 * SECOND);
    let stats = w.hosts[n0].conductor.as_ref().expect("conductor").stats();
    assert!(
        stats.requests_sent >= 1,
        "the sender kept negotiating: {stats:?}"
    );
    assert!(
        w.reports.is_empty(),
        "no migration can start while the receiver is dark"
    );

    // Blackout lifts; the next request is heard and the migration runs.
    w.run_for(40 * SECOND);
    assert!(
        w.reports.iter().any(|r| !r.is_aborted()),
        "a migration completed after the blackout"
    );
}

/// Directional blackout (ISSUE 7 satellite): the receiver can *hear* but
/// not *speak*. It accepts the sender's request and reserves the slot, but
/// the accept never leaves the host — the sender's negotiation timeout
/// keeps it retrying, the receiver's reservation lease expires on its own,
/// and once the blackout lifts the handshake completes. Asymmetric
/// control-plane failure must wedge neither side.
#[test]
fn fault_ctrl_blackout_outbound_only_mutes_the_receiver() {
    let mut w = World::new(WorldConfig {
        seed: 0xfa0a,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    for i in 0..6 {
        w.spawn_process(n0, &format!("hog{i}"), 8, 32, Box::new(Hog { share: 15.0 }));
    }
    w.spawn_process(n1, "small", 8, 32, Box::new(Hog { share: 10.0 }));

    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();
    w.inject_fault(Fault::CtrlBlackout {
        host: n1,
        dir: CtrlDir::Outbound,
        for_us: 20 * SECOND,
    });

    w.run_for(18 * SECOND);
    let sender = w.hosts[n0].conductor.as_ref().expect("conductor").stats();
    assert!(
        sender.requests_sent >= 2,
        "the sender kept retrying into the silence: {sender:?}"
    );
    assert!(
        w.reports.is_empty(),
        "no transfer can start while every accept is swallowed"
    );
    let receiver = w.hosts[n1].conductor.as_ref().expect("conductor").stats();
    assert!(
        receiver.requests_accepted >= 1,
        "the receiver heard and accepted (inbound stayed open): {receiver:?}"
    );
    assert!(
        receiver.leases_expired >= 1,
        "unclaimed reservations must expire on their own: {receiver:?}"
    );

    // Voice restored: the next accept gets through and the migration runs.
    w.run_for(60 * SECOND);
    assert!(
        w.reports.iter().any(|r| !r.is_aborted()),
        "a migration completed once the receiver could speak again"
    );
}

// ---------------------------------------------------------------------
// correlated WAN loss across the freeze window
// ---------------------------------------------------------------------

#[test]
fn fault_burst_loss_during_migration_keeps_stream_and_migration_alive() {
    let (mut w, _n0, n1, ch, zone, _, updates_received) = zone_world(0xfa0b);
    // Correlated loss on the WAN access links for the whole transfer: each
    // client frame has a 2% chance of opening an 8-frame drop burst.
    w.inject_fault(Fault::DownlinkLoss {
        host: ch,
        model: LossModel::Burst { p: 0.02, burst: 8 },
        for_us: 3 * SECOND,
    });
    let mig = w
        .begin_migration(zone, n1, Strategy::IncrementalCollective)
        .unwrap();
    w.run_for(4 * SECOND);

    assert!(
        w.migration_outcome(mig).is_some_and(|o| o.is_completed()),
        "burst loss on the WAN must not kill the migration"
    );
    assert_eq!(w.host_of(zone), Some(n1));
    let report = w.reports.last().unwrap();
    assert!(!report.is_aborted());

    // The loss window is over; the swarm's streams recover on the new host.
    assert_stream_alive(&mut w, &updates_received, "swarm clients after burst loss");
}
