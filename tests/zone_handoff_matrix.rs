//! The zone-handoff matrix (ISSUE 10): interest-managed routing must keep
//! the interest table consistent across every migration strategy and every
//! way a migration can end. Each cell runs the AOI world (the zone server
//! registered as its zone's sole serving process, which is what routes the
//! zone's inbound frames by interest) and requires three properties after
//! the dust settles:
//!
//! * **exactly one subscriber per (pid, zone)** — whichever host ends up
//!   owning the process is the zone's only interest seat; neither a
//!   completed handoff nor any abort row may leak the other end's
//!   transient subscription;
//! * **zero `SubscriptionLeak`** — the invariant monitor's interest-table
//!   audit agrees with the placement reconciliation;
//! * **zero TCP payload bytes lost** — the paper's loss-prevention
//!   property holds under zoned routing exactly as under broadcast,
//!   because the destination subscribes the instant its capture hooks are
//!   armed.
//!
//! Rows: clean completion, destination crash before the detach point,
//! destination crash after it, and the epoch fence refusing a stale
//! post-partition restore (`FencedStaleEpoch`) — the latter driven through
//! the conductor, since only negotiated migrations carry an epoch.
//!
//! Also here: the detach-during-frame race (satellite) — a client host
//! departing between a frame's scheduling and its delivery is benign
//! churn, never a route error.

use dvelm::dve::apps::UPDATE_BYTES;
use dvelm::dve::{SwarmClient, ZoneServer, ZONE_BASE_PORT};
use dvelm::lb::ConductorPhase;
use dvelm::migrate::AbortReason;
use dvelm::net::ZoneId;
use dvelm::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The zone under test (an arbitrary id; the port is its routing identity).
const ZONE: ZoneId = ZoneId(7);

struct Scenario {
    w: World,
    n0: usize,
    n1: usize,
    zone: Pid,
    updates_sent: Rc<RefCell<u64>>,
    bytes_received: Rc<RefCell<u64>>,
}

/// The reference AOI scenario: a zone server on `n0` serving [`ZONE`] on
/// the shared public IP, a 4-connection TCP swarm behind the WAN router,
/// zoned inbound routing armed, invariant monitor on, warmed up for a
/// second. `hot` additionally raises the server's CPU share and starts the
/// conductors (the fenced cell needs a negotiated, epoch-carrying
/// migration; the direct cells steer the transfer themselves).
fn build(seed: u64, strategy: Strategy, hot: bool) -> Scenario {
    let mut w = World::new(WorldConfig {
        seed,
        strategy,
        // Stretch control latency so the fenced cell's conductor phases are
        // wide enough to aim a partition into (harmless for direct cells).
        ctrl_latency_us: 20 * MILLISECOND,
        lb: PolicyConfig {
            blacklist_us: 5 * SECOND,
            calm_down_us: 3 * SECOND,
            retry_backoff_base_us: SECOND,
            ..PolicyConfig::default()
        },
        ..WorldConfig::default()
    });
    w.enable_monitor();

    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let ch = w.add_client_host();

    let mut server = ZoneServer::new();
    if hot {
        server.cpu_base = 40.0; // the only worthwhile migration candidate
    }
    let updates_sent = server.updates_sent.clone();
    let zone = w.spawn_process(n0, "zone", 64, 1024, Box::new(server));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    w.app_tcp_listen(n0, zone, addr);
    w.register_zone_interest(n0, zone, addr.port, ZONE);

    let client = SwarmClient::new();
    let bytes_received = client.bytes_received.clone();
    let swarm = w.spawn_process(ch, "swarm", 64, 256, Box::new(client));
    for _ in 0..4 {
        w.app_tcp_connect(ch, swarm, addr, false);
    }

    w.run_for(SECOND);
    if hot {
        w.enable_load_balancing();
    }
    Scenario {
        w,
        n0,
        n1,
        zone,
        updates_sent,
        bytes_received,
    }
}

/// The matrix's shared acceptance: the zone has exactly one interest seat
/// and it belongs to the host running the serving process; the monitor's
/// audit (which includes the `SubscriptionLeak` rule) is clean.
fn assert_zone_consistent(s: &mut Scenario, what: &str) {
    let owner =
        s.w.host_of(s.zone)
            .unwrap_or_else(|| panic!("{what}: the zone process must be running somewhere"));
    let subs = s.w.zone_subscribers(ZONE);
    assert_eq!(
        subs,
        vec![s.w.hosts[owner].stack.node],
        "{what}: the zone must have exactly one subscriber — its owner's node"
    );
    assert_eq!(
        s.w.zones_of(s.zone),
        vec![ZONE],
        "{what}: the pid's zone registration must survive the handoff"
    );
    s.w.monitor_sweep();
    assert!(
        s.w.violations().is_empty(),
        "{what}: invariant violations (subscription leak?): {:?}",
        s.w.violations()
    );
}

/// Zero TCP payload bytes lost: everything the server wrote up to this
/// instant eventually reaches the clients (TCP retransmission + capture
/// re-injection carry it across freeze and abort alike).
fn assert_bytes_settle(s: &mut Scenario, what: &str) {
    let target = *s.updates_sent.borrow() * UPDATE_BYTES as u64;
    let mut waited = 0u64;
    while *s.bytes_received.borrow() < target {
        assert!(
            waited < 20 * SECOND,
            "{what}: update stream is missing bytes: sent {target}, \
             received {} after 20 s of settling",
            *s.bytes_received.borrow()
        );
        s.w.run_for(100 * MILLISECOND);
        waited += 100 * MILLISECOND;
    }
}

/// Drive the world until the migration crosses its detach point.
fn run_until_past_detach(w: &mut World, mig: dvelm::cluster::MigId, what: &str) {
    let mut deadline = w.now();
    while w.migration_past_detach(mig) == Some(false) {
        deadline += 200;
        w.run_until(deadline);
    }
    assert_eq!(
        w.migration_past_detach(mig),
        Some(true),
        "{what}: migration finished before the crash window opened"
    );
}

// ---------------------------------------------------------------------
// row 1: clean completion — the subscription follows the process
// ---------------------------------------------------------------------

#[test]
fn handoff_clean_complete_moves_the_subscription() {
    for strategy in Strategy::ALL {
        let mut s = build(0x20e1, strategy, false);
        assert_eq!(
            s.w.zone_subscribers(ZONE),
            vec![s.w.hosts[s.n0].stack.node],
            "{strategy:?}: before the handoff the source holds the seat"
        );
        let mig = s.w.begin_migration(s.zone, s.n1, strategy).unwrap();
        s.w.run_for(4 * SECOND);
        assert!(
            s.w.migration_outcome(mig).is_some_and(|o| o.is_completed()),
            "{strategy:?}: clean cell must complete: {:?}",
            s.w.migration_outcome(mig)
        );
        assert_eq!(s.w.host_of(s.zone), Some(s.n1), "{strategy:?}");
        assert_zone_consistent(&mut s, &format!("{strategy:?} clean complete"));
        assert_bytes_settle(&mut s, &format!("{strategy:?} clean complete"));
    }
}

// ---------------------------------------------------------------------
// row 2: destination crash before detach — the source never lost its seat
// ---------------------------------------------------------------------

#[test]
fn handoff_predetach_abort_keeps_source_subscribed() {
    for strategy in Strategy::ALL {
        let mut s = build(0x20e2, strategy, false);
        let mig = s.w.begin_migration(s.zone, s.n1, strategy).unwrap();
        s.w.run_for(5 * MILLISECOND);
        assert_eq!(
            s.w.migration_past_detach(mig),
            Some(false),
            "{strategy:?}: 4 MiB of precopy cannot have finished in 5 ms"
        );
        let n1 = s.n1;
        s.w.inject_fault(Fault::NodeCrash { host: n1 });
        assert!(
            matches!(
                s.w.migration_outcome(mig),
                Some(MigrationOutcome::Aborted {
                    reason: AbortReason::DestinationCrashed,
                    ..
                })
            ),
            "{strategy:?}: expected a DestinationCrashed abort, got {:?}",
            s.w.migration_outcome(mig)
        );
        assert_eq!(s.w.host_of(s.zone), Some(s.n0), "{strategy:?}");
        assert_zone_consistent(&mut s, &format!("{strategy:?} pre-detach abort"));
        assert_bytes_settle(&mut s, &format!("{strategy:?} pre-detach abort"));
    }
}

// ---------------------------------------------------------------------
// row 3: destination crash after detach — the rollback returns the seat
// ---------------------------------------------------------------------

#[test]
fn handoff_postdetach_abort_restores_source_subscription() {
    for strategy in Strategy::ALL {
        let mut s = build(0x20e3, strategy, false);
        let mig = s.w.begin_migration(s.zone, s.n1, strategy).unwrap();
        run_until_past_detach(&mut s.w, mig, &format!("{strategy:?} post-detach"));
        let n1 = s.n1;
        s.w.inject_fault(Fault::NodeCrash { host: n1 });

        let Some(MigrationOutcome::Aborted {
            phase,
            reason,
            recovery,
        }) = s.w.migration_outcome(mig)
        else {
            panic!(
                "{strategy:?}: expected an aborted outcome, got {:?}",
                s.w.migration_outcome(mig)
            );
        };
        assert_eq!(phase, dvelm::migrate::PhaseId::FreezeDetach, "{strategy:?}");
        assert_eq!(reason, AbortReason::DestinationCrashed, "{strategy:?}");
        assert_eq!(recovery, Recovery::RestoredOnSource, "{strategy:?}");
        assert_eq!(s.w.host_of(s.zone), Some(s.n0), "{strategy:?}");
        assert_zone_consistent(&mut s, &format!("{strategy:?} post-detach abort"));
        assert_bytes_settle(&mut s, &format!("{strategy:?} post-detach abort"));
    }
}

// ---------------------------------------------------------------------
// row 4: the epoch fence refuses a stale restore — seat stays consistent
// ---------------------------------------------------------------------

/// Step in 2 ms slices until `host`'s conductor satisfies `pred`.
fn run_until_phase(w: &mut World, host: usize, what: &str, pred: impl Fn(&ConductorPhase) -> bool) {
    let give_up = w.now() + 60 * SECOND;
    let mut deadline = w.now();
    loop {
        let phase = w.hosts[host].conductor.as_ref().expect("conductor").phase();
        if pred(&phase) {
            return;
        }
        assert!(
            deadline <= give_up,
            "{what}: conductor never reached the target phase (stuck at {phase:?})"
        );
        deadline += 2 * MILLISECOND;
        w.run_until(deadline);
    }
}

#[test]
fn handoff_fenced_stale_epoch_leaves_one_subscriber() {
    // Conductor-negotiated (epoch-carrying) migration per configured
    // strategy ceiling; the partition is aimed into the fence window — the
    // cut opens past detach and heals 1 µs after the destination's lease
    // expires, so the woken transfer's restore is refused by the fence
    // (see `tests/partition_matrix.rs` for the fence choreography itself).
    // Whatever concrete strategy the conductor maps the ceiling to, the
    // interest table must end with exactly one seat.
    for strategy in Strategy::ALL {
        let what = format!("{strategy:?} fenced stale epoch");
        let mut s = build(0x20e4, strategy, true);
        run_until_phase(&mut s.w, s.n0, &what, |p| {
            matches!(p, ConductorPhase::Sending { .. })
        });
        let mig = s.w.migration_of(s.zone).expect("transfer in flight");
        run_until_past_detach(&mut s.w, mig, &what);
        let phase = s.w.hosts[s.n0]
            .conductor
            .as_ref()
            .expect("conductor")
            .phase();
        let ConductorPhase::Sending { lease_until, .. } = phase else {
            panic!("{what}: sender must still be mid-transfer, got {phase:?}");
        };
        let (a, b) = (s.n0, s.n1);
        let heal_after = lease_until.saturating_since(s.w.now()) + 1;
        s.w.inject_fault(Fault::Partition {
            groups: [HostSet::of(&[a]), HostSet::of(&[b])],
            for_us: heal_after,
        });
        s.w.run_for(40 * SECOND);
        assert!(
            matches!(
                s.w.migration_outcome(mig),
                Some(MigrationOutcome::Aborted {
                    reason: AbortReason::FencedStaleEpoch,
                    ..
                })
            ),
            "{what}: the fence must be what stopped the resume, got {:?}",
            s.w.migration_outcome(mig)
        );
        assert_zone_consistent(&mut s, &what);
        assert_bytes_settle(&mut s, &what);
    }
}

// ---------------------------------------------------------------------
// satellite: a client departing mid-frame is churn, not a route error
// ---------------------------------------------------------------------

#[test]
fn client_departure_races_scheduled_frames_benignly() {
    // The swarm is mid-stream (20 Hz updates across 4 connections, plus
    // TCP ACK chatter) when its host logs off. Frames scheduled toward the
    // departed host — and the server's in-flight replies — must be dropped
    // as benign races, with the route-error tally untouched.
    let mut s = build(0x20e5, Strategy::IncrementalCollective, false);
    let route_errors_before = s.w.route_errors();
    let ch =
        s.w.hosts
            .iter()
            .position(|h| h.kind == dvelm::cluster::HostKind::Client)
            .expect("the scenario has a client host");
    s.w.detach_client_host(ch);
    // The server keeps streaming at the dead connections until its
    // retransmission timers give up — every one of those frames is the
    // race under test.
    s.w.run_for(2 * SECOND);
    assert!(
        s.w.benign_route_races() > 0,
        "a mid-stream departure must race at least one scheduled frame"
    );
    assert_eq!(
        s.w.route_errors(),
        route_errors_before,
        "departed-client races must never count as route errors"
    );
    // The zone's interest seat is untouched by client churn.
    assert_eq!(s.w.zone_subscribers(ZONE), vec![s.w.hosts[s.n0].stack.node]);
    s.w.monitor_sweep();
    assert!(
        s.w.violations().is_empty(),
        "client departure must not trip the monitor: {:?}",
        s.w.violations()
    );
}
