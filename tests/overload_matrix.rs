//! The overload matrix: resource budgets must hold under pressure (ISSUE 3).
//!
//! World-level acceptance tests for the overload-protection subsystem:
//!
//! * a traffic surge during precopy drives the dirty rate past the drain
//!   rate; the convergence guard aborts with `NonConverging` and the
//!   rollback leaves the source copy running with zero downtime;
//! * the wall-clock deadline guard aborts a migration that cannot finish
//!   inside its budget (`Overloaded`), again without freezing the app;
//! * a bounded capture queue sheds TCP only in the recoverable way — a
//!   refused segment is indistinguishable from wire loss, so dedup plus the
//!   sender's retransmission recover every byte and the stream never gaps;
//! * the `HardFail` shed policy instead turns queue pressure into a typed
//!   abort, routed from the stack hook up through the effect pipeline;
//! * admission control keeps concurrent migrations and in-flight image
//!   bytes under their cluster-wide caps during a thundering herd, while
//!   denied conductors retry until the herd drains;
//! * idle translation rules are garbage-collected once a TTL is configured.

use dvelm::dve::{SwarmClient, ZoneServer, ZONE_BASE_PORT};
use dvelm::lb::AdmissionConfig;
use dvelm::migrate::{AbortReason, OverloadGuard, PhaseId};
use dvelm::prelude::*;
use dvelm::stack::{CaptureBudget, TcpShedPolicy, XlateRule};
use std::cell::RefCell;
use std::rc::Rc;

/// Live app-side counters handed out by [`zone_world_with`].
struct ZoneCounters {
    updates_sent: Rc<RefCell<u64>>,
    cmds_received: Rc<RefCell<u64>>,
    updates_received: Rc<RefCell<u64>>,
}

/// The reference scenario from the fault matrix — a zone server on `n0`
/// with a 4-connection TCP swarm behind the WAN router, warmed up for a
/// second — but with a caller-controlled [`WorldConfig`] so each test can
/// arm exactly one protection mechanism.
fn zone_world_with(cfg: WorldConfig) -> (World, usize, usize, usize, Pid, ZoneCounters) {
    let mut w = World::new(cfg);
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let ch = w.add_client_host();

    let server = ZoneServer::new();
    let updates_sent = server.updates_sent.clone();
    let cmds_received = server.cmds_received.clone();
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
    let counters = ZoneCounters {
        updates_sent,
        cmds_received,
        updates_received,
    };
    (w, n0, n1, ch, zone, counters)
}

/// Assert that `counter` keeps advancing over the next two seconds.
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
// surge during precopy → NonConverging abort with clean rollback
// ---------------------------------------------------------------------

#[test]
fn fault_surge_during_precopy_aborts_nonconverging() {
    // The zone dirties 100 pages per 10 ms frame (~40 MB/s). A 32× surge
    // re-dirties the entire 4.5 MiB image inside even the shortest precopy
    // round, so every round ships the same full diff — the dirty rate has
    // outrun the 125 MB/s drain rate and the diffs stop shrinking.
    let (mut w, n0, n1, _ch, zone, c) = zone_world_with(WorldConfig {
        seed: 0x0b01,
        overload_guard: OverloadGuard {
            deadline_us: None,
            max_stagnant_rounds: Some(2),
        },
        ..WorldConfig::default()
    });
    w.inject_fault(Fault::Overload {
        host: n0,
        factor: 32,
        for_us: 0,
    });
    assert_eq!(w.resource_usage().surged_hosts, 1);

    let mig = w.begin_migration(zone, n1, Strategy::Collective).unwrap();
    w.run_for(4 * SECOND);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            reason, recovery, ..
        }) => {
            assert_eq!(reason, AbortReason::NonConverging);
            assert_eq!(
                recovery,
                Recovery::SourceKeptRunning,
                "the convergence guard fires before the freeze: nothing to roll back"
            );
        }
        other => panic!("expected a NonConverging abort, got {other:?}"),
    }
    assert_eq!(w.active_migrations(), 0);
    assert_eq!(w.host_of(zone), Some(n0));

    // Clean rollback: zero downtime (the admission slot went with the
    // migration, asserted above).
    let report = w.reports.last().expect("abort produces a report");
    assert!(report.is_aborted());
    assert_eq!(report.freeze_us(), 0, "precopy abort must not freeze");

    assert_stream_alive(&mut w, &c.updates_sent, "zone under surge after abort");
}

#[test]
fn fault_migration_deadline_aborts_overloaded() {
    // 4 MiB at 125 MB/s needs ~33 ms of precopy alone; a 10 ms wall-clock
    // budget cannot be met, so the second round refuses to start.
    let (mut w, n0, n1, _ch, zone, c) = zone_world_with(WorldConfig {
        seed: 0x0b02,
        overload_guard: OverloadGuard {
            deadline_us: Some(10_000),
            max_stagnant_rounds: None,
        },
        ..WorldConfig::default()
    });

    let mig = w
        .begin_migration(zone, n1, Strategy::IncrementalCollective)
        .unwrap();
    w.run_for(2 * SECOND);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            reason, recovery, ..
        }) => {
            assert_eq!(reason, AbortReason::Overloaded);
            assert_eq!(recovery, Recovery::SourceKeptRunning);
        }
        other => panic!("expected an Overloaded abort, got {other:?}"),
    }
    assert_eq!(w.host_of(zone), Some(n0));
    assert_eq!(w.reports.last().unwrap().freeze_us(), 0);
    assert_stream_alive(&mut w, &c.updates_sent, "zone after deadline abort");
}

// ---------------------------------------------------------------------
// deadline audit: a stalled post-detach transfer still hits the budget
// ---------------------------------------------------------------------

#[test]
fn fault_stalled_postdetach_transfer_exceeds_deadline() {
    // Regression (ISSUE 8 satellite): the wall-clock budget used to be
    // checked only between precopy rounds, so a migration parked *after*
    // detach (here by a partition) could overshoot the deadline by an
    // unbounded amount and still commit. The audit enforces the budget at
    // the restore boundary too: when the partition heals, the restore step
    // finds the deadline blown and compensates with restore-on-source.
    let (mut w, n0, n1, _ch, zone, c) = zone_world_with(WorldConfig {
        seed: 0x0b0b,
        overload_guard: OverloadGuard {
            // Roomy enough for the unstalled migration (~630 ms end to
            // end), far too tight for a 2 s mid-transfer park.
            deadline_us: Some(700 * MILLISECOND),
            max_stagnant_rounds: None,
        },
        ..WorldConfig::default()
    });
    // Collective's freeze transfer (final delta + full socket records,
    // ~6 ms) is the post-detach interval the partition will park.
    let mig = w.begin_migration(zone, n1, Strategy::Collective).unwrap();
    // Step an absolute deadline until the sockets have left the source.
    let mut t = w.now();
    while w.migration_past_detach(mig) == Some(false) {
        t += 200;
        w.run_until(t);
    }
    assert_eq!(
        w.migration_past_detach(mig),
        Some(true),
        "migration finished before the stall window opened: {:?}",
        w.migration_outcome(mig)
    );

    // Park the in-flight transfer well past the whole budget.
    w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[n0]), HostSet::of(&[n1])],
        for_us: 2 * SECOND,
    });
    w.run_for(3 * SECOND);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted {
            phase,
            reason,
            recovery,
        }) => {
            assert_eq!(phase, PhaseId::FreezeDetach, "the abort is post-detach");
            assert_eq!(reason, AbortReason::Overloaded, "the deadline guard fired");
            assert_eq!(
                recovery,
                Recovery::RestoredOnSource,
                "past detach the compensation is restore-on-source"
            );
        }
        other => panic!("expected the blown deadline to abort, got {other:?}"),
    }
    assert_eq!(w.host_of(zone), Some(n0));
    assert_stream_alive(&mut w, &c.updates_sent, "zone after deadline restore");
}

// ---------------------------------------------------------------------
// bounded capture queue: shed is always recoverable
// ---------------------------------------------------------------------

#[test]
fn fault_capture_shed_never_loses_a_tcp_byte() {
    // Two packets per capture entry is far below what four surged clients
    // produce across the freeze window, so the hook must refuse segments.
    // Under CoalesceBySeq a refusal is wire loss: retransmission re-offers
    // the segment and the stream stays gap-free.
    let (mut w, _n0, n1, ch, zone, c) = zone_world_with(WorldConfig {
        seed: 0x0b03,
        capture_budget: CaptureBudget::bounded(2, 64 * 1024),
        ..WorldConfig::default()
    });
    // Flash crowd: the swarm ticks 32× faster (one 64-byte command per
    // connection every ~1.6 ms) for the whole migration.
    w.inject_fault(Fault::Overload {
        host: ch,
        factor: 32,
        for_us: 0,
    });

    let cmds_before = *c.cmds_received.borrow();
    let mig = w
        .begin_migration(zone, n1, Strategy::IncrementalCollective)
        .unwrap();
    w.run_for(4 * SECOND);

    assert!(
        w.migration_outcome(mig).is_some_and(|o| o.is_completed()),
        "recoverable shedding must not kill the migration: {:?}",
        w.migration_outcome(mig)
    );
    assert_eq!(w.host_of(zone), Some(n1));

    // The budget actually bit, and it was never exceeded.
    let stats = w.hosts[n1].stack.capture.stats();
    assert!(
        stats.shed_tcp_refused > 0,
        "the surge must overflow a 2-packet queue: {stats:?}"
    );
    assert_eq!(stats.hard_failures, 0, "{stats:?}");
    assert!(stats.peak_queued_packets <= 2, "budget exceeded: {stats:?}");

    // No TCP byte was lost: commands sent during the freeze (including
    // every refused segment) reach the app on the new host, and the
    // downstream update flow never gaps either.
    assert_stream_alive(&mut w, &c.cmds_received, "upstream commands after shed");
    assert!(*c.cmds_received.borrow() > cmds_before);
    assert_stream_alive(&mut w, &c.updates_received, "downstream updates after shed");
}

#[test]
fn fault_capture_hardfail_escalates_to_typed_abort() {
    // Same pressure, but the operator forbade shedding: the first refused
    // segment must surface as a HardFail pressure event, which the world
    // routes into an `Overloaded` abort — the source copy takes over and
    // ACKs the retransmissions.
    let (mut w, n0, n1, ch, zone, c) = zone_world_with(WorldConfig {
        seed: 0x0b04,
        capture_budget: CaptureBudget {
            max_packets: 2,
            max_bytes: 64 * 1024,
            tcp_policy: TcpShedPolicy::HardFail,
        },
        ..WorldConfig::default()
    });
    w.inject_fault(Fault::Overload {
        host: ch,
        factor: 32,
        for_us: 0,
    });

    let mig = w
        .begin_migration(zone, n1, Strategy::IncrementalCollective)
        .unwrap();
    w.run_for(4 * SECOND);

    match w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted { reason, .. }) => {
            assert_eq!(reason, AbortReason::Overloaded);
        }
        other => panic!("expected queue pressure to abort the migration, got {other:?}"),
    }
    assert_eq!(w.active_migrations(), 0);
    assert_eq!(
        w.host_of(zone),
        Some(n0),
        "rollback must leave the zone on its source"
    );
    assert!(w.hosts[n1].stack.capture.stats().hard_failures > 0);

    assert_stream_alive(&mut w, &c.updates_sent, "zone after hard-fail abort");
}

// ---------------------------------------------------------------------
// admission control under a thundering herd
// ---------------------------------------------------------------------

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
fn admission_caps_thundering_herd() {
    const CAP: usize = 2;
    let mut w = World::new(WorldConfig {
        seed: 0x0b05,
        admission: AdmissionConfig {
            max_cluster_migrations: CAP,
            max_node_migrations: 1,
            max_inflight_image_bytes: u64::MAX,
        },
        ..WorldConfig::default()
    });

    // Six overloaded nodes all wake up wanting to migrate at once, toward
    // four light receivers. The hogs carry ~34 MiB images (~300 ms on the
    // wire) so transfers overlap and the cluster semaphore actually
    // arbitrates.
    let mut heavy = Vec::new();
    let mut first_hog = Vec::new();
    for n in 0..6 {
        let node = w.add_server_node();
        for i in 0..6 {
            let pid = w.spawn_process(
                node,
                &format!("hog{n}-{i}"),
                64,
                8192,
                Box::new(Hog { share: 15.0 }),
            );
            if i == 0 {
                first_hog.push(pid);
            }
        }
        heavy.push(node);
    }
    let mut light = Vec::new();
    for n in 0..4 {
        let node = w.add_server_node();
        w.spawn_process(
            node,
            &format!("small{n}"),
            8,
            32,
            Box::new(Hog { share: 8.0 }),
        );
        light.push(node);
    }

    w.run_for(300 * MILLISECOND);

    // Phase 1 — the herd proper: every overloaded node tries to push a hog
    // out in the same instant. The cluster semaphore admits exactly CAP of
    // the six and turns the rest away at the gate.
    let mut admitted = Vec::new();
    let mut turned_away = 0;
    for (i, pid) in first_hog.iter().enumerate() {
        match w.begin_migration(
            *pid,
            light[i % light.len()],
            Strategy::IncrementalCollective,
        ) {
            Some(mig) => admitted.push(mig),
            None => turned_away += 1,
        }
    }
    assert_eq!(admitted.len(), CAP, "exactly CAP admitted");
    assert_eq!(turned_away, first_hog.len() - CAP);
    assert_eq!(w.admission().stats().denied_cluster as usize, turned_away);
    assert_eq!(w.active_migrations(), CAP);

    w.run_for(4 * SECOND);
    for mig in &admitted {
        assert!(
            w.migration_outcome(*mig).is_some_and(|o| o.is_completed()),
            "admitted migrations complete: {:?}",
            w.migration_outcome(*mig)
        );
    }
    assert_eq!(w.active_migrations(), 0, "slots released on completion");

    // Phase 2 — organic load balancing on top: the conductors keep pushing
    // load off the heavy nodes while the budget invariant is sampled.
    w.enable_load_balancing();

    // The invariant the budgets exist for: sampled every 5 ms across the
    // whole herd, concurrency never exceeds the cap. Step an *absolute*
    // deadline (a relative `run_for` spins in place when the next event
    // lies beyond the slice).
    let mut deadline = w.now();
    for _ in 0..8_000 {
        deadline += 5 * MILLISECOND;
        w.run_until(deadline);
        let usage = w.resource_usage();
        assert!(
            usage.active_migrations <= CAP,
            "admission cap violated: {usage:?}"
        );
    }

    let stats = w.admission().stats();
    assert!(stats.peak_active <= CAP, "{stats:?}");
    assert!(
        stats.admitted >= 2,
        "the herd must make progress through the gate: {stats:?}"
    );
    assert!(
        w.reports.iter().any(|r| !r.is_aborted()),
        "at least one migration completed"
    );
    let landed: usize = light.iter().map(|n| w.hosts[*n].procs.len()).sum();
    assert!(
        landed > 4,
        "hogs must have landed on the light nodes: {landed}"
    );
}

// ---------------------------------------------------------------------
// translation-rule TTL garbage collection
// ---------------------------------------------------------------------

#[test]
fn xlate_gc_spares_actively_used_outbound_rule() {
    // An outbound-only flow (this host sends to a migrated peer but the
    // peer never talks back) must keep its translation rule alive: every
    // LOCAL_OUT match refreshes the rule's TTL via the threaded clock.
    // Regression: a clockless outgoing() left last_hit at ZERO, so the GC
    // evicted the rule mid-use and packets silently went to the old IP.
    let ttl = 500 * MILLISECOND;
    let mut w = World::new(WorldConfig {
        seed: 0x0b08,
        xlate_gc_ttl_us: Some(ttl),
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let _n1 = w.add_server_node();

    let local = SockAddr::new(Ip::local_of(NodeId(0)), 4000);
    let sid = w.hosts[n0].stack.udp_bind(local).unwrap();
    let old_remote = SockAddr::new(Ip::local_of(NodeId(1)), 9000);
    let rule = XlateRule::new(
        local,
        old_remote.ip,
        Ip::local_of(NodeId(2)),
        old_remote.port,
    );
    let now = w.now();
    w.hosts[n0].stack.xlate.install_at(rule, now);

    // Send through the rule every 200 ms — well inside the 500 ms TTL —
    // while the GC sweeps every 500 ms.
    for _ in 0..15 {
        let now = w.now();
        let _ =
            w.hosts[n0]
                .stack
                .udp_send_to(sid, old_remote, bytes::Bytes::from_static(b"pos"), now);
        w.run_for(200 * MILLISECOND);
    }
    assert_eq!(
        w.hosts[n0].stack.xlate.len(),
        1,
        "an actively used outbound rule must survive TTL GC"
    );
    assert_eq!(w.hosts[n0].stack.xlate.stats().gc_evicted, 0);

    // Once the flow stops, the rule ages out as designed.
    w.run_for(2 * SECOND);
    assert_eq!(w.hosts[n0].stack.xlate.len(), 0);
}

#[test]
fn overlapping_surges_newer_one_survives_stale_restore() {
    // A short timed surge schedules its own restore; a second, longer
    // surge installed before the first expires must not be ended early by
    // the first surge's (now stale) restore.
    let mut w = World::new(WorldConfig {
        seed: 0x0b09,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    w.inject_fault(Fault::Overload {
        host: n0,
        factor: 8,
        for_us: 500 * MILLISECOND,
    });
    assert_eq!(w.resource_usage().surged_hosts, 1);
    w.run_for(200 * MILLISECOND);
    w.inject_fault(Fault::Overload {
        host: n0,
        factor: 16,
        for_us: 2 * SECOND,
    });

    // Past the first surge's restore instant (t = 500 ms): the newer surge
    // must still be in force.
    w.run_for(600 * MILLISECOND);
    assert_eq!(
        w.resource_usage().surged_hosts,
        1,
        "the stale restore ended the newer surge early"
    );

    // The second surge's own restore (t = 2.2 s) does end it.
    w.run_for(2 * SECOND);
    assert_eq!(w.resource_usage().surged_hosts, 0);
}

#[test]
fn capture_pressure_charges_the_owning_migration() {
    // Two concurrent migrations into the same destination: queue pressure
    // from migration B's capture entries must abort B, not A (the
    // lowest-id migration), even though A is still in flight.
    let mut w = World::new(WorldConfig {
        seed: 0x0b0a,
        capture_budget: CaptureBudget {
            max_packets: 2,
            max_bytes: 64 * 1024,
            tcp_policy: TcpShedPolicy::HardFail,
        },
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();
    let ch_a = w.add_client_host();
    let ch_b = w.add_client_host();

    // Zone A: large image (long transfer, still in flight when B's queue
    // overflows), calm clients.
    let zone_a = w.spawn_process(n0, "zoneA", 64, 4096, Box::new(ZoneServer::new()));
    let addr_a = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    w.app_tcp_listen(n0, zone_a, addr_a);
    let swarm_a = w.spawn_process(ch_a, "swarmA", 64, 256, Box::new(SwarmClient::new()));
    for _ in 0..2 {
        w.app_tcp_connect(ch_a, swarm_a, addr_a, false);
    }

    // Zone B: small image, clients about to stampede.
    let zone_b = w.spawn_process(n1, "zoneB", 64, 1024, Box::new(ZoneServer::new()));
    let addr_b = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT + 1);
    w.app_tcp_listen(n1, zone_b, addr_b);
    let swarm_b = w.spawn_process(ch_b, "swarmB", 64, 256, Box::new(SwarmClient::new()));
    for _ in 0..4 {
        w.app_tcp_connect(ch_b, swarm_b, addr_b, false);
    }

    w.run_for(SECOND);
    w.inject_fault(Fault::Overload {
        host: ch_b,
        factor: 32,
        for_us: 0,
    });

    let mig_a = w
        .begin_migration(zone_a, n2, Strategy::IncrementalCollective)
        .unwrap();
    let mig_b = w
        .begin_migration(zone_b, n2, Strategy::IncrementalCollective)
        .unwrap();
    assert!(mig_a < mig_b, "A must be the lower-id migration");
    w.run_for(4 * SECOND);

    match w.migration_outcome(mig_b) {
        Some(MigrationOutcome::Aborted { reason, .. }) => {
            assert_eq!(reason, AbortReason::Overloaded);
        }
        other => panic!("expected B's surge to abort B, got {other:?}"),
    }
    assert!(
        w.migration_outcome(mig_a).is_some_and(|o| o.is_completed()),
        "pressure from B's queue must not be charged to A: {:?}",
        w.migration_outcome(mig_a)
    );
    assert_eq!(w.host_of(zone_a), Some(n2));
    assert_eq!(w.host_of(zone_b), Some(n1), "B rolled back to its source");
}

#[test]
fn shared_capture_key_pressure_charges_the_installer() {
    // The harder attribution case: two concurrent migrations into `n2`
    // whose processes listen on the *same* public port on different source
    // hosts. Both engines then carry the identical wildcard capture key
    // `any_remote(ZONE_BASE_PORT)`, and because `CaptureTable::enable` is
    // idempotent they silently share one queue on the destination stack.
    // A SYN burst overflowing that shared queue must abort the migration
    // that *installed* the entry (B, which froze first), not whichever
    // sibling sorts first by id (A, which started earlier and is still
    // mid-freeze holding the very same key).
    let mut w = World::new(WorldConfig {
        seed: 0x0b0b,
        capture_budget: CaptureBudget {
            max_packets: 2,
            max_bytes: 64 * 1024,
            tcp_policy: TcpShedPolicy::HardFail,
        },
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();
    let ch = w.add_client_host();

    // Both servers are idle (no established connections), so the shared
    // wildcard listener key is the only capture entry either migration
    // installs — every byte of queue pressure lands on the shared queue.
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    let zone_a = w.spawn_process(n0, "zoneA", 64, 16384, Box::new(ZoneServer::new()));
    w.app_tcp_listen(n0, zone_a, addr);
    let zone_b = w.spawn_process(n1, "zoneB", 64, 512, Box::new(ZoneServer::new()));
    w.app_tcp_listen(n1, zone_b, addr);
    w.run_for(SECOND);

    // A starts first (lower id) but carries a 64 MiB image; B's 2 MiB
    // image freezes within tens of milliseconds, so B reaches the capture
    // step — and claims the shared entry — long before A does.
    let mig_a = w
        .begin_migration(zone_a, n2, Strategy::IncrementalCollective)
        .unwrap();
    let mig_b = w
        .begin_migration(zone_b, n2, Strategy::IncrementalCollective)
        .unwrap();
    assert!(mig_a < mig_b, "A must be the lower-id migration");

    // Step an *absolute* deadline forward (the clock only advances when
    // events are popped, so a relative slice can spin in place).
    let stop = w.now() + 4 * SECOND;
    let mut deadline = w.now();
    while w.migration_past_detach(mig_b) == Some(false) {
        assert!(deadline < stop, "B never reached its detach");
        deadline += 200;
        w.run_until(deadline);
    }
    assert_eq!(
        w.migration_past_detach(mig_b),
        Some(true),
        "B finished before it could be parked"
    );
    // Park B mid-transfer so its capture entry outlives A's freeze.
    w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[n1]), HostSet::of(&[n0, n2, ch])],
        for_us: 10 * SECOND,
    });

    let stop = w.now() + 4 * SECOND;
    let mut deadline = w.now();
    while w.migration_past_detach(mig_a) == Some(false) {
        assert!(deadline < stop, "A never reached its detach");
        deadline += 200;
        w.run_until(deadline);
    }
    // Park A as well (partitions compose: n0 and n1 are now each cut off,
    // while `ch` can still reach `n2`). Both engines now hold the shared
    // key, and neither can finish and tear the entry down under us.
    w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[n0]), HostSet::of(&[n1, n2, ch])],
        for_us: 10 * SECOND,
    });
    assert!(
        w.migration_outcome(mig_a).is_none(),
        "A must still be in flight when the burst lands: {:?}",
        w.migration_outcome(mig_a)
    );
    assert!(
        w.migration_outcome(mig_b).is_none(),
        "B must still be parked when A freezes: {:?}",
        w.migration_outcome(mig_b)
    );

    // Eight fresh SYNs into the shared wildcard queue (budget: 2 packets).
    let swarm = w.spawn_process(ch, "burst", 64, 256, Box::new(SwarmClient::new()));
    for _ in 0..8 {
        w.app_tcp_connect(ch, swarm, addr, false);
    }
    w.run_for(200 * MILLISECOND);

    match w.migration_outcome(mig_b) {
        Some(MigrationOutcome::Aborted { reason, .. }) => {
            assert_eq!(reason, AbortReason::Overloaded);
        }
        other => panic!("expected the shared-queue overflow to abort B, got {other:?}"),
    }
    assert!(w.hosts[n2].stack.capture.stats().hard_failures > 0);

    // A held the same key the whole time and must be unharmed: after the
    // partitions heal, it completes and both zones end up where the
    // attribution says they should.
    assert!(
        w.migration_outcome(mig_a).is_none(),
        "the abort must not have touched parked A: {:?}",
        w.migration_outcome(mig_a)
    );
    w.run_for(15 * SECOND);
    assert!(
        w.migration_outcome(mig_a).is_some_and(|o| o.is_completed()),
        "pressure on the shared key must not be charged to A: {:?}",
        w.migration_outcome(mig_a)
    );
    assert_eq!(w.active_migrations(), 0);
    assert_eq!(w.host_of(zone_a), Some(n2));
    assert_eq!(w.host_of(zone_b), Some(n1), "B rolled back to its source");
}

#[test]
fn xlate_gc_reclaims_idle_rules() {
    let mut w = World::new(WorldConfig {
        seed: 0x0b06,
        xlate_gc_ttl_us: Some(500 * MILLISECOND),
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();

    // A rule left behind by a peer that will never send again (its
    // connection owner was migrated away and later exited).
    let rule = XlateRule::new(
        SockAddr::new(Ip::local_of(NodeId(0)), 4000),
        Ip::local_of(NodeId(1)),
        Ip::local_of(NodeId(2)),
        Port(9000),
    );
    let now = w.now();
    w.hosts[n0].stack.xlate.install_at(rule, now);
    assert_eq!(w.hosts[n0].stack.xlate.len(), 1);
    let _ = n1;

    // The GC event chain is the only activity; it must keep itself alive
    // and evict the rule once it ages past the TTL.
    w.run_for(3 * SECOND);
    assert_eq!(
        w.hosts[n0].stack.xlate.len(),
        0,
        "idle rule must be evicted after the TTL"
    );
    assert!(w.hosts[n0].stack.xlate.stats().gc_evicted >= 1);
}
