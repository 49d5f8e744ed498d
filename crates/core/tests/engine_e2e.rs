//! End-to-end engine tests: drive a full migration through the effect
//! pipeline, dispatching the effect stream the way the cluster runtime does
//! and deriving reports with a [`TraceRecorder`].
//!
//! These live in an integration test (not `engine.rs` unit tests) on
//! purpose: the recorder comes from `dvelm-metrics`, which itself depends on
//! `dvelm-migrate` — only an externally linked test crate sees the same
//! `Effect` type on both sides of that dev-dependency cycle.

use bytes::Bytes;
use dvelm_metrics::TraceRecorder;
use dvelm_migrate::{
    CostModel, Effect, EffectBuf, MigrationEngine, MigrationReport, PhaseId, Side, StepIo, Strategy,
};
use dvelm_net::{Ip, NodeId, SockAddr};
use dvelm_proc::{FdEntry, Pid, Process};
use dvelm_sim::{DetRng, SimTime, MILLISECOND, SECOND};
use dvelm_stack::xlate::XlateRule;
use dvelm_stack::{HostStack, SockId, Socket, StackEffect, TcpState};

/// Multi-host test world that shuttles frames synchronously (zero
/// latency) and drives the engine through its schedule.
struct World {
    hosts: Vec<HostStack>,
    now: SimTime,
}

const SRC: usize = 0;
const DST: usize = 1;
const PEER: usize = 2; // database host
const CLIENT: usize = 3;

impl World {
    fn new() -> World {
        World {
            hosts: vec![
                HostStack::server_node(NodeId(0), 1_000, 1),
                HostStack::server_node(NodeId(1), 5_000_000, 2),
                HostStack::server_node(NodeId(2), 77, 3),
                HostStack::client_host(NodeId(100), 42, 4),
            ],
            now: SimTime::ZERO,
        }
    }

    fn route(&mut self, ip: Ip) -> Vec<usize> {
        if ip == Ip::CLUSTER_PUBLIC {
            // Broadcast configuration: all server nodes receive it.
            (0..3).collect()
        } else {
            self.hosts
                .iter()
                .position(|h| h.public_ip == ip || h.local_ip == ip)
                .into_iter()
                .collect()
        }
    }

    fn pump(&mut self, fx: Vec<StackEffect>) {
        let mut queue: Vec<StackEffect> = fx;
        while let Some(e) = queue.pop() {
            if let StackEffect::Tx { seg, route } = e {
                for target in self.route(route) {
                    let fx = self.hosts[target].on_rx_ref(&seg, self.now);
                    queue.extend(fx);
                }
            }
        }
    }

    fn send(&mut self, host: usize, sid: SockId, data: &[u8]) {
        let fx = self.hosts[host].send(sid, Bytes::copy_from_slice(data), self.now);
        self.pump(fx);
    }

    fn split(&mut self, a: usize, b: usize) -> (&mut HostStack, &mut HostStack) {
        assert!(a < b);
        let (left, right) = self.hosts.split_at_mut(b);
        (&mut left[a], &mut right[0])
    }
}

/// A server process on SRC with `n` client TCP connections (from the
/// client host, via the public broadcast interface) and one in-cluster
/// "MySQL" connection to PEER.
fn setup(world: &mut World, n: usize) -> (Process, Vec<SockId>, SockId, SockId) {
    let mut proc = Process::new(Pid(1), "zone_serv", 64, 512);
    // Listener on the public interface.
    let laddr = SockAddr::new(Ip::CLUSTER_PUBLIC, 5000);
    let listener = world.hosts[SRC].tcp_listen(laddr).unwrap();
    proc.fds.insert(FdEntry::Socket(listener));

    // DB listener on the peer host.
    let db_addr = SockAddr::new(world.hosts[PEER].local_ip, 3306);
    world.hosts[PEER].tcp_listen(db_addr).unwrap();

    // Client connections.
    let mut client_sids = Vec::new();
    for _ in 0..n {
        let (cid, fx) = world.hosts[CLIENT].tcp_connect_public(laddr, world.now);
        world.pump(fx);
        client_sids.push(cid);
    }
    // Register the accepted children in the process fd table.
    let children: Vec<SockId> = world.hosts[SRC]
        .socket_ids()
        .into_iter()
        .filter(|s| *s != listener)
        .collect();
    assert_eq!(children.len(), n, "every client connection accepted");
    for c in &children {
        assert_eq!(
            world.hosts[SRC].sock(*c).unwrap().tcp().state,
            TcpState::Established
        );
        proc.fds.insert(FdEntry::Socket(*c));
    }

    // The MySQL session.
    let (db_sid, fx) = world.hosts[SRC].tcp_connect_local(db_addr, world.now);
    world.pump(fx);
    proc.fds.insert(FdEntry::Socket(db_sid));
    assert_eq!(
        world.hosts[SRC].sock(db_sid).unwrap().tcp().state,
        TcpState::Established
    );

    (proc, client_sids, db_sid, listener)
}

/// Drive a full migration, dispatching the effect stream like the
/// cluster runtime does (zero-latency harness) and deriving the report
/// with a [`TraceRecorder`]. Returns (report, restored process, xlate
/// requests seen).
fn run_migration(
    world: &mut World,
    proc: &mut Process,
    strategy: Strategy,
    mut between_steps: impl FnMut(&mut World, &mut Process, bool),
) -> (MigrationReport, Process, Vec<(NodeId, XlateRule)>) {
    let started_at = world.now;
    let mut engine = MigrationEngine::new(strategy, CostModel::default());
    let mut recorder = TraceRecorder::new(proc.pid, strategy, started_at);
    let mut xlates = Vec::new();
    let mut suspended = false;
    let mut buf = EffectBuf::new();
    loop {
        let now = world.now;
        let next_step_after_us = {
            let (src, dst) = world.split(SRC, DST);
            engine.step(
                StepIo {
                    now,
                    src_stack: src,
                    dst_stack: dst,
                    proc,
                },
                &mut buf,
            )
        };
        let mut restored = None;
        for (at, effect) in buf.take() {
            recorder.observe(at, &effect);
            match effect {
                Effect::SuspendApp => suspended = true,
                // Deliver translation rules to peers immediately
                // (zero-latency harness).
                Effect::SendXlate { peer, rule } => {
                    let idx = world.hosts.iter().position(|h| h.node == peer).unwrap();
                    world.hosts[idx].xlate.install_at(rule, at);
                    xlates.push((peer, rule));
                }
                Effect::Stack { effect, .. } => world.pump(vec![effect]),
                Effect::Complete(c) => restored = Some(c.process),
                Effect::Aborted(a) => {
                    panic!(
                        "no abort expected in the happy-path harness: {:?}",
                        a.reason
                    )
                }
                Effect::PhaseEntered(_)
                | Effect::InstallCapture { .. }
                | Effect::RemoveCapture { .. }
                | Effect::SocketDetached { .. }
                | Effect::Shipped { .. }
                | Effect::PacketReinjected
                | Effect::ResumeApp
                | Effect::QueuePressure { .. }
                | Effect::RevokeXlate { .. }
                // The harness zone-less engine never emits these; the
                // zoned lifecycle is covered by the cluster-level
                // zone-handoff matrix.
                | Effect::Subscribe { .. }
                | Effect::Unsubscribe { .. } => {}
            }
        }
        if let Some(process) = restored {
            return (recorder.into_report(), process, xlates);
        }
        let wait = next_step_after_us.expect("engine not done must reschedule");
        world.now += wait;
        between_steps(world, proc, suspended);
    }
}

#[test]
fn migration_preserves_streams_end_to_end() {
    let mut world = World::new();
    let (mut proc, client_sids, _db, _l) = setup(&mut world, 4);

    // Pre-migration traffic.
    for &c in &client_sids {
        world.send(CLIENT, c, b"pre|");
    }

    let (report, restored, _) = run_migration(
        &mut world,
        &mut proc,
        Strategy::IncrementalCollective,
        |world, proc, suspended| {
            if !suspended {
                // App keeps working during precopy.
                let mut rng = DetRng::new(1);
                proc.do_work(&mut rng, 5);
                let sids = client_sids.clone();
                for &c in &sids {
                    world.send(CLIENT, c, b"live|");
                }
            }
        },
    );
    assert!(report.freeze_us() > 0);
    assert_eq!(report.sockets_migrated as usize, 4 + 1 + 1); // clients + listener + db

    // Post-migration traffic flows to the destination sockets.
    for &c in &client_sids {
        world.send(CLIENT, c, b"post");
    }
    let mut total = Vec::new();
    for (_, sid) in restored.fds.sockets() {
        if let Some(Socket::Tcp(t)) = world.hosts[DST].sock(sid) {
            if t.state == TcpState::Established
                && t.remote.unwrap().ip != world.hosts[PEER].local_ip
            {
                let got: Vec<u8> = world.hosts[DST]
                    .read_tcp(sid, world.now)
                    .iter()
                    .flat_map(|s| s.payload.to_vec())
                    .collect();
                total.push(got);
            }
        }
    }
    assert_eq!(total.len(), 4);
    for got in total {
        let s = String::from_utf8(got).unwrap();
        assert!(s.ends_with("post"), "stream continuity broken: {s:?}");
        assert_eq!(s.matches("post").count(), 1, "no duplication: {s:?}");
    }
    // Source keeps no residue.
    assert_eq!(
        world.hosts[SRC].socket_count(),
        0,
        "no residual sockets on source"
    );
}

#[test]
fn freeze_time_ordering_matches_fig5b() {
    // iterative > collective > incremental collective, at 128 conns.
    let mut freeze = Vec::new();
    for strategy in Strategy::ALL {
        let mut world = World::new();
        let (mut proc, client_sids, _db, _l) = setup(&mut world, 128);
        let (report, _, _) =
            run_migration(&mut world, &mut proc, strategy, |world, proc, suspended| {
                if !suspended {
                    let mut rng = DetRng::new(2);
                    proc.do_work(&mut rng, 10);
                    for &c in client_sids.iter().take(16) {
                        world.send(CLIENT, c, b"tick");
                    }
                }
            });
        freeze.push((strategy, report.freeze_us()));
    }
    assert!(
        freeze[0].1 > freeze[1].1,
        "iterative {} must exceed collective {}",
        freeze[0].1,
        freeze[1].1
    );
    assert!(
        freeze[1].1 > freeze[2].1,
        "collective {} must exceed incremental {}",
        freeze[1].1,
        freeze[2].1
    );
}

#[test]
fn incremental_ships_fewer_freeze_bytes() {
    let mut bytes = Vec::new();
    for strategy in [Strategy::Collective, Strategy::IncrementalCollective] {
        let mut world = World::new();
        let (mut proc, _c, _db, _l) = setup(&mut world, 64);
        let (report, _, _) = run_migration(&mut world, &mut proc, strategy, |_, _, _| {});
        bytes.push(report.freeze_socket_bytes);
    }
    assert!(
        bytes[1] * 4 < bytes[0],
        "incremental freeze bytes {} should be ≪ collective {}",
        bytes[1],
        bytes[0]
    );
}

#[test]
fn packets_during_freeze_are_captured_and_reinjected() {
    let mut world = World::new();
    let (mut proc, client_sids, _db, _l) = setup(&mut world, 2);
    let (report, restored, _) = run_migration(
        &mut world,
        &mut proc,
        Strategy::Collective,
        |world, _proc, suspended| {
            if suspended {
                // Clients keep sending while the server is frozen.
                let sids = client_sids.clone();
                for &c in &sids {
                    world.send(CLIENT, c, b"blackout");
                }
            }
        },
    );
    assert!(
        report.packets_reinjected > 0,
        "capture engaged during freeze"
    );
    // Every blackout byte arrives exactly once after restore.
    for (_, sid) in restored.fds.sockets() {
        if let Some(Socket::Tcp(t)) = world.hosts[DST].sock(sid) {
            if t.state == TcpState::Established
                && t.remote.unwrap().ip != world.hosts[PEER].local_ip
            {
                let got: Vec<u8> = world.hosts[DST]
                    .read_tcp(sid, world.now)
                    .iter()
                    .flat_map(|s| s.payload.to_vec())
                    .collect();
                let s = String::from_utf8(got).unwrap();
                assert!(!s.is_empty(), "blackout data lost");
                assert!(
                    s.len().is_multiple_of(8) && s.as_bytes().chunks(8).all(|c| c == b"blackout")
                );
            }
        }
    }
}

#[test]
fn in_cluster_connection_survives_via_translation() {
    let mut world = World::new();
    let (mut proc, _c, db_sid, _l) = setup(&mut world, 1);
    let db_child = world.hosts[PEER]
        .socket_ids()
        .into_iter()
        .next_back()
        .unwrap();
    let _ = db_sid;
    let (_report, restored, xlates) = run_migration(
        &mut world,
        &mut proc,
        Strategy::IncrementalCollective,
        |_, _, _| {},
    );
    assert_eq!(
        xlates.len(),
        1,
        "one translation request for the MySQL session"
    );
    assert_eq!(xlates[0].0, NodeId(2));

    // The migrated socket still talks to the DB transparently.
    let new_db_sid = restored
        .fds
        .sockets()
        .map(|(_, s)| s)
        .find(|s| {
            world.hosts[DST].sock(*s).is_some_and(|k| {
                k.remote()
                    .is_some_and(|r| r.ip == world.hosts[PEER].local_ip)
            })
        })
        .expect("db socket restored");
    let fx = world.hosts[DST].send(new_db_sid, Bytes::from_static(b"INSERT"), world.now);
    world.pump(fx);
    let got: Vec<u8> = world.hosts[PEER]
        .read_tcp(db_child, world.now)
        .iter()
        .flat_map(|s| s.payload.to_vec())
        .collect();
    assert_eq!(got, b"INSERT");

    // And the reply comes back, translated.
    let fx = world.hosts[PEER].send(db_child, Bytes::from_static(b"ACK"), world.now);
    world.pump(fx);
    let got: Vec<u8> = world.hosts[DST]
        .read_tcp(new_db_sid, world.now)
        .iter()
        .flat_map(|s| s.payload.to_vec())
        .collect();
    assert_eq!(got, b"ACK");
}

#[test]
fn listener_migrates_and_accepts_on_destination() {
    let mut world = World::new();
    let (mut proc, _c, _db, _l) = setup(&mut world, 1);
    let (_report, restored, _) =
        run_migration(&mut world, &mut proc, Strategy::Collective, |_, _, _| {});
    // A brand-new client connects after migration: only DST owns the
    // port now.
    let laddr = SockAddr::new(Ip::CLUSTER_PUBLIC, 5000);
    let before = world.hosts[DST].socket_count();
    let (_cid, fx) = world.hosts[CLIENT].tcp_connect_public(laddr, world.now);
    world.pump(fx);
    assert_eq!(
        world.hosts[DST].socket_count(),
        before + 1,
        "new child accepted on DST"
    );
    let _ = restored;
}

#[test]
fn memory_contents_identical_after_restore() {
    let mut world = World::new();
    let (mut proc, _c, _db, _l) = setup(&mut world, 2);
    let mut rng = DetRng::new(33);
    proc.do_work(&mut rng, 400);
    let src_hash_cell = std::cell::Cell::new(0u64);
    let (_report, restored, _) = run_migration(
        &mut world,
        &mut proc,
        Strategy::IncrementalCollective,
        |_, p, suspended| {
            if !suspended {
                let mut rng = DetRng::new(34);
                p.do_work(&mut rng, 50);
            }
            p.addr_space.settle();
            src_hash_cell.set(p.addr_space.content_hash());
        },
    );
    assert_eq!(
        restored.addr_space.content_hash(),
        proc.addr_space.content_hash(),
        "restored memory differs from source"
    );
    assert!(!restored.is_frozen(), "threads resumed");
    assert_eq!(restored.threads.len(), proc.threads.len());
}

#[test]
fn udp_socket_migrates() {
    let mut world = World::new();
    let mut proc = Process::new(Pid(2), "oa_server", 32, 128);
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    let usid = world.hosts[SRC].udp_bind(addr).unwrap();
    proc.fds.insert(FdEntry::Socket(usid));
    let client_sid = world.hosts[CLIENT].udp_bind_ephemeral();

    let (report, restored, _) = run_migration(
        &mut world,
        &mut proc,
        Strategy::IncrementalCollective,
        |world, _p, _s| {
            let fx = world.hosts[CLIENT].udp_send_to(
                client_sid,
                addr,
                Bytes::from_static(b"cmd"),
                world.now,
            );
            world.pump(fx);
        },
    );
    assert_eq!(report.sockets_migrated, 1);
    let (_, new_sid) = restored.fds.sockets().next().unwrap();
    // Post-migration datagrams arrive at the destination.
    let fx =
        world.hosts[CLIENT].udp_send_to(client_sid, addr, Bytes::from_static(b"post"), world.now);
    world.pump(fx);
    let dgrams = world.hosts[DST].read_udp(new_sid);
    assert!(
        dgrams.iter().any(|d| &d.skb.payload[..] == b"post"),
        "datagram did not reach the migrated UDP socket"
    );
}

#[test]
fn freeze_threshold_schedule() {
    // 320 → 160 → 80 → 40 → 20 ms: freeze begins on the 5th precopy
    // iteration after the full copy.
    let mut world = World::new();
    let (mut proc, _c, _db, _l) = setup(&mut world, 1);
    let (report, _, _) = run_migration(&mut world, &mut proc, Strategy::Collective, |_, _, _| {});
    assert_eq!(report.precopy_iterations, 1 + 4);
    // Total precopy duration ≈ sum of the timeout schedule.
    assert!(report.total_us() > 500 * MILLISECOND);
    assert!(report.total_us() < 2 * SECOND);
}

#[test]
fn effect_stream_honors_ordering_contract() {
    // SuspendApp precedes every source stack effect; Complete is the
    // final effect; exactly one of each per migration.
    let mut world = World::new();
    let (mut proc, client_sids, _db, _l) = setup(&mut world, 3);
    let mut engine = MigrationEngine::new(Strategy::IncrementalCollective, CostModel::default());
    let mut buf = EffectBuf::new();
    let mut stream = Vec::new();
    loop {
        let now = world.now;
        let next_step_after_us = {
            let (src, dst) = world.split(SRC, DST);
            engine.step(
                StepIo {
                    now,
                    src_stack: src,
                    dst_stack: dst,
                    proc: &mut proc,
                },
                &mut buf,
            )
        };
        let mut done = false;
        for (at, effect) in buf.take() {
            if let Effect::Stack { effect, .. } = &effect {
                let _ = effect; // stack effects not pumped: ordering test only
            }
            done |= matches!(effect, Effect::Complete(_));
            stream.push((at, effect));
        }
        if done {
            break;
        }
        world.now += next_step_after_us.expect("reschedules");
        // Traffic during precopy so source stack effects exist.
        for &c in &client_sids {
            world.send(CLIENT, c, b"x");
        }
    }
    let pos = |pred: &dyn Fn(&Effect) -> bool| stream.iter().position(|(_, e)| pred(e));
    let suspend = pos(&|e| matches!(e, Effect::SuspendApp)).expect("SuspendApp emitted");
    let first_src = pos(&|e| {
        matches!(
            e,
            Effect::Stack {
                side: Side::Src,
                ..
            }
        )
    });
    if let Some(first_src) = first_src {
        assert!(suspend < first_src, "SuspendApp before src stack effects");
    }
    let complete = pos(&|e| matches!(e, Effect::Complete(_))).expect("Complete emitted");
    assert_eq!(complete, stream.len() - 1, "Complete is the final effect");
    assert_eq!(
        stream
            .iter()
            .filter(|(_, e)| matches!(e, Effect::SuspendApp))
            .count(),
        1
    );
    // Timestamps never decrease along the stream.
    assert!(stream.windows(2).all(|w| w[0].0 <= w[1].0));
    // Phases appear in protocol order.
    let phases: Vec<PhaseId> = stream
        .iter()
        .filter_map(|(_, e)| match e {
            Effect::PhaseEntered(p) => Some(*p),
            _ => None,
        })
        .collect();
    assert_eq!(phases[0], PhaseId::PrecopyFull);
    assert_eq!(
        phases[phases.len() - 3..],
        [
            PhaseId::FreezeCapture,
            PhaseId::FreezeDetach,
            PhaseId::Restore
        ]
    );
}

#[test]
fn closing_socket_is_released_not_migrated() {
    let mut world = World::new();
    let (mut proc, _client_sids, _db, _l) = setup(&mut world, 3);
    // Close one server-side client connection: it leaves Established
    // (FinWait) and becomes non-migratable.
    let victim = proc
        .fds
        .sockets()
        .map(|(_, s)| s)
        .find(|s| {
            world.hosts[SRC].sock(*s).is_some_and(|k| {
                k.is_tcp() && !k.is_listener() && k.remote().is_some_and(|r| !r.ip.is_local())
            })
        })
        .expect("a client connection");
    let now = world.now;
    let fx = world.hosts[SRC].close(victim, now);
    world.pump(fx);

    let (report, restored, _) =
        run_migration(&mut world, &mut proc, Strategy::Collective, |_, _, _| {});
    // clients(3) - closing(1) + listener + db
    assert_eq!(report.sockets_migrated, 3 - 1 + 2);
    assert_eq!(
        world.hosts[SRC].socket_count(),
        0,
        "closing socket released, no residue"
    );
    assert_eq!(
        restored.fds.socket_count(),
        4,
        "the closing fd is not reattached"
    );
}

#[test]
fn report_accounting_is_consistent() {
    let mut world = World::new();
    let (mut proc, _c, _db, _l) = setup(&mut world, 8);
    let (report, _, _) = run_migration(
        &mut world,
        &mut proc,
        Strategy::IncrementalCollective,
        |_, _, _| {},
    );
    assert!(report.precopy_bytes > 0);
    assert!(report.freeze_bytes >= report.freeze_socket_bytes);
    assert!(report.frozen_at > report.started_at);
    assert!(report.resumed_at > report.frozen_at);
    assert!(report.freeze_us() < 100 * MILLISECOND);
}
