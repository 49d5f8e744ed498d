//! Tests of the extensions the paper names as future work (§IV, §VI-C,
//! §VIII): zone-to-zone connection migration with both endpoints moving,
//! nodes joining and draining during operation, the process crash that
//! §VIII's fault-tolerance case starts from, and `netstat` introspection
//! after a migration. The checkpoint/cold-restart half of §VIII is not
//! modelled: no run used it.

use bytes::Bytes;
use dvelm::prelude::*;
use dvelm_cluster::{App, AppCtx};
use dvelm_stack::Skb;
use std::cell::RefCell;
use std::rc::Rc;

/// A zone-server stand-in that chats with a neighbor zone over one TCP
/// connection: sends a counter every tick, records what it receives.
struct NeighborZone {
    fd: Option<Fd>,
    counter: u64,
    received: Rc<RefCell<Vec<u64>>>,
}

impl NeighborZone {
    fn new(received: Rc<RefCell<Vec<u64>>>) -> NeighborZone {
        NeighborZone {
            fd: None,
            counter: 0,
            received,
        }
    }
}

impl App for NeighborZone {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(8);
        if let Some(fd) = self.fd {
            self.counter += 1;
            ctx.send(fd, Bytes::from(format!("{:08}|", self.counter)));
        }
    }
    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.fd = Some(fd); // active opener
    }
    fn on_new_connection(&mut self, _ctx: &mut AppCtx<'_>, _listener: Fd, child: Fd) {
        self.fd = Some(child); // passive opener
    }
    fn on_tcp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, data: &[Skb]) {
        let mut recv = self.received.borrow_mut();
        for skb in data {
            for part in std::str::from_utf8(&skb.payload)
                .unwrap()
                .split_terminator('|')
            {
                recv.push(part.parse().unwrap());
            }
        }
    }
}

fn assert_contiguous(label: &str, seen: &[u64]) {
    assert!(!seen.is_empty(), "{label}: nothing received");
    for (i, v) in seen.iter().enumerate() {
        assert_eq!(*v, i as u64 + 1, "{label}: gap or duplicate in the stream");
    }
}

/// §VI-C future work: "local socket migration could be performed for such
/// [zone server ↔ zone server] connections as well" — including when BOTH
/// endpoints migrate, which requires the translation rules of the moving
/// process to travel with it.
#[test]
fn zone_to_zone_connection_survives_when_both_ends_migrate() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();
    let n3 = w.add_server_node();

    let recv_a = Rc::new(RefCell::new(Vec::new()));
    let recv_b = Rc::new(RefCell::new(Vec::new()));
    let zone_a = w.spawn_process(
        n0,
        "zone_a",
        32,
        256,
        Box::new(NeighborZone::new(recv_a.clone())),
    );
    let zone_b = w.spawn_process(
        n1,
        "zone_b",
        32,
        256,
        Box::new(NeighborZone::new(recv_b.clone())),
    );

    // B listens on its local interface; A connects in-cluster.
    let b_addr = SockAddr::new(w.hosts[n1].stack.local_ip, 7100);
    w.app_tcp_listen(n1, zone_b, b_addr);
    w.app_tcp_connect(n0, zone_a, b_addr, true);

    w.run_for(SECOND);
    let before_a = recv_a.borrow().len();
    let before_b = recv_b.borrow().len();
    assert!(before_a > 10 && before_b > 10, "neighbors are chatting");

    // Move A: node0 → node2 (B's host gets a translation rule).
    w.begin_migration(zone_a, n2, Strategy::IncrementalCollective)
        .expect("A moves");
    w.run_for(2 * SECOND);
    assert_eq!(w.host_of(zone_a), Some(n2));
    let mid_b = recv_b.borrow().len();
    assert!(mid_b > before_b + 10, "B keeps hearing A after A moved");

    // Move B too: node1 → node3. B carries its peer rule for A along, and
    // A's current host (node2, not the address-derived node0) receives the
    // rule for B.
    w.begin_migration(zone_b, n3, Strategy::IncrementalCollective)
        .expect("B moves");
    w.run_for(2 * SECOND);
    assert_eq!(w.host_of(zone_b), Some(n3));

    w.run_for(2 * SECOND);
    let after_a = recv_a.borrow().len();
    let after_b = recv_b.borrow().len();
    assert!(
        after_a > before_a + 20,
        "A keeps hearing B after both moved ({before_a} → {after_a})"
    );
    assert!(
        after_b > mid_b + 20,
        "B keeps hearing A after both moved ({mid_b} → {after_b})"
    );

    // The streams are still exactly-once, in-order counters.
    assert_contiguous("A", &recv_a.borrow());
    assert_contiguous("B", &recv_b.borrow());

    // Rule bookkeeping: each endpoint's current host holds a rule toward
    // the other; abandoned hosts hold nothing.
    assert_eq!(w.hosts[n0].stack.xlate.self_rule_count(), 0);
    assert_eq!(w.hosts[n0].stack.socket_count(), 0);
    assert_eq!(w.hosts[n1].stack.socket_count(), 0);
    assert!(
        w.hosts[n2].stack.xlate.self_rule_count() >= 1,
        "A keeps its identity on n2"
    );
    assert!(
        w.hosts[n3].stack.xlate.self_rule_count() >= 1,
        "B keeps its identity on n3"
    );
}

/// §IV: "Machines may join and leave at any time" — a node added while the
/// system runs is discovered by the conductors and used as a migration
/// target.
#[test]
fn late_joining_node_receives_load() {
    struct Hog(f64);
    impl App for Hog {
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.set_cpu_share(self.0);
            ctx.touch_memory(1);
        }
        fn tick_period_us(&self) -> u64 {
            200 * MILLISECOND
        }
    }

    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    // Both nodes loaded to ~95%: nobody can accept anything.
    for i in 0..6 {
        w.spawn_process(n0, &format!("hog0_{i}"), 8, 32, Box::new(Hog(15.0)));
        w.spawn_process(n1, &format!("hog1_{i}"), 8, 32, Box::new(Hog(15.0)));
    }
    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();
    w.run_for(20 * SECOND);
    assert!(w.reports.is_empty(), "no valid destination exists yet");

    // A fresh node joins mid-run.
    let n2 = w.add_server_node();
    let node2 = w.hosts[n2].stack.node;
    let mut cond = dvelm::lb::Conductor::new(node2, w.cfg.lb);
    let li = dvelm::lb::LoadInfo::new(node2, 5.0, 0, w.now());
    let effects = cond.on_start(li);
    w.hosts[n2].conductor = Some(cond);
    // Route the discovery broadcast by hand (the world API wires conductors
    // at enable time; a late join replays the same steps).
    for h in [n0, n1] {
        let from = node2;
        let msg = match effects[0] {
            dvelm::lb::LbEffect::Broadcast(m) => m,
            _ => panic!("discovery broadcasts"),
        };
        w.sched
            .schedule_after(100, dvelm_cluster::Event::LbMessage { host: h, from, msg });
    }
    w.sched
        .schedule_after(200, dvelm_cluster::Event::ConductorTick { host: n2 });

    w.run_for(30 * SECOND);
    assert!(
        !w.reports.is_empty(),
        "the joiner became a migration target"
    );
    assert!(
        !w.hosts[n2].procs.is_empty(),
        "processes moved onto the new node"
    );
}

/// §VIII's fault-tolerance case starts from a crash: the process and its
/// socket vanish from the host, and the port is free again.
#[test]
fn crash_releases_the_process_and_its_socket() {
    struct Worker;
    impl App for Worker {
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.touch_memory(16);
            ctx.set_cpu_share(4.0);
        }
    }

    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let pid = w.spawn_process(n0, "worker", 64, 512, Box::new(Worker));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 9000);
    w.app_udp_bind(n0, pid, addr);

    w.run_for(SECOND);
    assert!(w.kill_process(pid));
    assert_eq!(w.host_of(pid), None);
    assert!(
        !w.hosts[n0].stack.is_bound(addr.ip, addr.port),
        "socket released"
    );
    assert!(
        !w.kill_process(pid),
        "a dead process cannot be killed twice"
    );
}

/// §IV "machines may join and leave": drain a node gracefully and detach it;
/// every service stays up.
#[test]
fn node_drain_and_leave() {
    struct Svc;
    impl App for Svc {
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.set_cpu_share(8.0);
            ctx.touch_memory(4);
        }
    }

    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();
    let mut pids = Vec::new();
    for i in 0..4 {
        let pid = w.spawn_process(n0, &format!("svc{i}"), 16, 128, Box::new(Svc));
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 8100 + i as u16);
        w.app_udp_bind(n0, pid, addr);
        pids.push(pid);
    }
    w.run_for(SECOND);

    let migs = w.drain_node(n0, Strategy::IncrementalCollective);
    assert_eq!(migs.len(), 4, "every process gets a migration");
    w.run_for(5 * SECOND);
    for mig in &migs {
        let outcome = w
            .migration_outcome(*mig)
            .expect("drain migration reached a terminal state");
        assert!(outcome.is_completed(), "drain must not abort: {outcome:?}");
    }
    assert!(w.hosts[n0].procs.is_empty(), "node drained");
    assert_eq!(w.hosts[n0].stack.socket_count(), 0);
    for pid in &pids {
        let h = w.host_of(*pid).expect("still alive");
        assert!(h == n1 || h == n2, "moved to a live node");
    }
    // Spread over both targets, not piled on one.
    assert!(!w.hosts[n1].procs.is_empty() && !w.hosts[n2].procs.is_empty());

    w.detach_node(n0);
    w.run_for(SECOND);
    // Broadcasts no longer reach the detached node: its rx counters freeze.
    let rx_before = w.hosts[n0].stack.stats().rx_total;
    w.run_for(2 * SECOND);
    assert_eq!(
        w.hosts[n0].stack.stats().rx_total,
        rx_before,
        "detached node hears nothing"
    );
}

/// netstat-style introspection shows migrated sockets on the new host.
#[test]
fn netstat_reflects_migration() {
    use dvelm::dve::{DbServer, ZoneServer, DB_PORT, ZONE_BASE_PORT};
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let db_host = w.add_database_host();
    let db_pid = w.spawn_process(db_host, "mysqld", 32, 64, Box::new(DbServer::new()));
    let db_addr = SockAddr::new(w.hosts[db_host].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db_host, db_pid, db_addr);
    let zone = w.spawn_process(n0, "zone", 32, 256, Box::new(ZoneServer::new()));
    w.app_tcp_listen(n0, zone, SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT));
    w.app_tcp_connect(n0, zone, db_addr, true);
    w.run_for(SECOND);

    let before = w.hosts[n0].stack.netstat();
    assert!(before.contains("Listen"), "listener visible:\n{before}");
    assert!(
        before.contains("Established"),
        "db session visible:\n{before}"
    );

    w.begin_migration(zone, n1, Strategy::Collective)
        .expect("starts");
    w.run_for(2 * SECOND);
    let src_after = w.hosts[n0].stack.netstat();
    let dst_after = w.hosts[n1].stack.netstat();
    assert_eq!(
        src_after.lines().count(),
        1,
        "only the header remains on the source"
    );
    assert!(dst_after.contains("Listen") && dst_after.contains("Established"));
}
