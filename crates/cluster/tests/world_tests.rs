//! Integration tests of the cluster runtime: applications exchanging real
//! traffic over the simulated fabric, live migrations driven through the
//! event loop, and conductor-initiated automatic balancing.

use bytes::Bytes;
use dvelm_cluster::{App, AppCtx, World, WorldConfig};
use dvelm_migrate::Strategy;
use dvelm_net::{Ip, Port, SockAddr};
use dvelm_proc::Fd;
use dvelm_sim::{MILLISECOND, SECOND};
use dvelm_stack::udp::Datagram;
use dvelm_stack::Skb;
use std::cell::RefCell;
use std::rc::Rc;

/// TCP echo server: echoes every byte back, counts what it saw.
struct EchoServer {
    seen: Rc<RefCell<Vec<u8>>>,
}

impl App for EchoServer {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(2);
    }
    fn on_tcp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, data: &[Skb]) {
        for skb in data {
            self.seen.borrow_mut().extend_from_slice(&skb.payload);
            ctx.send(fd, skb.payload.clone());
        }
    }
}

/// TCP client: sends a fixed message every tick once connected, collects
/// echoes.
struct EchoClient {
    fd: Option<Fd>,
    sent: u32,
    max: u32,
    echoed: Rc<RefCell<Vec<u8>>>,
}

impl App for EchoClient {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if let Some(fd) = self.fd {
            if self.sent < self.max {
                self.sent += 1;
                ctx.send(fd, Bytes::from(format!("m{:03}|", self.sent)));
            }
        }
    }
    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.fd = Some(fd);
    }
    fn on_tcp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, data: &[Skb]) {
        for skb in data {
            self.echoed.borrow_mut().extend_from_slice(&skb.payload);
        }
    }
}

/// UDP "game server": replies a snapshot to every datagram.
struct UdpResponder {
    got: Rc<RefCell<u64>>,
}

impl App for UdpResponder {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(4);
    }
    fn on_udp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, dgrams: &[Datagram]) {
        for d in dgrams {
            *self.got.borrow_mut() += 1;
            ctx.send_udp_to(fd, d.from, Bytes::from(vec![0u8; 256]));
        }
    }
}

/// UDP client: fires a command every tick, counts responses.
struct UdpPinger {
    fd: Option<Fd>,
    server: SockAddr,
    responses: Rc<RefCell<u64>>,
}

impl App for UdpPinger {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.fd.is_none() {
            self.fd = ctx.socket_fds().first().copied();
        }
        if let Some(fd) = self.fd {
            ctx.send_udp_to(fd, self.server, Bytes::from_static(b"+forward"));
        }
    }
    fn on_udp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, dgrams: &[Datagram]) {
        *self.responses.borrow_mut() += dgrams.len() as u64;
    }
}

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
fn tcp_echo_between_cluster_nodes() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();

    let seen = Rc::new(RefCell::new(Vec::new()));
    let server = w.spawn_process(
        n0,
        "echo_srv",
        16,
        64,
        Box::new(EchoServer { seen: seen.clone() }),
    );
    let saddr = SockAddr::new(w.hosts[n0].stack.local_ip, 7000);
    w.app_tcp_listen(n0, server, saddr);

    let echoed = Rc::new(RefCell::new(Vec::new()));
    let client = w.spawn_process(
        n1,
        "client",
        8,
        16,
        Box::new(EchoClient {
            fd: None,
            sent: 0,
            max: 10,
            echoed: echoed.clone(),
        }),
    );
    w.app_tcp_connect(n1, client, saddr, true);

    w.run_for(2 * SECOND);
    let seen = seen.borrow();
    let echoed = echoed.borrow();
    assert_eq!(String::from_utf8_lossy(&seen).matches('|').count(), 10);
    assert_eq!(&*echoed, &*seen, "everything echoed back");
    assert!(String::from_utf8_lossy(&seen).starts_with("m001|m002|"));
}

#[test]
fn udp_client_server_through_broadcast_router() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let _n1 = w.add_server_node();
    let c = w.add_client_host();

    let got = Rc::new(RefCell::new(0));
    let server = w.spawn_process(
        n0,
        "oa",
        16,
        64,
        Box::new(UdpResponder { got: got.clone() }),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses: responses.clone(),
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));

    w.run_for(3 * SECOND);
    assert!(
        *got.borrow() > 40,
        "server received a steady 20 Hz stream: {}",
        got.borrow()
    );
    assert!(
        *responses.borrow() > 40,
        "client saw snapshots: {}",
        responses.borrow()
    );
}

#[test]
fn live_migration_through_event_loop_keeps_service_up() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let c = w.add_client_host();

    let got = Rc::new(RefCell::new(0u64));
    let server = w.spawn_process(
        n0,
        "oa",
        32,
        256,
        Box::new(UdpResponder { got: got.clone() }),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0u64));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses: responses.clone(),
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));

    w.run_for(2 * SECOND);
    let before = *responses.borrow();
    assert!(before > 30);

    let mig = w
        .begin_migration(server, n1, Strategy::IncrementalCollective)
        .expect("migration starts");
    w.run_for(3 * SECOND);
    assert_eq!(w.active_migrations(), 0, "migration finished");
    assert_eq!(w.host_of(server), Some(n1), "process lives on node1 now");
    assert!(w.hosts[n0].procs.is_empty(), "source is clean");
    assert_eq!(w.hosts[n0].stack.socket_count(), 0, "no residual sockets");

    let report = &w.reports[0];
    assert!(
        report.freeze_us() < 60 * MILLISECOND,
        "freeze {}µs",
        report.freeze_us()
    );
    assert!(report.sockets_migrated >= 1);

    // Service still running after migration.
    let after_migration = *responses.borrow();
    w.run_for(2 * SECOND);
    assert!(
        *responses.borrow() > after_migration + 30,
        "snapshots keep flowing after migration"
    );
    let _ = mig;
}

#[test]
fn conductor_balances_synthetic_hogs() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();

    // node0 heavily loaded: 6 hogs at 15% each (+5 base = 95%).
    for i in 0..6 {
        let pid = w.spawn_process(n0, &format!("hog{i}"), 8, 32, Box::new(Hog { share: 15.0 }));
        let _ = pid;
    }
    // node1 / node2 light: one small hog each.
    w.spawn_process(n1, "small1", 8, 32, Box::new(Hog { share: 10.0 }));
    w.spawn_process(n2, "small2", 8, 32, Box::new(Hog { share: 10.0 }));

    // Let the apps declare their shares once before the conductors look.
    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();
    w.run_for(60 * SECOND);

    assert!(
        !w.reports.is_empty(),
        "at least one automatic migration happened"
    );
    let loads: Vec<f64> = [n0, n1, n2].iter().map(|h| w.hosts[*h].cpu_pct()).collect();
    let spread = loads.iter().fold(f64::NEG_INFINITY, |a, b| a.max(*b))
        - loads.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    assert!(
        spread < 40.0,
        "cluster should be much closer to balanced, loads: {loads:?}"
    );
    assert!(
        w.hosts[n0].procs.len() < 6,
        "the overloaded node shed at least one process"
    );
}

/// The conductor's first attempt asks for full speed, and the world maps
/// that preference onto the configured strategy: every strategy a
/// `WorldConfig` names is the one its load-balanced migrations run.
#[test]
fn conductor_runs_the_configured_strategy() {
    for strategy in Strategy::ALL {
        let mut w = World::new(WorldConfig {
            strategy,
            ..WorldConfig::default()
        });
        let hot = w.add_server_node();
        let cold = w.add_server_node();
        for i in 0..6 {
            w.spawn_process(
                hot,
                &format!("hog{i}"),
                8,
                32,
                Box::new(Hog { share: 15.0 }),
            );
        }
        w.spawn_process(cold, "small", 8, 32, Box::new(Hog { share: 10.0 }));
        w.run_for(300 * MILLISECOND);
        w.enable_load_balancing();
        let give_up = w.now() + 30 * SECOND;
        while w.reports.is_empty() && w.now() < give_up {
            w.run_for(100 * MILLISECOND);
        }
        let first = w
            .reports
            .first()
            .unwrap_or_else(|| panic!("{strategy}: the conductor never migrated off the hotspot"));
        assert_eq!(first.strategy, strategy);
    }
}

#[test]
fn packet_log_records_traffic() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let c = w.add_client_host();
    w.enable_packet_log(Port(27960));

    let got = Rc::new(RefCell::new(0));
    let server = w.spawn_process(n0, "oa", 16, 64, Box::new(UdpResponder { got }));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses,
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));
    w.run_for(SECOND);
    assert!(w.packet_log.len() > 20);
    assert!(w
        .packet_log
        .iter()
        .all(|e| e.src.port == Port(27960) || e.dst.port == Port(27960)));
    // Log is time-ordered.
    assert!(w.packet_log.windows(2).all(|p| p[0].at <= p[1].at));
}
