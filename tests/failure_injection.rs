//! Failure injection: the system under a hostile WAN and under blackout
//! windows. Migration must not make a lossy network worse — TCP recovers
//! what the wire drops, UDP loses only what the wire (not the migration)
//! loses.

use dvelm::dve::{run_freeze_bench, FreezeBenchConfig};
use dvelm::net::LossModel;
use dvelm::openarena::{run_scenario, OaScenario};
use dvelm::prelude::*;

#[test]
fn openarena_on_a_lossy_wan() {
    // 2% loss on every client access link, both directions.
    let s = OaScenario {
        n_clients: 8,
        run_for: SimTime::from_secs(8),
        ..OaScenario::default()
    };
    // run_scenario builds its own world; emulate by building the same
    // scenario manually with loss — simplest is to reuse the scenario and
    // accept the loss knob at the world level via the router.
    let r = {
        // A lossy variant: rebuild through the scenario, then inject loss
        // before the run would be ideal; instead run the stock scenario and
        // a manual lossy world below.
        run_scenario(&s)
    };
    let clean_cmds = r.server_usercmds;

    // Manual lossy world: same topology, 2% WAN loss.
    let mut w = World::new(WorldConfig {
        seed: 42,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    use dvelm::openarena::{OaClient, OaServer};
    use std::cell::RefCell;
    use std::rc::Rc;
    let usercmds = Rc::new(RefCell::new(0u64));
    let server = w.spawn_process(
        n0,
        "oa",
        512,
        4096,
        Box::new(OaServer::new(usercmds.clone())),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);
    let mut arrivals = Vec::new();
    for _ in 0..8 {
        let ch = w.add_client_host();
        let arr = Rc::new(RefCell::new(Vec::new()));
        arrivals.push(arr.clone());
        let pid = w.spawn_process(ch, "cl", 64, 256, Box::new(OaClient::new(addr, arr)));
        w.app_udp_socket(ch, pid, Some(addr));
    }
    w.router.set_client_loss(LossModel::Bernoulli(0.02));

    w.run_until(SimTime::from_secs(5));
    w.begin_migration(server, n1, Strategy::IncrementalCollective)
        .expect("starts");
    w.run_until(SimTime::from_secs(8));

    let report = &w.reports[0];
    assert!(
        report.freeze_us() < 60 * MILLISECOND,
        "loss must not lengthen the freeze"
    );
    assert_eq!(w.host_of(server), Some(n1));
    // ~2% loss: the lossy run sees slightly fewer usercmds than the clean
    // one, but the service works throughout.
    let lossy_cmds = *usercmds.borrow();
    assert!(
        lossy_cmds > clean_cmds / 2,
        "service collapsed: {lossy_cmds} vs {clean_cmds}"
    );
    for arr in &arrivals {
        let after = arr
            .borrow()
            .iter()
            .filter(|t| **t > SimTime::from_secs(6))
            .count();
        assert!(after > 10, "viewer starved after migration under loss");
    }
}

#[test]
fn tcp_freeze_bench_is_loss_agnostic_for_correctness() {
    // The freeze-time experiment's correctness claims (exactly-once stream,
    // all sockets migrated) hold regardless of strategy; run the two
    // collective strategies back to back as a smoke check that repeated
    // worlds do not interfere.
    for strategy in [Strategy::Collective, Strategy::IncrementalCollective] {
        let r = run_freeze_bench(&FreezeBenchConfig {
            connections: 48,
            strategy,
            repetitions: 2,
            seed: 77,
            monitored: false,
        });
        for rep in &r.reports {
            assert_eq!(rep.sockets_migrated, 48 + 2);
        }
    }
}

#[test]
fn blackout_window_on_destination_link_is_survivable() {
    // The destination node's public downlink goes dark for 200 ms right
    // around the migration: broadcast copies are lost there, so some
    // packets are neither processed (source detached) nor captured. TCP
    // retransmission must still recover the stream; this is the worst-case
    // combination of migration + network fault.
    use dvelm::dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};

    let mut w = World::new(WorldConfig {
        seed: 5,
        ..WorldConfig::default()
    });
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let db_host = w.add_database_host();
    let ch = w.add_client_host();

    let db_pid = w.spawn_process(db_host, "mysqld", 64, 256, Box::new(DbServer::new()));
    let db_addr = SockAddr::new(w.hosts[db_host].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db_host, db_pid, db_addr);

    let zone_addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    let zone = w.spawn_process(n0, "zone", 128, 2048, Box::new(ZoneServer::new()));
    w.app_tcp_listen(n0, zone, zone_addr);
    w.app_tcp_connect(n0, zone, db_addr, true);

    let swarm = SwarmClient::new();
    let received = swarm.updates_received.clone();
    let swarm_pid = w.spawn_process(ch, "swarm", 32, 128, Box::new(swarm));
    for _ in 0..16 {
        w.app_tcp_connect(ch, swarm_pid, zone_addr, false);
    }

    w.run_until(SimTime::from_millis(1_200));
    // Blackout on node1's broadcast downlink across the expected freeze.
    let node1 = w.hosts[n1].stack.node;
    w.router
        .node_downlink_mut(node1)
        .expect("node1 attached")
        .set_loss(LossModel::Window {
            from: SimTime::from_millis(1_800),
            to: SimTime::from_millis(2_000),
        });
    w.begin_migration(zone, n1, Strategy::IncrementalCollective)
        .expect("starts");
    w.run_until(SimTime::from_secs(6));

    assert_eq!(
        w.host_of(zone),
        Some(n1),
        "migration completed despite the fault"
    );
    let before = *received.borrow();
    w.run_for(2 * SECOND);
    let after = *received.borrow();
    assert!(
        after > before + 16 * 20,
        "updates keep flowing at ~20/s per connection after recovery: {before} → {after}"
    );
}
