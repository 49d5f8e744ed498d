//! A small ONE-IP cluster pinned to golden per-host counters.
//!
//! In the paper's ONE-IP configuration (§II-A) every server node hears
//! every inbound client frame and all but the port's owner drop it. How a
//! stack drops a copy it cannot keep is an implementation detail; what it
//! counts is not. This world mixes UDP game traffic, TCP zone traffic with
//! an in-cluster database session, one completed migration (capture on the
//! destination, reinjection after restore, translation on the database
//! host) and one migration aborted past its detach point (capture drained
//! back into the source). Every host's `StackStats`, `CaptureStats` and
//! `XlateStats`, its socket table as `netstat` and `socket_ids` show it,
//! and the rendered effect stream are pinned, so a receive path or socket
//! table change that claims identical behaviour must leave them unchanged.
//!
//! The same world runs a second time under a small capture budget with the
//! hard-fail TCP policy, pinning the capture-pressure path: the refused
//! segment's `QueuePressure` line and the abort it forces.

use dvelm::dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
use dvelm::migrate::AbortReason;
use dvelm::openarena::apps::{OaClient, OaServer, OA_PORT};
use dvelm::prelude::*;
use dvelm::stack::{CaptureBudget, TcpShedPolicy};
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 0x0e1f_2018;
const SERVER_NODES: usize = 8;
/// UDP game servers on nodes 0..4, one public port each.
const OA_SERVERS: usize = 4;
const OA_CLIENT_HOSTS: usize = 8;
const OA_CLIENTS_PER_HOST: usize = 6;
/// The TCP zone server's node, and its swarms: one process per client
/// host, each ticking at its own phase.
const ZONE_NODE: usize = 4;
const SWARM_HOSTS: usize = 4;
const SWARM_CONNECTIONS: usize = 4;

/// FNV-1a over lines, each terminated by a newline.
fn fnv(lines: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain([b'\n']) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The pinned outputs: the effect stream (digest, length, end instant),
/// a digest of every host's stack, capture and translation counters, a
/// digest of every host's socket table, and a few cluster-wide totals that
/// say at a glance what moved.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    effects_digest: u64,
    effects: usize,
    end_us: u64,
    counters_digest: u64,
    sockets_digest: u64,
    sockets: usize,
    rx_total: u64,
    rx_dropped_no_socket: u64,
    rx_captured: u64,
    reinjected: u64,
    xlate_rewritten: u64,
}

const GOLDEN: Golden = Golden {
    effects_digest: 0xa8ab_c43c_0f52_6ce5,
    effects: 199,
    end_us: 5_628_049,
    counters_digest: 0xa60f_df3f_f481_9baa,
    sockets_digest: 0x0c4b_50ca_45b4_5678,
    sockets: 88,
    rx_total: 80_648,
    rx_dropped_no_socket: 62_685,
    rx_captured: 5,
    reinjected: 5,
    xlate_rewritten: 72,
};

/// A budget that admits a 48-byte usercmd but not a 64-byte swarm
/// command: the game server's destination still captures, the zone
/// server's refuses its first segment.
const PRESSURE_BUDGET: CaptureBudget = CaptureBudget {
    max_packets: 4,
    max_bytes: 56,
    tcp_policy: TcpShedPolicy::HardFail,
};

/// [`capture_pressure_world_matches_golden`]'s pins: the effect-log
/// digest, its length and the per-host counter digest.
const PRESSURE_GOLDEN: (u64, usize, u64) = (0x43e0_d244_4544_af16, 206, 0xfdf3_cb0c_e90a_82b2);

/// Each host's counters, one line per host in host order.
fn counter_lines(w: &World) -> Vec<String> {
    w.hosts
        .iter()
        .enumerate()
        .map(|(i, h)| {
            format!(
                "{i} {:?} {:?} {:?}",
                h.stack.stats(),
                h.stack.capture.stats(),
                h.stack.xlate.stats()
            )
        })
        .collect()
}

/// Each host's socket ids and `netstat` table, in host order.
fn socket_lines(w: &World) -> Vec<String> {
    w.hosts
        .iter()
        .enumerate()
        .flat_map(|(i, h)| {
            let ids: Vec<u64> = h.stack.socket_ids().iter().map(|s| s.0).collect();
            [format!("{i} {ids:?}"), h.stack.netstat()]
        })
        .collect()
}

fn golden_of(w: &World) -> Golden {
    let sum = |f: &dyn Fn(&dvelm::cluster::Host) -> u64| w.hosts.iter().map(f).sum();
    Golden {
        effects_digest: fnv(w.effect_log().iter().cloned()),
        effects: w.effect_log().len(),
        end_us: w.now().as_micros(),
        counters_digest: fnv(counter_lines(w)),
        sockets_digest: fnv(socket_lines(w)),
        sockets: w.hosts.iter().map(|h| h.stack.socket_count()).sum(),
        rx_total: sum(&|h| h.stack.stats().rx_total),
        rx_dropped_no_socket: sum(&|h| h.stack.stats().rx_dropped_no_socket),
        rx_captured: sum(&|h| h.stack.stats().rx_captured),
        reinjected: sum(&|h| h.stack.stats().reinjected),
        xlate_rewritten: sum(&|h| {
            let x = h.stack.xlate.stats();
            x.rewritten_in + x.rewritten_out
        }),
    }
}

/// The world after its scripted run, with the ids the checks need.
struct Run {
    w: World,
    nodes: Vec<usize>,
    zone: Pid,
    game_server: Pid,
    /// The game server's migration, aborted past its detach point.
    aborted: u64,
    /// The zone server's migration.
    zone_mig: u64,
}

/// Build and run the world under `capture_budget`; both migrations have
/// settled when it returns.
fn run(capture_budget: CaptureBudget) -> Run {
    let mut w = World::new(WorldConfig {
        seed: SEED,
        capture_budget,
        ..WorldConfig::default()
    });
    w.enable_effect_log();
    w.enable_monitor();

    let nodes: Vec<usize> = (0..SERVER_NODES).map(|_| w.add_server_node()).collect();
    let db_host = w.add_database_host();

    let usercmds = Rc::new(RefCell::new(0u64));
    let mut oa_pids = Vec::new();
    let mut oa_addrs = Vec::new();
    for (n, &node) in nodes.iter().enumerate().take(OA_SERVERS) {
        let pid = w.spawn_process(
            node,
            &format!("oa{n}"),
            64,
            2048,
            Box::new(OaServer::new(usercmds.clone())),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + n as u16);
        w.app_udp_bind(node, pid, addr);
        oa_pids.push(pid);
        oa_addrs.push(addr);
    }
    for h in 0..OA_CLIENT_HOSTS {
        let ch = w.add_client_host();
        for c in 0..OA_CLIENTS_PER_HOST {
            let addr = oa_addrs[(h * OA_CLIENTS_PER_HOST + c) % OA_SERVERS];
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            let pid = w.spawn_process(ch, "cl", 16, 64, Box::new(OaClient::new(addr, arrivals)));
            w.app_udp_socket(ch, pid, Some(addr));
        }
    }

    let db_pid = w.spawn_process(db_host, "mysqld", 64, 256, Box::new(DbServer::new()));
    let db_addr = SockAddr::new(w.hosts[db_host].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db_host, db_pid, db_addr);
    let zone_node = nodes[ZONE_NODE];
    let zone_addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    let zone = w.spawn_process(zone_node, "zone", 64, 512, Box::new(ZoneServer::new()));
    w.app_tcp_listen(zone_node, zone, zone_addr);
    w.app_tcp_connect(zone_node, zone, db_addr, true);
    for _ in 0..SWARM_HOSTS {
        let ch = w.add_client_host();
        let swarm = w.spawn_process(ch, "swarm", 32, 128, Box::new(SwarmClient::new()));
        for _ in 0..SWARM_CONNECTIONS {
            w.app_tcp_connect(ch, swarm, zone_addr, false);
        }
    }

    w.run_for(SECOND);

    // Game server 0 heads for node 6 and is aborted once detached and
    // once the destination has captured a usercmd, so the abort has a
    // capture queue to hand back to the source.
    let aborted = w
        .begin_migration(oa_pids[0], nodes[6], Strategy::IncrementalCollective)
        .expect("game server migration admitted");
    let mut deadline = w.now();
    while w.migration_past_detach(aborted) == Some(false)
        || (w.migration_past_detach(aborted) == Some(true)
            && w.hosts[nodes[6]].stack.stats().rx_captured == 0)
    {
        deadline += 200;
        w.run_until(deadline);
    }
    assert_eq!(
        w.migration_past_detach(aborted),
        Some(true),
        "the game server migration must still be in flight when aborted"
    );
    assert!(w.abort_migration(aborted, AbortReason::TransferStalled));
    w.run_for(SECOND);

    // The zone server moves to node 5 and completes: the destination
    // captures the swarm's segments during the freeze and reinjects them
    // after restore; the database host translates its session.
    let zone_mig = w
        .begin_migration(zone, nodes[5], Strategy::IncrementalCollective)
        .expect("zone migration admitted");
    w.run_for(3 * SECOND);

    Run {
        w,
        nodes,
        zone,
        game_server: oa_pids[0],
        aborted,
        zone_mig,
    }
}

/// The world exercises what the module docs claim, then matches its pins.
#[test]
fn oneip_world_counters_match_golden() {
    let Run {
        mut w,
        nodes,
        zone,
        game_server,
        aborted,
        zone_mig,
    } = run(CaptureBudget::UNLIMITED);
    assert!(
        w.migration_outcome(zone_mig)
            .is_some_and(|o| o.is_completed()),
        "the zone migration completes: {:?}",
        w.migration_outcome(zone_mig)
    );
    assert!(
        w.migration_outcome(aborted)
            .is_some_and(|o| !o.is_completed()),
        "the game server migration ends aborted: {:?}",
        w.migration_outcome(aborted)
    );
    assert_eq!(w.host_of(zone), Some(nodes[5]));
    assert_eq!(w.host_of(game_server), Some(nodes[0]));
    let stats = |n: usize| w.hosts[nodes[n]].stack.stats();
    assert!(
        stats(5).rx_captured > 0 && stats(5).reinjected == stats(5).rx_captured,
        "the zone's destination captured and reinjected: {:?}",
        stats(5)
    );
    assert!(
        stats(6).rx_captured > 0 && stats(0).reinjected > 0,
        "the aborted destination captured and the source got the queue back: {:?} {:?}",
        stats(6),
        stats(0)
    );
    w.monitor_sweep();
    assert!(w.violations().is_empty(), "{:?}", w.violations());
    let got = golden_of(&w);
    assert!(
        got.xlate_rewritten > 0,
        "the database session was translated: {got:?}"
    );
    assert!(
        got.rx_dropped_no_socket * 2 > got.rx_total,
        "most broadcast copies land on non-owners: {got:?}"
    );
    assert_eq!(
        got,
        GOLDEN,
        "per-host counters:\n{}\nper-host sockets:\n{}",
        counter_lines(&w).join("\n"),
        socket_lines(&w).join("\n")
    );
}

/// The same world under a small capture budget with the hard-fail TCP
/// policy: the zone server's destination refuses a segment its queue
/// cannot hold, records the pressure on the migration's effect stream and
/// aborts it as overloaded. The effect stream and every host's counters
/// are pinned, so the capture-pressure path keeps its output too.
#[test]
fn capture_pressure_world_matches_golden() {
    let Run { w, .. } = run(PRESSURE_BUDGET);
    let log = w.effect_log();
    assert!(
        log.iter().any(|l| l.contains(" QueuePressure ")),
        "the run records capture pressure"
    );
    assert!(
        log.iter()
            .any(|l| l.contains(" Aborted {") && l.contains("reason: overloaded")),
        "a hard-fail refusal aborts its migration as overloaded"
    );
    let got = (fnv(log.iter().cloned()), log.len(), fnv(counter_lines(&w)));
    assert_eq!(
        got,
        PRESSURE_GOLDEN,
        "per-host counters:\n{}",
        counter_lines(&w).join("\n")
    );
}
