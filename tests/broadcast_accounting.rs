//! A 16-node ONE-IP world whose broadcast accounting is pinned.
//!
//! The router broadcasts every inbound client frame to every server node
//! (§II-A) and each node's stack counts the copy it keeps or drops. This
//! world drives the fan-out through every way a broadcast can leave the
//! case where all nodes hear it at one instant over identical links:
//!
//! * one port is mapped to a zone, so its frames reach only the zone's
//!   subscriber;
//! * one node's downlink loses frames for a window;
//! * a partition cuts two client hosts off half the cluster, then heals;
//! * a node serving a port crashes with frames in flight;
//! * a zone server with a database session and a game server migrate and
//!   complete, so capture entries and translation rules claim and release
//!   ports while frames are in flight.
//!
//! Every host's `StackStats`, every node downlink's `LinkStats`, the
//! route-error count and the effect stream are pinned: a change to how the
//! router or the runtime delivers broadcast copies that claims identical
//! behaviour must leave them unchanged.

use dvelm::dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
use dvelm::net::{LossModel, ZoneId};
use dvelm::openarena::apps::{OaClient, OaServer, OA_PORT};
use dvelm::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 0x0b1c_a570;
const SERVER_NODES: usize = 16;
/// Game servers, one public port each: nodes 0..6 and node 13.
const OA_NODES: [usize; 7] = [0, 1, 2, 3, 4, 5, 13];
const OA_CLIENT_HOSTS: usize = 8;
const OA_CLIENTS_PER_HOST: usize = 4;
/// The game server whose port is mapped to a zone.
const ZONED: usize = 5;
/// The node whose downlink loses frames for a window.
const LOSSY_NODE: usize = 3;
/// The node that crashes (it serves the last game port).
const CRASHED_NODE: usize = 13;
/// The TCP zone server's node and its migration destination.
const ZONE_NODE: usize = 7;
const ZONE_DEST: usize = 9;
/// The migrating game server (node 2) and its destination.
const MOVED_OA: usize = 2;
const OA_DEST: usize = 10;
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

/// The pinned outputs.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    effects_digest: u64,
    effects: usize,
    end_us: u64,
    stack_digest: u64,
    downlink_digest: u64,
    route_errors: u64,
    rx_total: u64,
    rx_dropped_no_socket: u64,
    rx_captured: u64,
    downlink_frames: u64,
    downlink_dropped: u64,
}

const GOLDEN: Golden = Golden {
    effects_digest: 0xca93_3bdf_53f9_b00d,
    effects: 204,
    end_us: 3_999_854,
    stack_digest: 0xdb8e_1a17_084f_fc8a,
    downlink_digest: 0xa169_4989_c030_c6a8,
    route_errors: 0,
    rx_total: 77_634,
    rx_dropped_no_socket: 67_960,
    rx_captured: 2,
    downlink_frames: 72_116,
    downlink_dropped: 144,
};

/// Each host's stack counters, one line per host in host order.
fn stack_lines(w: &World) -> Vec<String> {
    w.hosts
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{i} {:?}", h.stack.stats()))
        .collect()
}

/// Each server node's router downlink counters, in node order (`None`
/// once the node left the fabric).
fn downlink_lines(w: &mut World) -> Vec<String> {
    (0..SERVER_NODES)
        .map(|n| {
            let stats = w
                .router
                .node_downlink_mut(NodeId(n as u32))
                .map(|l| l.stats());
            format!("{n} {stats:?}")
        })
        .collect()
}

fn golden_of(w: &mut World) -> Golden {
    let downlinks: Vec<_> = (0..SERVER_NODES)
        .filter_map(|n| {
            w.router
                .node_downlink_mut(NodeId(n as u32))
                .map(|l| l.stats())
        })
        .collect();
    let downlink_digest = fnv(downlink_lines(w));
    let stack_sum = |f: &dyn Fn(&HostStack) -> u64| w.hosts.iter().map(|h| f(&h.stack)).sum();
    Golden {
        effects_digest: fnv(w.effect_log().iter().cloned()),
        effects: w.effect_log().len(),
        end_us: w.now().as_micros(),
        stack_digest: fnv(stack_lines(w)),
        downlink_digest,
        route_errors: w.route_errors(),
        rx_total: stack_sum(&|s| s.stats().rx_total),
        rx_dropped_no_socket: stack_sum(&|s| s.stats().rx_dropped_no_socket),
        rx_captured: stack_sum(&|s| s.stats().rx_captured),
        downlink_frames: downlinks.iter().map(|s| s.frames).sum(),
        downlink_dropped: downlinks.iter().map(|s| s.dropped).sum(),
    }
}

/// The world after its scripted run, with the ids the checks need.
struct Run {
    w: World,
    nodes: Vec<usize>,
    migrations: [u64; 2],
    oa_client_hosts: Vec<usize>,
}

fn run() -> Run {
    let mut w = World::new(WorldConfig {
        seed: SEED,
        ..WorldConfig::default()
    });
    w.enable_effect_log();

    let nodes: Vec<usize> = (0..SERVER_NODES).map(|_| w.add_server_node()).collect();
    let db_host = w.add_database_host();

    let usercmds = Rc::new(RefCell::new(0u64));
    let mut oa_pids = Vec::new();
    let mut oa_addrs = Vec::new();
    for (i, &n) in OA_NODES.iter().enumerate() {
        let pid = w.spawn_process(
            nodes[n],
            &format!("oa{i}"),
            32,
            1024,
            Box::new(OaServer::new(usercmds.clone())),
        );
        let port = OA_PORT + i as u16;
        w.app_udp_bind(nodes[n], pid, SockAddr::new(Ip::CLUSTER_PUBLIC, port));
        oa_pids.push(pid);
        oa_addrs.push(SockAddr::new(Ip::CLUSTER_PUBLIC, port));
    }
    w.register_zone_interest(
        nodes[OA_NODES[ZONED]],
        oa_pids[ZONED],
        Port(OA_PORT + ZONED as u16),
        ZoneId(0),
    );
    let mut oa_client_hosts = Vec::new();
    for h in 0..OA_CLIENT_HOSTS {
        let ch = w.add_client_host();
        oa_client_hosts.push(ch);
        for c in 0..OA_CLIENTS_PER_HOST {
            let addr = oa_addrs[(h * OA_CLIENTS_PER_HOST + c) % oa_addrs.len()];
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            let pid = w.spawn_process(ch, "cl", 16, 64, Box::new(OaClient::new(addr, arrivals)));
            w.app_udp_socket(ch, pid, Some(addr));
        }
    }

    let db_pid = w.spawn_process(db_host, "mysqld", 64, 256, Box::new(DbServer::new()));
    let db_addr = SockAddr::new(w.hosts[db_host].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db_host, db_pid, db_addr);
    let zone_addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    let zone = w.spawn_process(
        nodes[ZONE_NODE],
        "zone",
        64,
        512,
        Box::new(ZoneServer::new()),
    );
    w.app_tcp_listen(nodes[ZONE_NODE], zone, zone_addr);
    w.app_tcp_connect(nodes[ZONE_NODE], zone, db_addr, true);
    for _ in 0..SWARM_HOSTS {
        let ch = w.add_client_host();
        let swarm = w.spawn_process(ch, "swarm", 32, 128, Box::new(SwarmClient::new()));
        for _ in 0..SWARM_CONNECTIONS {
            w.app_tcp_connect(ch, swarm, zone_addr, false);
        }
    }

    let cut: Vec<usize> = nodes[..SERVER_NODES / 2].to_vec();
    w.install_fault_plan(
        FaultPlan::new()
            .at(
                SimTime::from_millis(500),
                Fault::DownlinkLoss {
                    host: nodes[LOSSY_NODE],
                    model: LossModel::Bernoulli(0.4),
                    for_us: 300_000,
                },
            )
            .at(
                SimTime::from_millis(900),
                Fault::Partition {
                    groups: [HostSet::of(&oa_client_hosts[..2]), HostSet::of(&cut)],
                    for_us: 200_000,
                },
            )
            .at(
                SimTime::from_micros(1_300_037),
                Fault::NodeCrash {
                    host: nodes[CRASHED_NODE],
                },
            ),
    );
    w.run_until(SimTime::from_millis(1_500));

    let zone_mig = w
        .begin_migration(zone, nodes[ZONE_DEST], Strategy::IncrementalCollective)
        .expect("zone migration admitted");
    w.run_for(150_000);
    let oa_mig = w
        .begin_migration(
            oa_pids[MOVED_OA],
            nodes[OA_DEST],
            Strategy::IncrementalCollective,
        )
        .expect("game server migration admitted");
    w.run_until(SimTime::from_secs(4));

    Run {
        w,
        nodes,
        migrations: [zone_mig, oa_mig],
        oa_client_hosts,
    }
}

#[test]
fn broadcast_accounting_matches_golden() {
    let Run {
        mut w,
        nodes,
        migrations,
        oa_client_hosts,
    } = run();
    for mig in migrations {
        assert!(
            w.migration_outcome(mig).is_some_and(|o| o.is_completed()),
            "migration {mig} completes: {:?}",
            w.migration_outcome(mig)
        );
    }
    assert!(!w.hosts[nodes[CRASHED_NODE]].alive);
    assert!(w
        .router
        .node_downlink_mut(NodeId(CRASHED_NODE as u32))
        .is_none());
    let oa_dest = w.hosts[nodes[OA_DEST]].stack.stats();
    assert!(
        oa_dest.rx_captured > 0 && oa_dest.reinjected == oa_dest.rx_captured,
        "the game server's destination captured and reinjected: {oa_dest:?}"
    );
    let db = w.hosts[nodes.len()].stack.xlate.stats();
    assert!(
        db.rewritten_in + db.rewritten_out > 0,
        "the database session was translated: {db:?}"
    );
    assert!(
        w.hosts[oa_client_hosts[0]].stack.stats().tx_total > 0,
        "the partitioned client hosts sent"
    );
    let lossy = w
        .router
        .node_downlink_mut(NodeId(LOSSY_NODE as u32))
        .expect("attached")
        .stats();
    assert!(
        lossy.dropped > 0,
        "the lossy window dropped frames: {lossy:?}"
    );
    let got = golden_of(&mut w);
    assert!(
        got.rx_dropped_no_socket * 2 > got.rx_total,
        "most broadcast copies land on non-owners: {got:?}"
    );
    assert_eq!(
        got,
        GOLDEN,
        "per-host stacks:\n{}\nper-node downlinks:\n{}",
        stack_lines(&w).join("\n"),
        downlink_lines(&mut w).join("\n")
    );
}
