//! The three workloads: how each world is built and what happens to it
//! during the measured window.
//!
//! Traffic is open loop in simulated time: every client sends a usercmd (or
//! command) every 50 ms and every server sends a snapshot (or update) round
//! every 50 ms, whatever the replies. The host runs the simulator as fast as
//! it can, so the benchmark measures throughput and has no generator
//! lateness to report.

use dvelm_cluster::{World, WorldConfig};
use dvelm_dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
use dvelm_net::{Ip, SockAddr};
use dvelm_openarena::apps::OA_PORT;
use dvelm_openarena::{OaClient, OaServer};
use dvelm_proc::Pid;
use dvelm_sim::{SimTime, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::rc::Rc;

/// The seed the benchmark of record runs by default.
pub const DEFAULT_SEED: u64 = 0x05CA_1EBC;
/// A seed held back from tuning: every check must pass on it too.
pub const HOLDOUT_SEED: u64 = 0x5EED_0002;

/// `OaClient` processes per client host, each on its own ephemeral port.
const CLIENTS_PER_HOST: usize = 16;
/// Highest client-host `NodeId` that `Ip::client_host` maps back to a host
/// (it decodes 198.51.100.1–.255). A client host above it would silently
/// lose every server→client frame at the router.
const MAX_CLIENT_NODE: usize = 254;
/// The reduced size used by the unit tests divides client counts by this.
const REDUCED_CLIENT_DIV: usize = 8;
/// The reduced size's window, simulated µs.
const REDUCED_WINDOW_US: u64 = 2 * SECOND;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's ONE-IP cluster at 64 nodes: inbound broadcast fan-out
    /// dominates; scripted precopy migrations.
    OaBroadcast,
    /// A hot spot on 4 of 16 nodes that the conductor must spread out.
    OaHotspotLb,
    /// Fig. 5b at scale: zone servers with 256 TCP clients and a MySQL
    /// session each, migrated round robin.
    TcpZoneMigration,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::OaBroadcast,
        Workload::OaHotspotLb,
        Workload::TcpZoneMigration,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OaBroadcast => "oa_broadcast",
            Workload::OaHotspotLb => "oa_hotspot_lb",
            Workload::TcpZoneMigration => "tcp_zone_migration",
        }
    }

    /// Parse a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A scheduled intervention in the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start migrating server `server` to server node `node` (an index into
    /// [`Scenario::nodes`]).
    MigrateTo { server: usize, node: usize },
    /// Start migrating server `server` to the node after the one it runs on.
    MigrateToNext { server: usize },
    /// Start the conductors.
    EnableLoadBalancing,
}

/// One workload at one seed and size: everything needed to build and drive
/// a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// The test-only size: ⅛ of the clients and a 2 sim-s window.
    pub reduced: bool,
}

impl Spec {
    /// The full-size run of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            seed,
            reduced: false,
        }
    }

    /// End of warm-up and start of the measured window.
    pub fn window_start(&self) -> SimTime {
        match self.workload {
            Workload::OaBroadcast | Workload::OaHotspotLb => SimTime::from_secs(1),
            Workload::TcpZoneMigration => SimTime::from_millis(1_200),
        }
    }

    /// Length of the measured window, simulated µs.
    pub fn window_us(&self) -> u64 {
        if self.reduced {
            return REDUCED_WINDOW_US;
        }
        match self.workload {
            Workload::OaBroadcast => 20 * SECOND,
            Workload::OaHotspotLb => 60 * SECOND,
            Workload::TcpZoneMigration => 40 * SECOND,
        }
    }

    /// The granularity at which the window is advanced and sampled. It
    /// divides both the 1 s goodput slice and every action instant.
    pub fn step_us(&self) -> u64 {
        match self.workload {
            Workload::OaBroadcast => SECOND,
            // Node CPU is sampled every 100 ms for the balance metrics.
            Workload::OaHotspotLb => 100 * MILLISECOND,
            // Client hosts are sampled every 1 ms for update gaps.
            Workload::TcpZoneMigration => MILLISECOND,
        }
    }

    fn scale(&self, clients: usize) -> usize {
        if self.reduced {
            clients.div_ceil(REDUCED_CLIENT_DIV)
        } else {
            clients
        }
    }

    /// Server nodes of the cluster.
    fn node_count(&self) -> usize {
        match self.workload {
            Workload::OaBroadcast => 64,
            Workload::OaHotspotLb => 16,
            Workload::TcpZoneMigration => 4,
        }
    }

    /// Clients of each OA server, in server order (empty for TCP).
    fn oa_clients_per_server(&self) -> Vec<usize> {
        match self.workload {
            Workload::OaBroadcast => {
                let clients = self.scale(2048);
                (0..64)
                    .map(|s| clients / 64 + usize::from(s < clients % 64))
                    .collect()
            }
            // Four servers per node; the servers of nodes 0–3 are hot. The
            // reduced size empties the cold servers instead of rounding
            // them up, so the hot nodes still exceed the imbalance delta.
            Workload::OaHotspotLb => (0..64)
                .map(|s| match (s / 4 < 4, self.reduced) {
                    (true, _) => self.scale(26),
                    (false, false) => 4,
                    (false, true) => 0,
                })
                .collect(),
            Workload::TcpZoneMigration => Vec::new(),
        }
    }

    /// TCP connections from each zone's client swarm.
    fn tcp_connections(&self) -> usize {
        self.scale(256)
    }

    /// Hosts the world will hold; client hosts are added last, so the
    /// highest client `NodeId` is this count minus one.
    fn host_count(&self) -> usize {
        match self.workload {
            Workload::OaBroadcast | Workload::OaHotspotLb => {
                let clients: usize = self.oa_clients_per_server().iter().sum();
                self.node_count() + clients.div_ceil(CLIENTS_PER_HOST)
            }
            // Nodes, one database host, one swarm host per zone.
            Workload::TcpZoneMigration => 2 * self.node_count() + 1,
        }
    }

    /// Refuse a configuration that would give a client host a `NodeId` the
    /// router cannot decode: its snapshots would vanish without an error.
    pub fn check_address_plan(&self) -> Result<(), String> {
        client_node_decodable(self.host_count() - 1)
    }

    /// The interventions of the window, as (offset from window start µs,
    /// action), in time order.
    pub fn actions(&self) -> Vec<(u64, Action)> {
        let window = self.window_us();
        match self.workload {
            // Migration k moves server k to node k+32, one per second.
            Workload::OaBroadcast => (0..16)
                .map(|k| {
                    (
                        k as u64 * SECOND,
                        Action::MigrateTo {
                            server: k,
                            node: k + 32,
                        },
                    )
                })
                .filter(|(at, _)| *at < window)
                .collect(),
            Workload::OaHotspotLb => vec![(0, Action::EnableLoadBalancing)],
            // One migration about every 500 ms, round robin over the zones.
            // 503 ms is coprime with the 50 ms update and 250 ms database
            // cadences, so successive migrations of a zone freeze it at a
            // different phase of its cadence and every seed samples them
            // all; a multiple of 50 ms would lock each zone to one phase.
            Workload::TcpZoneMigration => (0..)
                .map(|i| {
                    (
                        i as u64 * 503 * MILLISECOND,
                        Action::MigrateToNext { server: i % 4 },
                    )
                })
                .take_while(|(at, _)| *at < window)
                .collect(),
        }
    }

    /// Build the world. The caller has removed `DVELM_SHARDS` from the
    /// environment, so the default configuration is the sequential loop.
    pub fn build(&self) -> Scenario {
        let mut world = World::new(WorldConfig {
            seed: self.seed,
            ..WorldConfig::default()
        });
        let nodes: Vec<usize> = (0..self.node_count())
            .map(|_| world.add_server_node())
            .collect();
        match self.workload {
            Workload::OaBroadcast | Workload::OaHotspotLb => self.build_oa(world, nodes),
            Workload::TcpZoneMigration => self.build_tcp(world, nodes),
        }
    }

    fn build_oa(&self, mut world: World, nodes: Vec<usize>) -> Scenario {
        let per_server = self.oa_clients_per_server();
        let servers_per_node = per_server.len() / nodes.len();
        let usercmds = Rc::new(RefCell::new(0u64));
        let mut servers = Vec::with_capacity(per_server.len());
        let mut addrs = Vec::with_capacity(per_server.len());
        for s in 0..per_server.len() {
            let host = nodes[s / servers_per_node];
            let pid = world.spawn_process(
                host,
                "oa_server",
                512,
                4096,
                Box::new(OaServer::new(usercmds.clone())),
            );
            let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + s as u16);
            world.app_udp_bind(host, pid, addr);
            servers.push(pid);
            addrs.push(addr);
        }
        // Clients in server order (the broadcast workload interleaves them
        // so every client host talks to 16 different servers).
        let mut order: Vec<usize> = Vec::new();
        match self.workload {
            Workload::OaBroadcast => {
                let total: usize = per_server.iter().sum();
                order.extend((0..total).map(|c| c % per_server.len()));
            }
            Workload::OaHotspotLb | Workload::TcpZoneMigration => {
                for (s, &n) in per_server.iter().enumerate() {
                    order.extend(std::iter::repeat_n(s, n));
                }
            }
        }
        let mut client_hosts = Vec::new();
        let mut arrivals = Vec::with_capacity(order.len());
        for (c, &s) in order.iter().enumerate() {
            if c % CLIENTS_PER_HOST == 0 {
                client_hosts.push(world.add_client_host());
            }
            let host = *client_hosts.last().expect("a client host was just added");
            let arr = Rc::new(RefCell::new(Vec::new()));
            let pid = world.spawn_process(
                host,
                "oa_client",
                64,
                256,
                Box::new(OaClient::new(addrs[s], arr.clone())),
            );
            world.app_udp_socket(host, pid, Some(addrs[s]));
            arrivals.push(arr);
        }
        Scenario {
            world,
            servers,
            nodes,
            client_hosts,
            traffic: Traffic::Oa { usercmds, arrivals },
        }
    }

    fn build_tcp(&self, mut world: World, nodes: Vec<usize>) -> Scenario {
        let db_host = world.add_database_host();
        let db_pid = world.spawn_process(db_host, "mysqld", 256, 1024, Box::new(DbServer::new()));
        let db_addr = SockAddr::new(world.hosts[db_host].stack.local_ip, DB_PORT);
        world.app_tcp_listen(db_host, db_pid, db_addr);

        let mut servers = Vec::new();
        let mut zones = Vec::new();
        let mut updates_sent = Vec::new();
        let mut cmds_received = Vec::new();
        for (z, &host) in nodes.iter().enumerate() {
            let app = ZoneServer::new();
            updates_sent.push(app.updates_sent.clone());
            cmds_received.push(app.cmds_received.clone());
            let pid = world.spawn_process(host, "zone_serv", 256, 4096, Box::new(app));
            let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT + z as u16);
            world.app_tcp_listen(host, pid, addr);
            world.app_tcp_connect(host, pid, db_addr, true);
            servers.push(pid);
            zones.push(addr);
        }
        let mut client_hosts = Vec::new();
        let mut updates_received = Vec::new();
        for addr in zones {
            let host = world.add_client_host();
            let app = SwarmClient::new();
            updates_received.push(app.updates_received.clone());
            let pid = world.spawn_process(host, "swarm", 64, 512, Box::new(app));
            for _ in 0..self.tcp_connections() {
                world.app_tcp_connect(host, pid, addr, false);
            }
            client_hosts.push(host);
        }
        Scenario {
            world,
            servers,
            nodes,
            client_hosts,
            traffic: Traffic::Tcp {
                updates_sent,
                cmds_received,
                updates_received,
            },
        }
    }
}

fn client_node_decodable(highest: usize) -> Result<(), String> {
    if highest > MAX_CLIENT_NODE {
        return Err(format!(
            "client host NodeId {highest} exceeds {MAX_CLIENT_NODE}, the highest \
             Ip::client_host decodes; its server→client traffic would be dropped silently"
        ));
    }
    Ok(())
}

/// Handles on the applications' own counters.
pub enum Traffic {
    Oa {
        /// Usercmds received, summed over every server.
        usercmds: Rc<RefCell<u64>>,
        /// Snapshot arrival instants, one list per client.
        arrivals: Vec<Rc<RefCell<Vec<SimTime>>>>,
    },
    Tcp {
        /// Per zone server.
        updates_sent: Vec<Rc<RefCell<u64>>>,
        /// Per zone server.
        cmds_received: Vec<Rc<RefCell<u64>>>,
        /// Per client swarm.
        updates_received: Vec<Rc<RefCell<u64>>>,
    },
}

fn sum(counters: &[Rc<RefCell<u64>>]) -> u64 {
    counters.iter().map(|c| *c.borrow()).sum()
}

impl Traffic {
    /// Application messages delivered so far: usercmds counted by the
    /// servers plus snapshots counted by the clients (OA), or updates plus
    /// commands received (TCP).
    pub fn delivered(&self) -> u64 {
        match self {
            Traffic::Oa { usercmds, arrivals } => {
                *usercmds.borrow()
                    + arrivals
                        .iter()
                        .map(|a| a.borrow().len() as u64)
                        .sum::<u64>()
            }
            Traffic::Tcp {
                cmds_received,
                updates_received,
                ..
            } => sum(cmds_received) + sum(updates_received),
        }
    }
}

/// A built world plus the handles the benchmark reads.
pub struct Scenario {
    pub world: World,
    /// Migratable server processes, in workload order.
    pub servers: Vec<Pid>,
    /// Server-node host indices, in node order.
    pub nodes: Vec<usize>,
    /// Client host indices.
    pub client_hosts: Vec<usize>,
    pub traffic: Traffic,
}

impl Scenario {
    /// Messages the applications sent and received over the whole run, for
    /// the loss ratio: stack transmissions of server and client hosts
    /// against deliveries (OA), or updates sent against updates received
    /// (TCP).
    pub fn sent_received(&self) -> (u64, u64) {
        match &self.traffic {
            Traffic::Oa { .. } => {
                let sent = self
                    .nodes
                    .iter()
                    .chain(&self.client_hosts)
                    .map(|&h| self.world.hosts[h].stack.stats().tx_total)
                    .sum();
                (sent, self.traffic.delivered())
            }
            Traffic::Tcp {
                updates_sent,
                updates_received,
                ..
            } => (sum(updates_sent), sum(updates_received)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sizes_match_the_workload_definitions() {
        let b = Spec::new(Workload::OaBroadcast, DEFAULT_SEED);
        assert_eq!(b.oa_clients_per_server().iter().sum::<usize>(), 2048);
        assert_eq!(b.host_count(), 64 + 128);
        assert_eq!(b.actions().len(), 16);
        let h = Spec::new(Workload::OaHotspotLb, DEFAULT_SEED);
        assert_eq!(h.oa_clients_per_server().iter().sum::<usize>(), 608);
        let t = Spec::new(Workload::TcpZoneMigration, DEFAULT_SEED);
        assert_eq!(t.actions().len(), 80);
        for w in Workload::ALL {
            assert!(Spec::new(w, DEFAULT_SEED).check_address_plan().is_ok());
            assert_eq!(Spec::new(w, 1).window_us() % SECOND, 0);
            assert_eq!(SECOND % Spec::new(w, 1).step_us(), 0);
        }
    }

    #[test]
    fn address_plan_guard_refuses_undecodable_client_hosts() {
        assert!(client_node_decodable(254).is_ok());
        assert!(client_node_decodable(255).is_err());
    }
}
