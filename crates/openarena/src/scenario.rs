//! The §VI-B experiment: an OpenArena server with 24 clients, live-migrated
//! mid-game.

use crate::apps::{OaClient, OaServer, OA_PORT};
use dvelm_cluster::{world::PacketLogEntry, World, WorldConfig};
use dvelm_migrate::{MigrationReport, Strategy};
use dvelm_net::{Ip, Port, SockAddr};
use dvelm_sim::{SimTime, SECOND};
use std::cell::RefCell;
use std::rc::Rc;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct OaScenario {
    /// Connected clients (the paper uses 24).
    pub n_clients: usize,
    /// When to start the migration.
    pub migrate_at: SimTime,
    /// Socket-migration strategy.
    pub strategy: Strategy,
    /// Total simulated duration.
    pub run_for: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Disable the capture hook on the destination (loss-prevention
    /// ablation).
    pub disable_capture: bool,
}

impl Default for OaScenario {
    fn default() -> Self {
        OaScenario {
            n_clients: 24,
            migrate_at: SimTime::from_secs(5),
            strategy: Strategy::IncrementalCollective,
            run_for: SimTime::from_secs(10),
            seed: 42,
            disable_capture: false,
        }
    }
}

/// What the run produced.
pub struct OaResult {
    /// Server-side tcpdump (all frames on the game port).
    pub packet_log: Vec<PacketLogEntry>,
    /// The migration measurement.
    pub report: Option<MigrationReport>,
    /// Usercmds the server processed.
    pub server_usercmds: u64,
    /// Per-client snapshot arrival instants.
    pub client_arrivals: Vec<Vec<SimTime>>,
    /// Host index of source and destination nodes.
    pub src_host: usize,
    pub dst_host: usize,
}

/// Build and run the scenario.
pub fn run_scenario(s: &OaScenario) -> OaResult {
    let mut cfg = WorldConfig {
        seed: s.seed,
        ..WorldConfig::default()
    };
    cfg.strategy = s.strategy;
    let mut w = World::new(cfg);
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    w.hosts[n1].stack.capture_hook = !s.disable_capture;
    w.enable_packet_log(Port(OA_PORT));

    let usercmds = Rc::new(RefCell::new(0u64));
    let server = w.spawn_process(
        n0,
        "oa_server",
        512,
        4096,
        Box::new(OaServer::new(usercmds.clone())),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT);
    w.app_udp_bind(n0, server, addr);

    let mut arrivals = Vec::new();
    for _ in 0..s.n_clients {
        let ch = w.add_client_host();
        let arr = Rc::new(RefCell::new(Vec::new()));
        arrivals.push(arr.clone());
        let pid = w.spawn_process(ch, "oa_client", 64, 256, Box::new(OaClient::new(addr, arr)));
        w.app_udp_socket(ch, pid, Some(addr));
    }

    w.run_until(s.migrate_at);
    w.begin_migration(server, n1, s.strategy);
    w.run_until(s.run_for);
    // Drain any in-flight work shortly past the end.
    w.run_for(SECOND / 10);

    let server_usercmds = *usercmds.borrow();
    OaResult {
        packet_log: std::mem::take(&mut w.packet_log),
        report: w.reports.first().cloned(),
        server_usercmds,
        client_arrivals: arrivals.iter().map(|a| a.borrow().clone()).collect(),
        src_host: n0,
        dst_host: n1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_sim::MILLISECOND;

    #[test]
    fn oa_migration_is_transparent_to_clients() {
        let s = OaScenario {
            n_clients: 8,
            run_for: SimTime::from_secs(8),
            ..OaScenario::default()
        };
        let r = run_scenario(&s);
        let report = r.report.expect("migration ran");
        assert!(
            report.freeze_us() < 60 * MILLISECOND,
            "freeze {}µs too long for an interactive game",
            report.freeze_us()
        );
        assert!(r.server_usercmds > 500, "server processed a steady stream");
        // Every client kept receiving snapshots after the migration.
        for arr in &r.client_arrivals {
            let after = arr
                .iter()
                .filter(|t| **t > s.migrate_at + 2 * SECOND)
                .count();
            assert!(after > 10, "client starved after migration: {after}");
        }
    }
}
