//! The packet-level DVE applications: zone server, database server, and a
//! client swarm.

use bytes::Bytes;
use dvelm_cluster::{App, AppCtx};
use dvelm_proc::Fd;
use dvelm_sim::MILLISECOND;
use dvelm_stack::Skb;
use std::cell::RefCell;
use std::rc::Rc;

/// Base TCP port of zone servers (zone *z* listens on `ZONE_BASE_PORT + z`;
/// ports, not IPs, identify DVE processes in the single-IP cluster, §II-A).
pub const ZONE_BASE_PORT: u16 = 20_000;
/// MySQL-like database port.
pub const DB_PORT: u16 = 3306;
/// State-update payload size (§VI-C: 256 B, the reported MMOG average).
pub const UPDATE_BYTES: usize = 256;
/// Client command payload size.
pub const CMD_BYTES: usize = 64;
/// Database query/answer payload sizes.
pub const DB_QUERY_BYTES: usize = 128;

/// Payloads are fixed filler, so every round shares one static buffer.
static UPDATE: [u8; UPDATE_BYTES] = [0x5A; UPDATE_BYTES];
static DB_QUERY: [u8; DB_QUERY_BYTES] = [0xD8; DB_QUERY_BYTES];
static CMD: [u8; CMD_BYTES] = [0xC0; CMD_BYTES];

/// A zone server: accepts client TCP connections, runs the real-time loop
/// (≈20 updates/s), keeps a MySQL session busy and dirties memory as it
/// simulates the world.
pub struct ZoneServer {
    /// Established client connections.
    conns: Vec<Fd>,
    /// The database session (must be connected by the scenario builder).
    db_fd: Option<Fd>,
    tick: u64,
    update_round: u64,
    /// Next client-update round is due at this instant (time-based 20 Hz on
    /// top of the 10 ms internal frame loop).
    next_update_at: u64,
    /// Pages dirtied per 10 ms internal frame (world state churn).
    /// 100 pages/frame ≈ 40 MB/s keeps the freeze-phase memory increment in
    /// the ~10 ms band the paper's Fig. 5b floor shows.
    pub dirty_pages_per_tick: usize,
    /// CPU model: share = base + per_client × connections (§VI-C: "CPU
    /// consumption grows proportionally with the number of clients").
    pub cpu_base: f64,
    pub cpu_per_client: f64,
    /// Updates sent (statistic).
    pub updates_sent: Rc<RefCell<u64>>,
    /// Commands received (statistic).
    pub cmds_received: Rc<RefCell<u64>>,
}

impl ZoneServer {
    /// A zone server with the calibrated defaults.
    pub fn new() -> ZoneServer {
        ZoneServer {
            conns: Vec::new(),
            db_fd: None,
            tick: 0,
            update_round: 0,
            next_update_at: 0,
            dirty_pages_per_tick: 100,
            cpu_base: 1.5,
            cpu_per_client: 0.0215,
            updates_sent: Rc::new(RefCell::new(0)),
            cmds_received: Rc::new(RefCell::new(0)),
        }
    }
}

impl Default for ZoneServer {
    fn default() -> Self {
        Self::new()
    }
}

impl App for ZoneServer {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        self.tick += 1;
        ctx.touch_memory(self.dirty_pages_per_tick);
        ctx.set_cpu_share(self.cpu_base + self.cpu_per_client * self.conns.len() as f64);
        // The real-time loop: ~20 state updates per second to every client,
        // time-based so a freeze shifts (not rephases) the cadence.
        if ctx.now.as_micros() >= self.next_update_at {
            self.next_update_at = ctx.now.as_micros() + 50 * MILLISECOND;
            for &fd in &self.conns {
                ctx.send(fd, Bytes::from_static(&UPDATE));
                *self.updates_sent.borrow_mut() += 1;
            }
            // Persist world properties to the database a few times a second
            // (every 5th update round = 4 queries/s).
            self.update_round += 1;
            if self.update_round.is_multiple_of(5) {
                if let Some(db) = self.db_fd {
                    ctx.send(db, Bytes::from_static(&DB_QUERY));
                }
            }
        }
    }

    fn on_new_connection(&mut self, _ctx: &mut AppCtx<'_>, _listener: Fd, child: Fd) {
        self.conns.push(child);
    }

    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        // The only connection a zone server actively opens is its MySQL
        // session.
        self.db_fd = Some(fd);
    }

    fn on_tcp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, data: &[Skb]) {
        if Some(fd) == self.db_fd {
            return; // database acknowledgements
        }
        *self.cmds_received.borrow_mut() += data.len() as u64;
        ctx.touch_memory(1);
    }

    fn on_conn_closed(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.conns.retain(|c| *c != fd);
        if self.db_fd == Some(fd) {
            self.db_fd = None;
        }
    }

    fn tick_period_us(&self) -> u64 {
        10 * MILLISECOND // internal frame loop; updates go out at 20 Hz
    }
}

/// The MySQL-like database server: answers every query with a small OK.
pub struct DbServer {
    /// Queries served (statistic).
    pub queries: Rc<RefCell<u64>>,
}

impl DbServer {
    /// A database server.
    pub fn new() -> DbServer {
        DbServer {
            queries: Rc::new(RefCell::new(0)),
        }
    }
}

impl Default for DbServer {
    fn default() -> Self {
        Self::new()
    }
}

impl App for DbServer {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(4);
    }

    fn on_tcp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, data: &[Skb]) {
        for _ in data {
            *self.queries.borrow_mut() += 1;
            ctx.send(fd, Bytes::from_static(b"OK\0\0\0\0\0\0"));
        }
    }
}

/// A swarm of game clients multiplexed into one process on a client host:
/// each established connection sends a 64-byte command every tick.
pub struct SwarmClient {
    conns: Vec<Fd>,
    /// Updates received across all connections (statistic).
    pub updates_received: Rc<RefCell<u64>>,
    /// Bytes received across all connections (statistic).
    pub bytes_received: Rc<RefCell<u64>>,
}

impl SwarmClient {
    /// An empty swarm; connections are opened by the scenario builder and
    /// registered via `on_connected`.
    pub fn new() -> SwarmClient {
        SwarmClient {
            conns: Vec::new(),
            updates_received: Rc::new(RefCell::new(0)),
            bytes_received: Rc::new(RefCell::new(0)),
        }
    }
}

impl Default for SwarmClient {
    fn default() -> Self {
        Self::new()
    }
}

impl App for SwarmClient {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        for &fd in &self.conns {
            ctx.send(fd, Bytes::from_static(&CMD));
        }
    }

    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.conns.push(fd);
    }

    fn on_tcp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, data: &[Skb]) {
        let mut n = self.updates_received.borrow_mut();
        let mut b = self.bytes_received.borrow_mut();
        for skb in data {
            *n += 1;
            *b += skb.payload.len() as u64;
        }
    }

    fn on_conn_closed(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.conns.retain(|c| *c != fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_server_cpu_model_matches_paper_scale() {
        let z = ZoneServer::new();
        // 100 clients/zone initially → ≈3.65% per process → ≈78% per node
        // with 20 processes + 5% base, the Fig. 5e starting band.
        let share = z.cpu_base + z.cpu_per_client * 100.0;
        assert!((3.5..3.8).contains(&share), "per-process share {share}");
        let node = 5.0 + 20.0 * share;
        assert!((75.0..83.0).contains(&node), "initial node load {node}");
    }

    #[test]
    fn internal_frames_are_10ms() {
        assert_eq!(ZoneServer::new().tick_period_us(), 10_000);
    }
}
