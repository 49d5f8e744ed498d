//! The game server and client applications.

use bytes::Bytes;
use dvelm_cluster::{App, AppCtx};
use dvelm_net::SockAddr;
use dvelm_proc::Fd;
use dvelm_sim::{SimTime, MILLISECOND};
use dvelm_stack::udp::Datagram;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Default OpenArena server port.
pub const OA_PORT: u16 = 27960;
/// Snapshot payload size, bytes (256 B — the MMOG average the paper cites).
pub const SNAPSHOT_BYTES: usize = 256;
/// Client usercmd payload size, bytes.
pub const USERCMD_BYTES: usize = 48;

/// Payloads are fixed filler, so every round shares one static buffer.
static SNAPSHOT: [u8; SNAPSHOT_BYTES] = [0xA5; SNAPSHOT_BYTES];
static USERCMD: [u8; USERCMD_BYTES] = [0x11; USERCMD_BYTES];

/// The game server: one UDP socket for all clients (Quake III style), a
/// 10 ms internal frame loop, snapshots to every known client every 50 ms.
pub struct OaServer {
    fd: Option<Fd>,
    /// Clients learned from their usercmds.
    clients: BTreeSet<SockAddr>,
    /// Next snapshot round is due at this instant (time-based, like the
    /// engine's `nextSnapshotTime`): a freeze visibly *shifts* the cadence
    /// instead of silently rephasing it.
    next_snapshot_at: SimTime,
    /// Pages dirtied per 10 ms frame (world state, entity snapshots ring,
    /// etc.). Calibrated so the final 20 ms precopy window leaves ≈2 MB of
    /// dirty memory → ≈20 ms freeze, matching §VI-B.
    pub dirty_pages_per_frame: usize,
    /// Usercmds received (statistic).
    pub usercmds: Rc<RefCell<u64>>,
}

/// Snapshot interval: 20 updates per second (the engine default).
pub const SNAPSHOT_INTERVAL_US: u64 = 50 * MILLISECOND;

impl OaServer {
    /// A server with the calibrated default dirty rate.
    pub fn new(usercmds: Rc<RefCell<u64>>) -> OaServer {
        OaServer {
            fd: None,
            clients: BTreeSet::new(),
            next_snapshot_at: SimTime::ZERO,
            dirty_pages_per_frame: 400,
            usercmds,
        }
    }
}

impl App for OaServer {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.fd.is_none() {
            self.fd = ctx.socket_fds().first().copied();
        }
        ctx.touch_memory(self.dirty_pages_per_frame);
        ctx.set_cpu_share(10.0 + self.clients.len() as f64 * 0.8);
        // Time-based snapshots at 20 updates/s: an overdue round (e.g. after
        // a migration freeze) fires on the first frame back.
        if ctx.now >= self.next_snapshot_at {
            self.next_snapshot_at = ctx.now + SNAPSHOT_INTERVAL_US;
            if let Some(fd) = self.fd {
                for &c in &self.clients {
                    ctx.send_udp_to(fd, c, Bytes::from_static(&SNAPSHOT));
                }
            }
        }
    }

    fn on_udp_data(&mut self, ctx: &mut AppCtx<'_>, _fd: Fd, dgrams: &[Datagram]) {
        for d in dgrams {
            self.clients.insert(d.from);
            *self.usercmds.borrow_mut() += 1;
        }
        ctx.touch_memory(1);
    }

    fn tick_period_us(&self) -> u64 {
        10 * MILLISECOND
    }
}

/// One game client: sends a usercmd every 50 ms, records snapshot arrival
/// times.
pub struct OaClient {
    fd: Option<Fd>,
    server: SockAddr,
    /// Arrival instants of received snapshots.
    pub arrivals: Rc<RefCell<Vec<SimTime>>>,
}

impl OaClient {
    /// A client of `server`.
    pub fn new(server: SockAddr, arrivals: Rc<RefCell<Vec<SimTime>>>) -> OaClient {
        OaClient {
            fd: None,
            server,
            arrivals,
        }
    }
}

impl App for OaClient {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.fd.is_none() {
            self.fd = ctx.socket_fds().first().copied();
        }
        if let Some(fd) = self.fd {
            ctx.send_udp_to(fd, self.server, Bytes::from_static(&USERCMD));
        }
    }

    fn on_udp_data(&mut self, ctx: &mut AppCtx<'_>, _fd: Fd, dgrams: &[Datagram]) {
        let mut arr = self.arrivals.borrow_mut();
        for _ in dgrams {
            arr.push(ctx.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_constants_match_quake_defaults() {
        let s = OaServer::new(Rc::new(RefCell::new(0)));
        // 10 ms frames; time-based snapshots at 20/s.
        assert_eq!(s.tick_period_us(), 10_000);
        assert_eq!(s.clients.len(), 0);
        assert_eq!(SNAPSHOT_BYTES, 256);
    }
}
