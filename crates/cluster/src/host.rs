//! One simulated machine: stack + processes + (on server nodes) a conductor.

use crate::app::App;
use dvelm_lb::{Conductor, LoadMonitor};
use dvelm_proc::{Fd, Pid, Process};
use dvelm_stack::{HostStack, SockId, SockTable, SockTimers};
use std::collections::BTreeMap;

/// What role a host plays in the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// DVE server node: public (shared IP) + local interface, runs zone
    /// servers, a conductor, migd and transd.
    Server,
    /// Client host on the WAN side of the router.
    Client,
    /// Database server on the local network only.
    Database,
}

/// A process together with its application. While the process's threads
/// are frozen (a migration's freeze phase) the application neither ticks
/// nor reads.
pub struct ProcEntry {
    pub process: Process,
    pub app: Box<dyn App>,
    /// Real-time loop period, µs.
    pub tick_period_us: u64,
    /// Generation of the live tick chain; `Event::AppTick` events stamped
    /// with an older generation are stale and dropped.
    pub tick_gen: u64,
}

/// One simulated machine.
pub struct Host {
    pub kind: HostKind,
    /// False once the host crashed ([`World::crash_node`]): events targeting
    /// it are discarded and it no longer appears on the fabric.
    ///
    /// [`World::crash_node`]: crate::World::crash_node
    pub alive: bool,
    pub stack: HostStack,
    pub procs: BTreeMap<Pid, ProcEntry>,
    pub conductor: Option<Conductor>,
    /// Which process+fd owns each socket (for effect dispatch).
    pub sock_owner: SockTable<(Pid, Fd)>,
    /// The sockets' retransmission timers: one pending fire each.
    pub timers: SockTimers,
    /// Base (OS + services) CPU load, percent.
    pub base_cpu: f64,
    /// EWMA smoother over CPU samples (the atop-style indicator the
    /// conductor reads).
    pub load_monitor: LoadMonitor,
}

impl Host {
    /// A host around a stack.
    pub fn new(kind: HostKind, stack: HostStack) -> Host {
        Host {
            kind,
            alive: true,
            stack,
            procs: BTreeMap::new(),
            conductor: None,
            sock_owner: SockTable::new(),
            timers: SockTimers::new(),
            base_cpu: 5.0,
            load_monitor: LoadMonitor::default(),
        }
    }

    /// Total CPU consumption of this host, percent (capped at 100).
    pub fn cpu_pct(&self) -> f64 {
        let procs: f64 = self.procs.values().map(|p| p.process.cpu_share).sum();
        (self.base_cpu + procs).min(100.0)
    }

    /// Pids hosted here, sorted (deterministic iteration).
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.procs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// (pid, cpu share) list for the selection policy.
    pub fn proc_loads(&self) -> Vec<(Pid, f64)> {
        let mut v: Vec<(Pid, f64)> = self
            .procs
            .iter()
            .map(|(pid, e)| (*pid, e.process.cpu_share))
            .collect();
        v.sort_by_key(|(pid, _)| *pid);
        v
    }

    /// Register a socket as owned by (pid, fd).
    pub fn register_sock(&mut self, sock: SockId, pid: Pid, fd: Fd) {
        self.sock_owner.insert(sock, (pid, fd));
    }

    /// Rebuild the socket-owner index for one process (after migration).
    pub fn reindex_proc_sockets(&mut self, pid: Pid) {
        if let Some(entry) = self.procs.get(&pid) {
            for (fd, sid) in entry.process.fds.sockets() {
                self.sock_owner.insert(sid, (pid, fd));
            }
        }
    }

    /// Drop index entries for sockets owned by `pid`.
    pub fn unindex_proc_sockets(&mut self, pid: Pid) {
        self.sock_owner.retain(|_, (p, _)| *p != pid);
    }
}
