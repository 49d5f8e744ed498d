//! The application trait: what runs inside a zone-server (or client, or
//! database) process.
//!
//! An application's observable behaviour flows through its process's sockets
//! and memory, which is exactly what migration must preserve: the runtime
//! moves the `Box<dyn App>` together with the restored
//! [`Process`], while the migration engine ships the
//! process image and sockets — so a migration bug loses or duplicates real
//! application bytes in tests.

use bytes::Bytes;
use dvelm_net::SockAddr;
use dvelm_proc::{Fd, FdEntry, Pid, Process};
use dvelm_sim::{DetRng, SimTime};
use dvelm_stack::udp::Datagram;
use dvelm_stack::{HostStack, Skb, StackEffect};

/// World access handed to application callbacks.
pub struct AppCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The application's process id.
    pub pid: Pid,
    /// Deterministic randomness for the app.
    pub rng: &'a mut DetRng,
    pub(crate) proc: &'a mut Process,
    pub(crate) stack: &'a mut HostStack,
    pub(crate) effects: &'a mut Vec<StackEffect>,
}

impl AppCtx<'_> {
    /// Send stream data (TCP) or a datagram to the connected peer (UDP).
    pub fn send(&mut self, fd: Fd, data: Bytes) {
        let sid = self.sock_of(fd).expect("send on unknown fd");
        let fx = self.stack.send(sid, data, self.now);
        self.effects.extend(fx);
    }

    /// Send a UDP datagram to an explicit destination.
    pub fn send_udp_to(&mut self, fd: Fd, dst: SockAddr, data: Bytes) {
        let sid = self.sock_of(fd).expect("send on unknown fd");
        let fx = self.stack.udp_send_to(sid, dst, data, self.now);
        self.effects.extend(fx);
    }

    /// Dirty `pages` random pages of the process address space (the memory
    /// side of one slice of application work — what the precopy loop
    /// chases). The writes are logged and made when the address space
    /// settles: when its log fills, at the next precopy step or checkpoint,
    /// or before any other change to it. [`rng`](Self::rng) moves past
    /// their draws now, so later draws are the same as if they ran at once.
    pub fn touch_memory(&mut self, pages: usize) {
        self.proc.do_work(self.rng, pages);
    }

    /// Declare this process's current CPU consumption (percent of one core)
    /// — what `atop` would attribute to it, feeding the selection policy.
    pub fn set_cpu_share(&mut self, pct: f64) {
        self.proc.cpu_share = pct;
    }

    /// All socket descriptors of this process, in fd order.
    pub fn socket_fds(&self) -> Vec<Fd> {
        self.proc.fds.sockets().map(|(fd, _)| fd).collect()
    }

    /// The socket behind a descriptor.
    pub fn sock_of(&self, fd: Fd) -> Option<dvelm_stack::SockId> {
        match self.proc.fds.get(fd)? {
            FdEntry::Socket(s) => Some(*s),
            FdEntry::File { .. } => None,
        }
    }

    /// The local address of the socket behind `fd`.
    pub fn local_addr(&self, fd: Fd) -> Option<SockAddr> {
        let sid = self.sock_of(fd)?;
        self.stack.sock(sid).map(|s| s.local())
    }

    /// The peer address of the socket behind `fd`.
    pub fn peer_addr(&self, fd: Fd) -> Option<SockAddr> {
        let sid = self.sock_of(fd)?;
        self.stack.sock(sid).and_then(|s| s.remote())
    }
}

/// An application running inside a simulated process.
pub trait App {
    /// One iteration of the real-time loop (scheduled every
    /// [`tick_period_us`](App::tick_period_us)).
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>);

    /// Stream data arrived on a TCP socket.
    fn on_tcp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, _data: &[Skb]) {}

    /// Datagrams arrived on a UDP socket.
    fn on_udp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, _dgrams: &[Datagram]) {}

    /// A listener accepted a connection (`child` is already in the fd
    /// table).
    fn on_new_connection(&mut self, _ctx: &mut AppCtx<'_>, _listener: Fd, _child: Fd) {}

    /// An active open completed.
    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd) {}

    /// The peer closed the connection.
    fn on_conn_closed(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd) {}

    /// Real-time loop period, µs (default: the Quake III 20 Hz loop).
    fn tick_period_us(&self) -> u64 {
        50_000
    }
}
