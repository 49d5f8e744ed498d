//! The per-node host stack: socket table, ehash/bhash lookup, the
//! `LOCAL_IN` / `LOCAL_OUT` hooks, timers and the migration detach/install
//! operations.
//!
//! This is the "kernel" of a simulated node. All entry points are
//! deterministic state-machine steps that return [`StackEffect`]s for the
//! cluster runtime to schedule.

use crate::capture::{CaptureOutcome, CaptureTable, PressureEvent};
use crate::demux::{DemuxTable, FourTuple};
use crate::ports::PortClaims;
use crate::seg::{Segment, Transport};
use crate::skb::Skb;
use crate::socket::Socket;
use crate::socktable::SockTable;
use crate::tcp::{TcpCtx, TcpOut, TcpSocket};
use crate::udp::{Datagram, UdpSocket};
use crate::xlate::XlateTable;
use bytes::Bytes;
use dvelm_net::{Ip, NodeId, Port, SockAddr};
use dvelm_sim::{DetRng, Jiffies, SimTime};
use std::borrow::Cow;

/// A host-local socket identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockId(pub u64);

/// The lookup-table entry a socket lives under.
enum TableKey {
    /// `ehash`: a connected TCP socket.
    Established(FourTuple),
    /// `bhash`: a listener or a UDP socket.
    Bound(SockAddr),
}

impl TableKey {
    fn of(sock: &Socket) -> TableKey {
        match sock {
            Socket::Tcp(t) => match t.remote {
                Some(remote) => TableKey::Established(FourTuple {
                    local: t.local,
                    remote,
                }),
                None => TableKey::Bound(t.local),
            },
            Socket::Udp(u) => TableKey::Bound(u.local),
        }
    }
}

/// Effects a stack entry point hands back to the runtime.
#[derive(Debug)]
pub enum StackEffect {
    /// Transmit `seg`; physically deliver it to the host owning `route`
    /// (normally `seg.dst.ip`, different under a stale destination cache).
    Tx { seg: Segment, route: Ip },
    /// The socket's receive queue became non-empty.
    DataReadable { sock: SockId },
    /// An active open completed.
    Established { sock: SockId },
    /// A listener accepted a new connection.
    NewConnection { listener: SockId, child: SockId },
    /// The peer closed its direction.
    PeerFin { sock: SockId },
    /// The connection fully closed.
    SockClosed { sock: SockId },
    /// Arm (or re-arm) the retransmission timer: deliver
    /// `on_timer(sock, gen)` at `at`, unless a later arm of the same
    /// socket replaces this one first. The runtime keeps one pending fire
    /// per socket ([`SockTimers`](crate::SockTimers)).
    ArmTimer { sock: SockId, gen: u64, at: SimTime },
    /// The capture hook hit a queue's budget (§V-B): the runtime charges
    /// the incident to the migration that installed the capture entry.
    CapturePressure(PressureEvent),
}

/// Aggregate stack counters (per host).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Frames that reached this host's rx path.
    pub rx_total: u64,
    /// Frames stolen by the capture hook (migration in progress).
    pub rx_captured: u64,
    /// Frames dropped because no socket matched.
    pub rx_dropped_no_socket: u64,
    /// Frames dropped for an inconsistent transport checksum (§V-D).
    pub rx_dropped_bad_checksum: u64,
    /// Frames routed to this host whose header says another (stale
    /// destination-cache ablation, §V-D).
    pub rx_dropped_misrouted: u64,
    /// Packets the capture hook refused under budget pressure (treated as
    /// wire loss; TCP retransmission or UDP best-effort recovers).
    pub rx_capture_shed: u64,
    /// Captured packets re-submitted to the stack after restore.
    pub reinjected: u64,
    /// Segments transmitted by this host.
    pub tx_total: u64,
}

/// The simulated kernel network stack of one host.
#[derive(Debug)]
pub struct HostStack {
    /// The host this stack belongs to.
    pub node: NodeId,
    /// Address of the public (shared, broadcast) interface.
    pub public_ip: Ip,
    /// Address of the local (in-cluster) interface.
    pub local_ip: Ip,
    /// This node's jiffies boot offset (differs per node, §V-C1).
    pub jiffies_base: u64,
    /// Whether the capture hook runs on `LOCAL_IN` (default `true`, as in
    /// the prototype). Switching it off is the §V-B ablation: frames for a
    /// socket in transit are dropped instead of queued for reinjection.
    pub capture_hook: bool,
    /// Packet-capture table (loss prevention, §V-B).
    pub capture: CaptureTable,
    /// Address-translation table (in-cluster migration, §V-D).
    pub xlate: XlateTable,

    socks: SockTable<Socket>,
    ehash: DemuxTable<FourTuple, SockId>,
    bhash: DemuxTable<SockAddr, SockId>,
    /// The ports of every `bhash` entry and the local ports of every
    /// `ehash` entry: the sockets' part of the receive path's summary.
    ports: PortClaims,
    /// Children accepted by a listener but not yet established.
    pending_children: SockTable<SockId>,
    next_sock: u64,
    next_ephemeral: u16,
    stamp: u64,
    iss_rng: DetRng,
    stats: StackStats,
    /// Fault injection: the next this many
    /// [`try_install_socket`](Self::try_install_socket) calls fail.
    install_failures_armed: u32,
}

impl HostStack {
    /// A stack for `node` with the given interfaces and jiffies base.
    pub fn new(node: NodeId, public_ip: Ip, local_ip: Ip, jiffies_base: u64, seed: u64) -> Self {
        HostStack {
            node,
            public_ip,
            local_ip,
            jiffies_base,
            capture_hook: true,
            capture: CaptureTable::new(),
            xlate: XlateTable::new(),
            socks: SockTable::new(),
            ehash: DemuxTable::new(),
            bhash: DemuxTable::new(),
            ports: PortClaims::default(),
            pending_children: SockTable::new(),
            next_sock: 1,
            next_ephemeral: 32_768,
            stamp: 0,
            iss_rng: DetRng::new(seed ^ 0x5049_4c43_4f54_5350),
            stats: StackStats::default(),
            install_failures_armed: 0,
        }
    }

    /// A cluster server node: shared public IP + unique local IP.
    pub fn server_node(node: NodeId, jiffies_base: u64, seed: u64) -> Self {
        HostStack::new(
            node,
            Ip::CLUSTER_PUBLIC,
            Ip::local_of(node),
            jiffies_base,
            seed,
        )
    }

    /// A client host on the WAN side (single interface).
    pub fn client_host(node: NodeId, jiffies_base: u64, seed: u64) -> Self {
        let ip = Ip::client_of(node);
        HostStack::new(node, ip, ip, jiffies_base, seed)
    }

    /// This node's jiffies at `now`.
    pub fn jiffies(&self, now: SimTime) -> Jiffies {
        Jiffies::at(self.jiffies_base, now)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Number of sockets on this host.
    pub fn socket_count(&self) -> usize {
        self.socks.len()
    }

    /// All socket ids (sorted, deterministic).
    pub fn socket_ids(&self) -> Vec<SockId> {
        self.socks.ids().collect()
    }

    /// Shared access to a socket.
    pub fn sock(&self, sid: SockId) -> Option<&Socket> {
        self.socks.get(sid)
    }

    /// Whether a (ip, port) pair is bound on this host.
    pub fn is_bound(&self, ip: Ip, port: Port) -> bool {
        self.bhash.contains_key(&SockAddr { ip, port })
    }

    /// A `netstat`-style dump of every socket on this host, one line each,
    /// sorted by socket id — for debugging and operator-facing examples.
    pub fn netstat(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6}{:<6}{:<24}{:<24}{:<14}{}\n",
            "sock", "proto", "local", "remote", "state", "queues(w/r/o)"
        ));
        for (sid, sock) in self.socks.iter() {
            let (proto, remote, state, queues) = match sock {
                Socket::Tcp(t) => {
                    let q = t.queue_lens();
                    (
                        "tcp",
                        t.remote
                            .map(|r| r.to_string())
                            .unwrap_or_else(|| "*".into()),
                        format!("{:?}", t.state),
                        format!("{}/{}/{}", q.0, q.1, q.2),
                    )
                }
                Socket::Udp(u) => (
                    "udp",
                    u.remote
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "*".into()),
                    "-".to_string(),
                    format!("-/{}/-", u.queued()),
                ),
            };
            out.push_str(&format!(
                "{:<6}{:<6}{:<24}{:<24}{:<14}{}\n",
                sid.0,
                proto,
                sock.local().to_string(),
                remote,
                state,
                queues
            ));
        }
        out
    }

    /// Whether the established table has an entry for this 4-tuple.
    pub fn has_established(&self, local: SockAddr, remote: SockAddr) -> bool {
        self.ehash.contains_key(&FourTuple { local, remote })
    }

    fn alloc_sid(&mut self) -> SockId {
        let sid = SockId(self.next_sock);
        self.next_sock += 1;
        sid
    }

    fn ephemeral_port(&mut self) -> Port {
        loop {
            let p = Port(self.next_ephemeral);
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(32_768);
            if !self.bhash.contains_key(&SockAddr::new(self.public_ip, p.0))
                && !self.bhash.contains_key(&SockAddr::new(self.local_ip, p.0))
            {
                return p;
            }
        }
    }

    // ------------------------------------------------------------------
    // socket creation
    // ------------------------------------------------------------------

    /// Create a TCP listening socket bound to `addr`.
    pub fn tcp_listen(&mut self, addr: SockAddr) -> Result<SockId, BindError> {
        if self.bhash.contains_key(&addr) {
            return Err(BindError::AddrInUse(addr));
        }
        let sid = self.alloc_sid();
        self.socks.insert(sid, Socket::Tcp(TcpSocket::listen(addr)));
        self.hash_bound(addr, sid);
        Ok(sid)
    }

    /// Active-open a TCP connection from an explicit local endpoint.
    pub fn tcp_connect(
        &mut self,
        local: SockAddr,
        remote: SockAddr,
        now: SimTime,
    ) -> (SockId, Vec<StackEffect>) {
        let iss = self.iss_rng.next_u64() as u32;
        let jiffies = self.jiffies(now);
        let mut ctx = TcpCtx {
            now,
            jiffies,
            stamp: &mut self.stamp,
        };
        let (sock, outs) = TcpSocket::connect(local, remote, iss, &mut ctx);
        let sid = self.alloc_sid();
        let gen = sock.timer_gen;
        self.hash_established(FourTuple { local, remote }, sid);
        self.socks.insert(sid, Socket::Tcp(sock));
        let fx = self.map_tcp_outs(sid, gen, outs, now);
        (sid, fx)
    }

    /// Active-open from this host's local interface with an ephemeral port
    /// (in-cluster connections, e.g. zone server → database).
    pub fn tcp_connect_local(
        &mut self,
        remote: SockAddr,
        now: SimTime,
    ) -> (SockId, Vec<StackEffect>) {
        let port = self.ephemeral_port();
        let local = SockAddr {
            ip: self.local_ip,
            port,
        };
        self.tcp_connect(local, remote, now)
    }

    /// Active-open from this host's public interface with an ephemeral port
    /// (clients connecting to the cluster).
    pub fn tcp_connect_public(
        &mut self,
        remote: SockAddr,
        now: SimTime,
    ) -> (SockId, Vec<StackEffect>) {
        let port = self.ephemeral_port();
        let local = SockAddr {
            ip: self.public_ip,
            port,
        };
        self.tcp_connect(local, remote, now)
    }

    /// Bind a UDP socket.
    pub fn udp_bind(&mut self, addr: SockAddr) -> Result<SockId, BindError> {
        if self.bhash.contains_key(&addr) {
            return Err(BindError::AddrInUse(addr));
        }
        let sid = self.alloc_sid();
        self.socks.insert(sid, Socket::Udp(UdpSocket::bind(addr)));
        self.hash_bound(addr, sid);
        Ok(sid)
    }

    /// Bind a UDP socket on the public interface with an ephemeral port.
    pub fn udp_bind_ephemeral(&mut self) -> SockId {
        loop {
            let port = self.ephemeral_port();
            let addr = SockAddr {
                ip: self.public_ip,
                port,
            };
            if let Ok(sid) = self.udp_bind(addr) {
                return sid;
            }
        }
    }

    /// Set the default peer of a UDP socket.
    pub fn udp_connect(&mut self, sid: SockId, remote: SockAddr) {
        if let Some(sock) = self.socks.get_mut(sid) {
            sock.udp_mut().connect(remote);
        }
    }

    // ------------------------------------------------------------------
    // data plane
    // ------------------------------------------------------------------

    /// Send on a connected socket (TCP stream data or UDP to the default
    /// peer).
    pub fn send(&mut self, sid: SockId, data: Bytes, now: SimTime) -> Vec<StackEffect> {
        match self.socks.get_mut(sid) {
            Some(Socket::Tcp(_)) => match self.with_tcp(sid, now, |t, ctx| t.send(data, ctx)) {
                Some((outs, gen)) => self.map_tcp_outs(sid, gen, outs, now),
                None => Vec::new(),
            },
            Some(Socket::Udp(u)) => match u.send(data) {
                Some(seg) => vec![self.route_out(seg, now)],
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Send a UDP datagram to an explicit destination.
    pub fn udp_send_to(
        &mut self,
        sid: SockId,
        dst: SockAddr,
        data: Bytes,
        now: SimTime,
    ) -> Vec<StackEffect> {
        let Some(sock) = self.socks.get(sid) else {
            return Vec::new();
        };
        let seg = sock.udp().send_to(dst, data);
        vec![self.route_out(seg, now)]
    }

    /// Read buffered TCP stream data.
    pub fn read_tcp(&mut self, sid: SockId, now: SimTime) -> Vec<Skb> {
        self.with_tcp(sid, now, |t, ctx| t.read(ctx))
            .map(|(skbs, _)| skbs)
            .unwrap_or_default()
    }

    /// Read buffered UDP datagrams.
    pub fn read_udp(&mut self, sid: SockId) -> Vec<Datagram> {
        match self.socks.get_mut(sid) {
            Some(Socket::Udp(u)) => u.read(&mut self.stamp),
            _ => Vec::new(),
        }
    }

    /// Close a TCP connection (graceful FIN) or release a UDP socket.
    pub fn close(&mut self, sid: SockId, now: SimTime) -> Vec<StackEffect> {
        match self.socks.get(sid) {
            Some(Socket::Tcp(_)) => match self.with_tcp(sid, now, |t, ctx| t.close(ctx)) {
                Some((outs, gen)) => self.map_tcp_outs(sid, gen, outs, now),
                None => Vec::new(),
            },
            Some(Socket::Udp(_)) => {
                self.release(sid);
                vec![StackEffect::SockClosed { sock: sid }]
            }
            None => Vec::new(),
        }
    }

    /// Remove a socket and all its table entries (final cleanup).
    pub fn release(&mut self, sid: SockId) -> Option<Socket> {
        let sock = self.socks.remove(sid)?;
        self.unhash(TableKey::of(&sock));
        self.pending_children.remove(sid);
        Some(sock)
    }

    fn hash(&mut self, sock: &Socket, sid: SockId) {
        match TableKey::of(sock) {
            TableKey::Established(tuple) => self.hash_established(tuple, sid),
            TableKey::Bound(local) => self.hash_bound(local, sid),
        }
    }

    fn unhash(&mut self, key: TableKey) {
        match key {
            TableKey::Established(tuple) => {
                if self.ehash.remove(&tuple).is_some() {
                    self.ports.remove(tuple.local.port);
                }
            }
            TableKey::Bound(local) => {
                if self.bhash.remove(&local).is_some() {
                    self.ports.remove(local.port);
                }
            }
        }
    }

    /// Insert into `bhash`, keeping the port summary in step.
    fn hash_bound(&mut self, local: SockAddr, sid: SockId) {
        if self.bhash.insert(local, sid).is_none() {
            self.ports.add(local.port);
        }
    }

    /// Insert into `ehash`, keeping the port summary in step.
    fn hash_established(&mut self, tuple: FourTuple, sid: SockId) {
        if self.ehash.insert(tuple, sid).is_none() {
            self.ports.add(tuple.local.port);
        }
    }

    // ------------------------------------------------------------------
    // receive path
    // ------------------------------------------------------------------

    /// A frame arrived on either interface: run the `LOCAL_IN` hooks, then
    /// deliver to a socket.
    #[inline]
    pub fn on_rx(&mut self, seg: Segment, now: SimTime) -> Vec<StackEffect> {
        if self.drop_unclaimed(&seg) {
            return Vec::new();
        }
        self.receive_owned(seg, now)
    }

    /// [`on_rx`](Self::on_rx) for a frame the caller keeps — one copy of a
    /// broadcast shared by every node. The frame is copied only if this
    /// host keeps it (captured, rewritten by a translation rule, or handed
    /// to a matching socket), so dropping a copy it does not own allocates
    /// nothing.
    #[inline]
    pub fn on_rx_ref(&mut self, seg: &Segment, now: SimTime) -> Vec<StackEffect> {
        if self.drop_unclaimed(seg) {
            return Vec::new();
        }
        self.receive_borrowed(seg, now)
    }

    /// The first step of the receive path: count the arrival, then drop a
    /// frame no table can keep — one addressed to this host whose port no
    /// socket, capture entry or translation rule claims. Every hook would
    /// pass it untouched and no socket would take it, so it gets exactly
    /// the counters the full path would give it. Returns whether it
    /// dropped the frame.
    ///
    /// Small and inlined into both entry points, so on a ONE-IP broadcast
    /// the 63 of 64 copies no node keeps cost the caller's fan-out loop a
    /// few loads and no call.
    #[inline(always)]
    fn drop_unclaimed(&mut self, seg: &Segment) -> bool {
        self.stats.rx_total += 1;
        if self.may_keep(seg) {
            return false;
        }
        if cfg!(debug_assertions) {
            self.audit_unclaimed(seg);
        }
        if seg.checksum_ok {
            self.stats.rx_dropped_no_socket += 1;
        } else {
            self.stats.rx_dropped_bad_checksum += 1;
        }
        true
    }

    /// The rest of the receive path for an owned frame. Kept out of line
    /// so the entry points stay small enough to inline.
    #[inline(never)]
    fn receive_owned(&mut self, seg: Segment, now: SimTime) -> Vec<StackEffect> {
        self.receive(Cow::Owned(seg), now)
    }

    /// The rest of the receive path for a borrowed frame.
    #[inline(never)]
    fn receive_borrowed(&mut self, seg: &Segment, now: SimTime) -> Vec<StackEffect> {
        self.receive(Cow::Borrowed(seg), now)
    }

    /// The receive path after [`drop_unclaimed`](Self::drop_unclaimed):
    /// the `LOCAL_IN` hooks, the checksum check and delivery. The hooks run
    /// in the prototype's fixed order: translation first, so capture
    /// matches a translated segment by its rewritten addresses (§V-B,
    /// §V-D). A budget incident comes back as
    /// [`StackEffect::CapturePressure`]. Inlined into
    /// [`receive_owned`](Self::receive_owned) and
    /// [`receive_borrowed`](Self::receive_borrowed) so every copy knows
    /// whether it holds an owned or a borrowed frame: the owned path then
    /// moves the frame as before, and the borrowed one copies it only where
    /// it is kept.
    #[inline(always)]
    fn receive(&mut self, mut seg: Cow<'_, Segment>, now: SimTime) -> Vec<StackEffect> {
        self.xlate.incoming_at(&mut seg, now);
        if self.capture_hook {
            match self.capture.capture(&seg) {
                CaptureOutcome::NotMatched => {}
                CaptureOutcome::Captured | CaptureOutcome::Duplicate => {
                    self.stats.rx_captured += 1;
                    return Vec::new();
                }
                CaptureOutcome::CapturedShedOldest(event) => {
                    self.stats.rx_captured += 1;
                    return vec![StackEffect::CapturePressure(event)];
                }
                CaptureOutcome::RefusedRecoverable(event)
                | CaptureOutcome::HardFailRefused(event) => {
                    // Budget refusal: the hook drops the packet as wire
                    // loss. A hard-fail incident obliges the runtime to
                    // abort the migration owning this capture.
                    self.stats.rx_capture_shed += 1;
                    return vec![StackEffect::CapturePressure(event)];
                }
            }
        }
        if !seg.checksum_ok {
            self.stats.rx_dropped_bad_checksum += 1;
            return Vec::new();
        }
        self.deliver(seg, now)
    }

    /// Whether some table could keep `seg`: it is addressed elsewhere (a
    /// translated or misrouted frame, left to the full path), or its
    /// destination port is claimed by a socket, a capture entry or a
    /// translation rule.
    #[inline(always)]
    fn may_keep(&self, seg: &Segment) -> bool {
        let port = seg.dst.port;
        (seg.dst.ip != self.public_ip && seg.dst.ip != self.local_ip)
            || self.ports.claims(port)
            || self.capture.claims_port(port)
            || self.xlate.claims_port(port)
    }

    /// Debug-build audit of a frame [`may_keep`](Self::may_keep) dropped:
    /// the full lookups the receive path would have made must all miss.
    /// A hit means a table's port summary fell out of step with it.
    fn audit_unclaimed(&self, seg: &Segment) {
        let tuple = FourTuple {
            local: seg.dst,
            remote: seg.src,
        };
        let claimant = if self.bhash.contains_key(&seg.dst) {
            Some("bhash")
        } else if self.ehash.contains_key(&tuple) {
            Some("ehash")
        } else if self.capture.matches(seg) {
            Some("a capture entry")
        } else if self.xlate.rewrites_incoming(seg) {
            Some("a translation rule")
        } else {
            None
        };
        debug_assert!(
            claimant.is_none(),
            "{}: the port summary dropped a frame {} claims: {seg:?}",
            self.node,
            claimant.unwrap_or_default()
        );
    }

    /// Re-submit a previously captured segment to the stack, bypassing the
    /// `LOCAL_IN` hooks — the `okfn()` path of §V-B.
    pub fn reinject(&mut self, seg: Segment, now: SimTime) -> Vec<StackEffect> {
        self.stats.reinjected += 1;
        self.deliver(Cow::Owned(seg), now)
    }

    #[inline(always)]
    fn deliver(&mut self, seg: Cow<'_, Segment>, now: SimTime) -> Vec<StackEffect> {
        if seg.dst.ip != self.public_ip
            && seg.dst.ip != self.local_ip
            && !self.xlate.owns_virtual(seg.dst.ip)
        {
            // Header addressed elsewhere (e.g. stale destination cache sent
            // it here): not ours.
            self.stats.rx_dropped_misrouted += 1;
            return Vec::new();
        }
        match seg.transport {
            Transport::Tcp { flags, .. } => {
                let ft = FourTuple {
                    local: seg.dst,
                    remote: seg.src,
                };
                if let Some(sid) = self.ehash.get(&ft) {
                    let seg = seg.into_owned();
                    return match self.with_tcp(sid, now, |t, ctx| t.on_segment(seg, ctx)) {
                        Some((outs, gen)) => self.map_tcp_outs(sid, gen, outs, now),
                        None => Vec::new(),
                    };
                }
                if flags.syn && !flags.ack {
                    if let Some(lid) = self.bhash.get(&seg.dst) {
                        if self.socks.get(lid).is_some_and(Socket::is_listener) {
                            return self.accept_syn(lid, &seg, now);
                        }
                    }
                }
                // Broadcast configuration: nodes that do not own the port
                // silently ignore the copy — no RST.
                self.stats.rx_dropped_no_socket += 1;
                Vec::new()
            }
            Transport::Udp { .. } => {
                if let Some(sid) = self.bhash.get(&seg.dst) {
                    if let Some(Socket::Udp(u)) = self.socks.get_mut(sid) {
                        let jiffies = Jiffies::at(self.jiffies_base, now);
                        let seg = seg.into_owned();
                        let notify = u.on_datagram(seg, now, jiffies, &mut self.stamp);
                        return if notify {
                            vec![StackEffect::DataReadable { sock: sid }]
                        } else {
                            Vec::new()
                        };
                    }
                }
                self.stats.rx_dropped_no_socket += 1;
                Vec::new()
            }
        }
    }

    fn accept_syn(&mut self, lid: SockId, seg: &Segment, now: SimTime) -> Vec<StackEffect> {
        let Transport::Tcp { seq, ts_val, .. } = seg.transport else {
            debug_assert!(false, "accept_syn called with non-TCP segment");
            return Vec::new();
        };
        let iss = self.iss_rng.next_u64() as u32;
        let jiffies = self.jiffies(now);
        let mut ctx = TcpCtx {
            now,
            jiffies,
            stamp: &mut self.stamp,
        };
        let (child, outs) = TcpSocket::passive_open(seg.dst, seg.src, seq, ts_val, iss, &mut ctx);
        let gen = child.timer_gen;
        let sid = self.alloc_sid();
        self.hash_established(
            FourTuple {
                local: seg.dst,
                remote: seg.src,
            },
            sid,
        );
        self.socks.insert(sid, Socket::Tcp(child));
        self.pending_children.insert(sid, lid);
        self.map_tcp_outs(sid, gen, outs, now)
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// The socket's retransmission timer expired: the one pending fire the
    /// runtime keeps per socket ([`SockTimers`]) reached the latest arm,
    /// which carried `gen`. The RTO runs only if the socket still exists,
    /// `gen` is still its generation and its deadline has come. A timer
    /// cleared since that arm (acknowledged, closed, detached) has moved
    /// the generation on, so cancelling needs no event of its own.
    ///
    /// [`SockTimers`]: crate::SockTimers
    pub fn on_timer(&mut self, sid: SockId, gen: u64, now: SimTime) -> Vec<StackEffect> {
        let Some(Socket::Tcp(t)) = self.socks.get(sid) else {
            return Vec::new();
        };
        if t.timer_gen != gen {
            return Vec::new();
        }
        match t.timer_deadline() {
            Some(d) if d <= now => {}
            _ => return Vec::new(),
        }
        match self.with_tcp(sid, now, |t, ctx| t.on_rto(ctx)) {
            Some((outs, gen)) => self.map_tcp_outs(sid, gen, outs, now),
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // migration support
    // ------------------------------------------------------------------

    /// "Disable" a socket for migration: unhash from ehash/bhash, clear its
    /// retransmission timer and take it out of the socket table (§V-C1).
    pub fn detach_socket(&mut self, sid: SockId) -> Option<Socket> {
        let mut sock = self.socks.remove(sid)?;
        self.unhash(TableKey::of(&sock));
        if let Socket::Tcp(t) = &mut sock {
            t.quiesce_for_migration();
        }
        self.pending_children.remove(sid);
        Some(sock)
    }

    /// Install a (migrated) socket: insert into the socket table, rehash into
    /// ehash/bhash and restart the retransmission timer (§V-C1).
    pub fn install_socket(&mut self, sock: Socket, now: SimTime) -> (SockId, Vec<StackEffect>) {
        let sid = self.alloc_sid();
        self.hash(&sock, sid);
        self.socks.insert(sid, sock);
        let restart = self.with_tcp(sid, now, |t, ctx| t.restart_timer_after_restore(ctx));
        let fx = match restart {
            Some((outs, gen)) => self.map_tcp_outs(sid, gen, outs, now),
            None => Vec::new(),
        };
        (sid, fx)
    }

    /// Fallible [`install_socket`](Self::install_socket): while armed
    /// failures remain the socket is handed back untouched (nothing was
    /// hashed, no timer armed). The infallible `install_socket` ignores
    /// arming, so existing callers are unaffected.
    #[allow(clippy::result_large_err)] // the Err *is* the unconsumed socket
    pub fn try_install_socket(
        &mut self,
        sock: Socket,
        now: SimTime,
    ) -> Result<(SockId, Vec<StackEffect>), Socket> {
        if self.install_failures_armed > 0 {
            self.install_failures_armed -= 1;
            return Err(sock);
        }
        Ok(self.install_socket(sock, now))
    }

    /// Fault injection: make the next `n`
    /// [`try_install_socket`](Self::try_install_socket) calls fail.
    pub fn arm_install_failures(&mut self, n: u32) {
        self.install_failures_armed = n;
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Run `f` on a TCP socket with a fresh context; returns the result and
    /// the socket's post-call timer generation.
    fn with_tcp<R>(
        &mut self,
        sid: SockId,
        now: SimTime,
        f: impl FnOnce(&mut TcpSocket, &mut TcpCtx<'_>) -> R,
    ) -> Option<(R, u64)> {
        let jiffies = Jiffies::at(self.jiffies_base, now);
        let Some(Socket::Tcp(t)) = self.socks.get_mut(sid) else {
            return None;
        };
        let mut ctx = TcpCtx {
            now,
            jiffies,
            stamp: &mut self.stamp,
        };
        let r = f(t, &mut ctx);
        let gen = t.timer_gen;
        Some((r, gen))
    }

    /// Run the `LOCAL_OUT` hook (translation alone) and produce the
    /// transmit effect. The clock is threaded through so a matched
    /// translation rule refreshes its `last_hit` — outbound-only flows must
    /// keep their rule alive under TTL GC just like inbound ones.
    fn route_out(&mut self, mut seg: Segment, now: SimTime) -> StackEffect {
        let route = self.xlate.outgoing_at(&mut seg, now);
        self.stats.tx_total += 1;
        StackEffect::Tx { seg, route }
    }

    /// Turn a socket's outputs into effects. `gen` is the socket's timer
    /// generation after the call; every `ArmTimer` carries it, so the
    /// runtime can hand it back to [`on_timer`](Self::on_timer) when the
    /// socket's one pending fire reaches that arm.
    fn map_tcp_outs(
        &mut self,
        sid: SockId,
        gen: u64,
        outs: Vec<TcpOut>,
        now: SimTime,
    ) -> Vec<StackEffect> {
        let mut fx = Vec::with_capacity(outs.len());
        for out in outs {
            match out {
                TcpOut::Tx(seg) => fx.push(self.route_out(seg, now)),
                TcpOut::DataReadable => fx.push(StackEffect::DataReadable { sock: sid }),
                TcpOut::Established => {
                    if let Some(listener) = self.pending_children.remove(sid) {
                        fx.push(StackEffect::NewConnection {
                            listener,
                            child: sid,
                        });
                    } else {
                        fx.push(StackEffect::Established { sock: sid });
                    }
                }
                TcpOut::PeerFin => fx.push(StackEffect::PeerFin { sock: sid }),
                TcpOut::ArmTimer(at) => fx.push(StackEffect::ArmTimer { sock: sid, gen, at }),
                TcpOut::Closed => {
                    // Unhash so the 4-tuple becomes reusable; the struct
                    // stays readable until release().
                    if let Some(key) = self.socks.get(sid).map(TableKey::of) {
                        self.unhash(key);
                    }
                    fx.push(StackEffect::SockClosed { sock: sid });
                }
                TcpOut::SpawnChild(_) => {
                    debug_assert!(
                        false,
                        "passive opens are performed by the host, not the socket"
                    );
                }
            }
        }
        fx
    }
}

/// Binding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The (ip, port) pair is already bound on this host.
    AddrInUse(SockAddr),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::AddrInUse(a) => write!(f, "address in use: {a}"),
        }
    }
}

impl std::error::Error for BindError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpState;

    const T0: SimTime = SimTime::ZERO;

    /// Two-host harness that shuttles Tx effects between stacks by route IP.
    struct Net {
        hosts: Vec<HostStack>,
        /// Collected non-Tx effects per host, for assertions.
        events: Vec<Vec<String>>,
    }

    impl Net {
        fn new(hosts: Vec<HostStack>) -> Net {
            let n = hosts.len();
            Net {
                hosts,
                events: vec![Vec::new(); n],
            }
        }

        fn host_by_ip(&mut self, ip: Ip) -> Option<usize> {
            self.hosts
                .iter()
                .position(|h| h.public_ip == ip || h.local_ip == ip)
        }

        /// Process effects, delivering Tx frames instantly (zero latency) and
        /// recording everything else. Loops until quiescent.
        fn pump(&mut self, from: usize, fx: Vec<StackEffect>, now: SimTime) {
            let mut queue: Vec<(usize, StackEffect)> = fx.into_iter().map(|e| (from, e)).collect();
            while let Some((origin, effect)) = queue.pop() {
                match effect {
                    StackEffect::Tx { seg, route } => {
                        if let Some(target) = self.host_by_ip(route) {
                            let fx = self.hosts[target].on_rx(seg, now);
                            queue.extend(fx.into_iter().map(|e| (target, e)));
                        }
                        // Frames routed to unknown IPs vanish (stale cache).
                    }
                    other => self.events[origin].push(format!("{other:?}")),
                }
            }
        }
    }

    fn two_cluster_nodes() -> Net {
        Net::new(vec![
            HostStack::server_node(NodeId(0), 1_000, 1),
            HostStack::server_node(NodeId(1), 2_000_000, 2),
        ])
    }

    fn establish(net: &mut Net, server: usize, client: usize, port: u16) -> (SockId, SockId) {
        let saddr = SockAddr::new(net.hosts[server].local_ip, port);
        let lid = net.hosts[server].tcp_listen(saddr).unwrap();
        let (cid, fx) = net.hosts[client].tcp_connect_local(saddr, T0);
        net.pump(client, fx, T0);
        // Find the server-side child: the most recent socket that isn't the
        // listener.
        let child = net.hosts[server]
            .socket_ids()
            .into_iter()
            .rfind(|s| *s != lid)
            .expect("child socket created");
        assert_eq!(
            net.hosts[server].sock(child).unwrap().tcp().state,
            TcpState::Established
        );
        assert_eq!(
            net.hosts[client].sock(cid).unwrap().tcp().state,
            TcpState::Established
        );
        (cid, child)
    }

    #[test]
    fn listen_accept_over_two_hosts() {
        let mut net = two_cluster_nodes();
        let (_cid, _child) = establish(&mut net, 0, 1, 3306);
        assert!(net.events[0].iter().any(|e| e.contains("NewConnection")));
        assert!(net.events[1].iter().any(|e| e.contains("Established")));
    }

    #[test]
    fn stream_data_is_delivered_in_order() {
        let mut net = two_cluster_nodes();
        let (cid, child) = establish(&mut net, 0, 1, 3306);
        for chunk in [&b"SELECT "[..], &b"* FROM "[..], &b"world"[..]] {
            let fx = net.hosts[1].send(cid, Bytes::copy_from_slice(chunk), T0);
            net.pump(1, fx, T0);
        }
        let got: Vec<u8> = net.hosts[0]
            .read_tcp(child, T0)
            .iter()
            .flat_map(|s| s.payload.to_vec())
            .collect();
        assert_eq!(got, b"SELECT * FROM world");
    }

    #[test]
    fn udp_port_ownership_on_shared_ip() {
        // Both nodes share the public IP; only node0 binds :27960, so the
        // broadcast copy at node1 is dropped.
        let mut net = two_cluster_nodes();
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
        let sid = net.hosts[0].udp_bind(addr).unwrap();
        let seg = Segment::udp(
            SockAddr::new(Ip::client_of(NodeId(9)), 5555),
            addr,
            Bytes::from_static(b"cmd"),
        );
        let fx0 = net.hosts[0].on_rx_ref(&seg, T0);
        assert_eq!(fx0.len(), 1, "owner delivers");
        let fx1 = net.hosts[1].on_rx_ref(&seg, T0);
        assert!(fx1.is_empty(), "non-owner drops silently");
        assert_eq!(net.hosts[1].stats().rx_dropped_no_socket, 1);
        assert_eq!(net.hosts[0].read_udp(sid).len(), 1);
    }

    #[test]
    fn bind_conflicts_are_rejected() {
        let mut h = HostStack::server_node(NodeId(0), 0, 1);
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 5000);
        h.tcp_listen(addr).unwrap();
        assert!(matches!(h.tcp_listen(addr), Err(BindError::AddrInUse(_))));
        assert!(matches!(h.udp_bind(addr), Err(BindError::AddrInUse(_))));
    }

    #[test]
    fn capture_steals_and_reinjection_delivers() {
        let mut net = two_cluster_nodes();
        let (cid, child) = establish(&mut net, 0, 1, 3306);
        let child_local = net.hosts[0].sock(child).unwrap().local();
        let client_local = net.hosts[1].sock(cid).unwrap().local();

        // Destination (node0 here, simulating its own blackout) enables
        // capture for the server-side socket's connection.
        let key = crate::capture::CaptureKey::connected(client_local, child_local.port);
        net.hosts[0].capture.enable(key, T0);

        // Client sends while capture is enabled: the segment is stolen.
        let fx = net.hosts[1].send(cid, Bytes::from_static(b"during-blackout"), T0);
        net.pump(1, fx, T0);
        assert!(
            net.hosts[0].read_tcp(child, T0).is_empty(),
            "stolen, not delivered"
        );
        assert_eq!(net.hosts[0].stats().rx_captured, 1);
        assert_eq!(net.hosts[0].capture.queued(&key), 1);

        // Drain + reinject via the okfn() path.
        let caps = net.hosts[0].capture.disable_and_drain(&key);
        for seg in caps {
            let fx = net.hosts[0].reinject(seg, T0);
            net.pump(0, fx, T0);
        }
        let got: Vec<u8> = net.hosts[0]
            .read_tcp(child, T0)
            .iter()
            .flat_map(|s| s.payload.to_vec())
            .collect();
        assert_eq!(got, b"during-blackout");
    }

    #[test]
    fn capture_disabled_hook_drops_during_blackout() {
        // Ablation: without the capture hook the segment reaches delivery,
        // but with the socket detached it is simply lost.
        let mut net = two_cluster_nodes();
        let (cid, child) = establish(&mut net, 0, 1, 3306);
        net.hosts[0].detach_socket(child).unwrap();
        let fx = net.hosts[1].send(cid, Bytes::from_static(b"lost"), T0);
        net.pump(1, fx, T0);
        assert_eq!(net.hosts[0].stats().rx_dropped_no_socket, 1);
    }

    #[test]
    fn detach_install_roundtrip_preserves_stream() {
        let mut net = two_cluster_nodes();
        let (cid, child) = establish(&mut net, 0, 1, 3306);

        // Ship some data before migration.
        let fx = net.hosts[1].send(cid, Bytes::from_static(b"before|"), T0);
        net.pump(1, fx, T0);

        // Detach the server-side socket from node0 and install on node... the
        // same host (pure detach/install mechanics; cross-node continuity is
        // exercised in dvelm-migrate).
        let sock = net.hosts[0].detach_socket(child).unwrap();
        assert!(!net.hosts[0].has_established(sock.local(), sock.remote().unwrap()));
        let (child2, fx) = net.hosts[0].install_socket(sock, T0);
        net.pump(0, fx, T0);

        let fx = net.hosts[1].send(cid, Bytes::from_static(b"after"), T0);
        net.pump(1, fx, T0);
        let got: Vec<u8> = net.hosts[0]
            .read_tcp(child2, T0)
            .iter()
            .flat_map(|s| s.payload.to_vec())
            .collect();
        assert_eq!(got, b"before|after");
    }

    #[test]
    fn timer_fires_and_retransmits_through_host() {
        let mut net = two_cluster_nodes();
        let saddr = SockAddr::new(net.hosts[0].local_ip, 3306);
        net.hosts[0].tcp_listen(saddr).unwrap();
        let (cid, fx) = net.hosts[1].tcp_connect_local(saddr, T0);
        net.pump(1, fx, T0);

        // Send into the void: detach the server child so data is lost.
        let child = net.hosts[0].socket_ids().into_iter().next_back().unwrap();
        net.hosts[0].detach_socket(child);
        let fx = net.hosts[1].send(cid, Bytes::from_static(b"x"), T0);
        // Extract the ArmTimer effect.
        let mut timer = None;
        for e in &fx {
            if let StackEffect::ArmTimer { sock, gen, at } = e {
                timer = Some((*sock, *gen, *at));
            }
        }
        net.pump(1, fx, T0);
        let (sock, gen, at) = timer.expect("send armed the timer");
        let fx = net.hosts[1].on_timer(sock, gen, at);
        assert!(
            fx.iter().any(|e| matches!(e, StackEffect::Tx { .. })),
            "RTO retransmits"
        );
        // A stale fire (old generation) is ignored.
        let fx = net.hosts[1].on_timer(sock, gen.wrapping_sub(1), at);
        assert!(fx.iter().all(|e| !matches!(e, StackEffect::Tx { .. })));
    }

    /// Live in-cluster migration of a DB client socket (§III-C): node0 runs
    /// the DB server, the client socket moves from node1 to node2 keeping
    /// its original endpoint, node2 installs a self rule and node0 a peer
    /// rule. Returns the hosts, the DB child socket and the migrated socket
    /// on node2.
    fn migrate_db_client(fix_dst_cache: bool) -> (Net, SockId, SockId) {
        let mut net = Net::new(vec![
            HostStack::server_node(NodeId(0), 0, 1),
            HostStack::server_node(NodeId(1), 0, 2),
            HostStack::server_node(NodeId(2), 0, 3),
        ]);
        let (cid, child) = establish(&mut net, 0, 1, 3306);
        let old_local = net.hosts[1].sock(cid).unwrap().local();
        let db_local = net.hosts[0].sock(child).unwrap().local();
        let sock = net.hosts[1].detach_socket(cid).unwrap();
        let (cid2, fx) = net.hosts[2].install_socket(sock, T0);
        net.pump(2, fx, T0);
        let node2_ip = net.hosts[2].local_ip;
        net.hosts[2]
            .xlate
            .install_self(crate::xlate::SelfXlateRule {
                sock_local: old_local,
                peer: db_local,
                host_ip: node2_ip,
            });
        net.hosts[0].xlate.install_at(
            crate::xlate::XlateRule {
                fix_dst_cache,
                ..crate::xlate::XlateRule::new(db_local, old_local.ip, node2_ip, old_local.port)
            },
            T0,
        );
        (net, child, cid2)
    }

    #[test]
    fn xlate_end_to_end_after_live_migration() {
        let (mut net, child, cid2) = migrate_db_client(true);

        // Migrated client sends; DB replies; both directions are rewritten
        // and the reply is routed to node2.
        let fx = net.hosts[2].send(cid2, Bytes::from_static(b"UPDATE"), T0);
        net.pump(2, fx, T0);
        let q: Vec<u8> = net.hosts[0]
            .read_tcp(child, T0)
            .iter()
            .flat_map(|s| s.payload.to_vec())
            .collect();
        assert_eq!(q, b"UPDATE");

        let fx = net.hosts[0].send(child, Bytes::from_static(b"OK"), T0);
        net.pump(0, fx, T0);
        let r: Vec<u8> = net.hosts[2]
            .read_tcp(cid2, T0)
            .iter()
            .flat_map(|s| s.payload.to_vec())
            .collect();
        assert_eq!(r, b"OK");
        for host in [0, 2] {
            let stats = net.hosts[host].xlate.stats();
            assert!(stats.rewritten_out >= 1, "node{host}: {stats:?}");
            assert!(stats.rewritten_in >= 1, "node{host}: {stats:?}");
        }
    }

    #[test]
    fn stale_dst_cache_ablation_loses_replies() {
        let (mut net, child, cid2) = migrate_db_client(false);

        let fx = net.hosts[0].send(child, Bytes::from_static(b"hello?"), T0);
        net.pump(0, fx, T0);
        assert!(
            net.hosts[2].read_tcp(cid2, T0).is_empty(),
            "reply misrouted to the old host"
        );
        // The frame went to node1 (header says node2) → counted misrouted.
        assert_eq!(net.hosts[1].stats().rx_dropped_misrouted, 1);
    }

    #[test]
    fn bad_checksum_is_dropped() {
        let mut h = HostStack::server_node(NodeId(0), 0, 1);
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
        h.udp_bind(addr).unwrap();
        let mut seg = Segment::udp(
            SockAddr::new(Ip::client_of(NodeId(9)), 5555),
            addr,
            Bytes::new(),
        );
        seg.checksum_ok = false;
        let fx = h.on_rx(seg, T0);
        assert!(fx.is_empty());
        assert_eq!(h.stats().rx_dropped_bad_checksum, 1);
    }

    #[test]
    fn ephemeral_ports_do_not_collide_with_binds() {
        let mut h = HostStack::server_node(NodeId(0), 0, 1);
        h.udp_bind(SockAddr::new(Ip::CLUSTER_PUBLIC, 32_768))
            .unwrap();
        let sid = h.udp_bind_ephemeral();
        let p = h.sock(sid).unwrap().local().port;
        assert_ne!(p, Port(32_768));
    }

    #[test]
    fn release_cleans_all_tables() {
        let mut h = HostStack::server_node(NodeId(0), 0, 1);
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 7777);
        let sid = h.tcp_listen(addr).unwrap();
        assert!(h.is_bound(addr.ip, addr.port));
        h.release(sid);
        assert!(!h.is_bound(addr.ip, addr.port));
        assert_eq!(h.socket_count(), 0);
    }
}
