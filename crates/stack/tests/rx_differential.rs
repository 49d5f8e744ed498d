//! Differential test of the receive path.
//!
//! `HostStack::on_rx_ref` copies a frame only when the host keeps it, and
//! both receive entry points drop a frame whose destination port no
//! socket, capture entry or translation rule claims before entering any
//! table. The oracle below is the receive path as it was before either:
//! every arriving copy is cloned up front, translated in place, offered to
//! the capture hook, checksum-checked and delivered. Random segment
//! streams, interleaved with ownership churn (sockets detached for
//! migration and reinstalled, sockets released, capture entries enabled
//! and drained, translation rules installed, removed and aged out), are
//! fed into three identically built stacks — through `on_rx_ref`, through
//! the owned `on_rx` wrapper, and through the oracle — and every
//! observable must agree after every step: effects (capture-budget
//! pressure among them), `StackStats`, `CaptureStats`, `XlateStats`,
//! `read_udp`/`read_tcp` contents and the final socket table. Each stream
//! runs with the capture hook on and, for the §V-B ablation, off.

use bytes::Bytes;
use dvelm_net::{Ip, NodeId, Port, SockAddr};
use dvelm_sim::{Jiffies, SimTime};
use dvelm_stack::capture::CaptureOutcome;
use dvelm_stack::{
    CaptureBudget, CaptureKey, HostStack, Segment, SelfXlateRule, Socket, StackEffect, StackStats,
    TcpFlags, TcpShedPolicy, XlateRule,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::VecDeque;

const T0: SimTime = SimTime::ZERO;
/// UDP server ports on the public interface (OA-style).
const UDP_PORTS: [u16; 2] = [27960, 27961];
/// Public TCP listener the client hosts connect to.
const LISTEN_PORT: u16 = 5000;
/// The database every zone server talks to, on node 1.
const DB_PORT: u16 = 3306;
/// Original port of a socket that migrated here (self-translated).
const MIGRATED_PORT: u16 = 6000;
/// A port only a wildcard capture entry claims.
const CAPTURE_ONLY_PORT: u16 = 7000;
/// A port nobody owns.
const UNOWNED_PORT: u16 = 9999;

/// Which pieces of state a generated host carries.
#[derive(Debug, Clone)]
struct Spec {
    udp_binds: [bool; 2],
    listener: bool,
    clients: usize,
    db: bool,
    xlate_peer: Option<bool>,
    xlate_self: bool,
    /// Connected entry on client 0, wildcard on UDP port 0, wildcard on
    /// the listener, wildcard on the capture-only port.
    captures: [bool; 4],
    budget: CaptureBudget,
    /// Whether the capture hook runs (off: the §V-B ablation).
    capture_hook: bool,
}

fn bit(mask: u8, i: u8) -> bool {
    mask & (1 << i) != 0
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        (0u8..4, 0u8..2, 0usize..3, 0u8..2),
        (0u8..3, 0u8..2),
        (0u8..16, 0u8..2, 1usize..6, 16usize..256, 0u8..2),
        0u8..2,
    )
        .prop_map(
            |(
                (udp, listen, clients, db),
                (peer, self_rule),
                (caps, bounded, pk, by, hard),
                capture_hook,
            )| {
                Spec {
                    udp_binds: [bit(udp, 0), bit(udp, 1)],
                    listener: listen == 1 || clients > 0,
                    clients,
                    db: db == 1,
                    // 0: no peer rule; 1: correct rule; 2: checksum not fixed.
                    xlate_peer: (db == 1 && peer > 0).then_some(peer == 1),
                    xlate_self: self_rule == 1,
                    captures: [bit(caps, 0), bit(caps, 1), bit(caps, 2), bit(caps, 3)],
                    budget: if bounded == 1 {
                        CaptureBudget {
                            max_packets: pk,
                            max_bytes: by,
                            tcp_policy: if hard == 1 {
                                TcpShedPolicy::HardFail
                            } else {
                                TcpShedPolicy::CoalesceBySeq
                            },
                        }
                    } else {
                        CaptureBudget::UNLIMITED
                    },
                    capture_hook: capture_hook == 1,
                }
            },
        )
}

/// One generated arrival.
#[derive(Debug, Clone)]
struct SegSpec {
    tcp: bool,
    flags: u8,
    src: usize,
    dst_ip: u8,
    dst_port: usize,
    /// 0: random; 1: the matching socket's `rcv_nxt` + offset; 2: offset.
    seq_mode: u8,
    seq: u32,
    len: usize,
    bad_checksum: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Arrive(SegSpec),
    /// Applications drain every socket.
    Read,
    /// Every capture entry is drained and its packets reinjected.
    Reinject,
    /// Disable the n-th socket (modulo the socket count) for migration.
    Detach(usize),
    /// Reinstall every socket detached so far.
    Reinstall,
    /// Release the n-th socket (modulo the socket count).
    Release(usize),
    /// Enable the k-th capture key, or drain and reinject it if enabled.
    ToggleCapture(usize),
    /// Install the peer translation rule, or remove it (by connection, or
    /// with `take` as a migrating process's rules are taken).
    TogglePeerRule {
        take: bool,
    },
    /// Install the self translation rule, or remove it.
    ToggleSelfRule,
    /// Translation TTL garbage collection with a 1 ms TTL.
    XlateGc,
}

/// Any segment from the address and port pools.
fn random_arrival() -> impl Strategy<Value = Op> {
    (
        (0u8..2, 0u8..6, 0usize..7, 0u8..4, 0usize..7),
        (0u8..3, 0u32..1_000_000, 0usize..48, 0u8..8),
    )
        .prop_map(
            |((tcp, flags, src, dst_ip, dst_port), (seq_mode, seq, len, ck))| {
                Op::Arrive(SegSpec {
                    tcp: tcp == 1,
                    flags,
                    src,
                    dst_ip,
                    dst_port,
                    seq_mode,
                    seq,
                    len,
                    bad_checksum: ck == 0,
                })
            },
        )
}

/// In-window data on an established connection: client 0 to the public
/// listener, or the database to this host before and after its migration.
fn stream_arrival() -> impl Strategy<Value = Op> {
    (0usize..3, 0usize..48, 0u32..64).prop_map(|(which, len, seq)| {
        let (src, dst_ip, dst_port) = [(0, 0, 2), (2, 1, 3), (3, 1, 3)][which];
        Op::Arrive(SegSpec {
            tcp: true,
            flags: 2,
            src,
            dst_ip,
            dst_port,
            seq_mode: 1,
            seq,
            len,
            bad_checksum: false,
        })
    })
}

/// A change to what the host owns: the tables behind the port summary.
fn churn() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Detach),
        Just(Op::Reinstall),
        (0usize..8).prop_map(Op::Release),
        (0usize..4).prop_map(Op::ToggleCapture),
        (0u8..2).prop_map(|take| Op::TogglePeerRule { take: take == 1 }),
        Just(Op::ToggleSelfRule),
        Just(Op::XlateGc),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        random_arrival(),
        random_arrival(),
        stream_arrival(),
        (0u8..3).prop_map(|i| if i == 0 { Op::Reinject } else { Op::Read }),
        churn(),
    ]
}

/// The host under test plus the peers that built its connections.
struct Host {
    stack: HostStack,
    clients: Vec<HostStack>,
    db: Option<HostStack>,
    /// The host's end of its database connection.
    db_local: Option<SockAddr>,
    /// Sockets detached for migration, awaiting reinstallation.
    parked: Vec<Socket>,
}

impl Host {
    fn build(spec: &Spec) -> Host {
        let mut h = Host {
            stack: HostStack::server_node(NodeId(0), 1_000, 7),
            clients: (0..spec.clients)
                .map(|i| HostStack::client_host(NodeId(200 + i as u32), 50_000, 30 + i as u64))
                .collect(),
            db: spec
                .db
                .then(|| HostStack::server_node(NodeId(1), 9_000, 11)),
            db_local: None,
            parked: Vec::new(),
        };
        for (i, &bound) in spec.udp_binds.iter().enumerate() {
            if bound {
                let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, UDP_PORTS[i]);
                h.stack.udp_bind(addr).expect("fresh port");
            }
        }
        if spec.listener {
            let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, LISTEN_PORT);
            h.stack.tcp_listen(addr).expect("fresh port");
        }
        for i in 0..spec.clients {
            let server = SockAddr::new(Ip::CLUSTER_PUBLIC, LISTEN_PORT);
            let (_, fx) = h.clients[i].tcp_connect_public(server, T0);
            h.pump(fx);
        }
        if let Some(db) = h.db.as_mut() {
            db.tcp_listen(SockAddr::new(Ip::local_of(NodeId(1)), DB_PORT))
                .expect("fresh port");
            let (sid, fx) = h
                .stack
                .tcp_connect_local(SockAddr::new(Ip::local_of(NodeId(1)), DB_PORT), T0);
            h.db_local = h.stack.sock(sid).map(|s| s.local());
            h.pump(fx);
        }
        if let Some(fix_checksum) = spec.xlate_peer {
            // The database migrated from node 1 to node 2.
            h.stack.xlate.install_at(
                XlateRule {
                    fix_checksum,
                    ..h.peer_rule()
                },
                T0,
            );
        }
        if spec.xlate_self {
            // A UDP socket that lived at node 5 now runs here.
            let rule = h.self_rule();
            h.stack.udp_bind(rule.sock_local).expect("fresh port");
            h.stack.xlate.install_self(rule);
        }
        h.stack.capture_hook = spec.capture_hook;
        h.stack.capture.set_budget(spec.budget);
        for key in capture_keys(spec, &h) {
            h.stack.capture.enable(key, T0);
        }
        h
    }

    /// The peer rule for the database's move from node 1 to node 2. Without
    /// a database session it names a local port no socket holds.
    fn peer_rule(&self) -> XlateRule {
        let local = self
            .db_local
            .unwrap_or(SockAddr::new(self.stack.local_ip, 32_768));
        XlateRule::new(
            local,
            Ip::local_of(NodeId(1)),
            Ip::local_of(NodeId(2)),
            Port(DB_PORT),
        )
    }

    /// The self rule for a socket that lived at node 5 and now runs here.
    fn self_rule(&self) -> SelfXlateRule {
        SelfXlateRule {
            sock_local: SockAddr::new(Ip::local_of(NodeId(5)), MIGRATED_PORT),
            peer: SockAddr::new(Ip::local_of(NodeId(1)), DB_PORT),
            host_ip: self.stack.local_ip,
        }
    }

    /// Apply an ownership change; returns the effects it produced, rendered.
    fn churn(&mut self, op: &Op, keys: &[CaptureKey; 4], now: SimTime) -> String {
        let nth = |stack: &HostStack, n: usize| {
            let ids = stack.socket_ids();
            (!ids.is_empty()).then(|| ids[n % ids.len()])
        };
        let mut fx = Vec::new();
        match *op {
            Op::Detach(n) => {
                if let Some(sock) = nth(&self.stack, n).and_then(|s| self.stack.detach_socket(s)) {
                    self.parked.push(sock);
                }
            }
            Op::Reinstall => {
                for sock in std::mem::take(&mut self.parked) {
                    let (sid, out) = self.stack.install_socket(sock, now);
                    fx.push(format!("{sid:?}"));
                    fx.push(format!("{out:?}"));
                }
            }
            Op::Release(n) => {
                if let Some(sid) = nth(&self.stack, n) {
                    fx.push(format!("{:?}", self.stack.release(sid).is_some()));
                }
            }
            Op::ToggleCapture(k) => {
                let key = keys[k];
                if self.stack.capture.is_enabled(&key) {
                    for seg in self.stack.capture.disable_and_drain(&key) {
                        fx.push(format!("{:?}", self.stack.reinject(seg, now)));
                    }
                } else {
                    self.stack.capture.enable(key, now);
                }
            }
            Op::TogglePeerRule { take } => {
                let rule = self.peer_rule();
                if self.stack.xlate.is_empty() {
                    self.stack.xlate.install_at(rule, now);
                } else if take {
                    let taken = self.stack.xlate.take_rules_for(rule.peer_local);
                    fx.push(format!("{taken:?}"));
                } else {
                    let removed = self.stack.xlate.remove(
                        rule.peer_local,
                        rule.old_remote_ip,
                        rule.remote_port,
                    );
                    fx.push(format!("{removed}"));
                }
            }
            Op::ToggleSelfRule => {
                let rule = self.self_rule();
                if self.stack.xlate.self_rule_count() == 0 {
                    self.stack.xlate.install_self(rule);
                } else {
                    fx.push(format!("{}", self.stack.xlate.remove_self(rule.sock_local)));
                }
            }
            Op::XlateGc => {
                fx.push(format!("{:?}", self.stack.xlate.gc(now, 1_000)));
            }
            Op::Arrive(_) | Op::Read | Op::Reinject => unreachable!("not a churn op"),
        }
        fx.join(" ")
    }

    /// Deliver frames among the host and its peers until quiet.
    fn pump(&mut self, fx: Vec<StackEffect>) {
        let mut queue: VecDeque<StackEffect> = fx.into();
        while let Some(e) = queue.pop_front() {
            let StackEffect::Tx { seg, route } = e else {
                continue;
            };
            let target = if route == self.stack.public_ip || route == self.stack.local_ip {
                Some(&mut self.stack)
            } else if route == Ip::local_of(NodeId(1)) {
                self.db.as_mut()
            } else {
                self.clients.iter_mut().find(|c| c.public_ip == route)
            };
            if let Some(t) = target {
                queue.extend(t.on_rx(seg, T0));
            }
        }
    }

    fn client_addr(&self, i: usize) -> SockAddr {
        match self.clients.get(i) {
            Some(c) => c.sock(c.socket_ids()[0]).expect("connected").local(),
            None => SockAddr::new(Ip::client_of(NodeId(200 + i as u32)), 32_768),
        }
    }

    /// Where generated segments come from: the connected clients, the
    /// database before and after its migration, and an unknown WAN host.
    fn sources(&self) -> [SockAddr; 7] {
        let db = |n| SockAddr::new(Ip::local_of(NodeId(n)), DB_PORT);
        [
            self.client_addr(0),
            self.client_addr(1),
            db(1),
            db(2),
            SockAddr::new(Ip::client_of(NodeId(250)), 1234),
            self.client_addr(2),
            SockAddr::new(Ip::local_of(NodeId(3)), 40_000),
        ]
    }

    fn ports(&self) -> [u16; 7] {
        [
            UDP_PORTS[0],
            UDP_PORTS[1],
            LISTEN_PORT,
            self.db_local.map_or(32_768, |a| a.port.0),
            MIGRATED_PORT,
            CAPTURE_ONLY_PORT,
            UNOWNED_PORT,
        ]
    }

    fn segment(&self, s: &SegSpec) -> Segment {
        let src = self.sources()[s.src];
        let ip = match s.dst_ip {
            0 => Ip::CLUSTER_PUBLIC,
            1 => self.stack.local_ip,
            2 => Ip::local_of(NodeId(5)),
            _ => Ip::local_of(NodeId(7)),
        };
        let dst = SockAddr::new(ip, self.ports()[s.dst_port]);
        let payload = Bytes::from(vec![s.len as u8; s.len]);
        let mut seg = if s.tcp {
            let flags = [
                TcpFlags::SYN,
                TcpFlags::SYN_ACK,
                TcpFlags::ACK,
                TcpFlags::FIN_ACK,
                TcpFlags::ACK,
                TcpFlags {
                    rst: true,
                    ..TcpFlags::ACK
                },
            ][s.flags as usize];
            // Aim at the receiving socket's window when asked to. Ports
            // anchor the match: the source may still be in its on-wire
            // (untranslated) form.
            let rec = self
                .stack
                .socket_ids()
                .into_iter()
                .filter_map(|sid| self.stack.sock(sid))
                .filter(|k| k.is_tcp() && k.local().port == dst.port)
                .filter(|k| k.remote().is_some_and(|r| r.port == src.port))
                .min_by_key(|k| k.remote() != Some(src))
                .map(|k| k.tcp().record());
            let (seq, ack) = match (s.seq_mode, rec) {
                (1, Some(r)) => (r.rcv_nxt.wrapping_add(s.seq % 64), r.snd_nxt),
                (2, _) => (s.seq % 64, 0),
                _ => (s.seq, s.seq / 3),
            };
            Segment::tcp(
                src,
                dst,
                flags,
                seq,
                ack,
                65_535,
                Jiffies(7),
                Jiffies(0),
                payload,
            )
        } else {
            Segment::udp(src, dst, payload)
        };
        seg.checksum_ok = !s.bad_checksum;
        seg
    }
}

/// Every capture key a host may enable: a connected entry on client 0, and
/// wildcards on UDP port 0, the listener and the capture-only port.
fn all_capture_keys(h: &Host) -> [CaptureKey; 4] {
    [
        CaptureKey::connected(h.client_addr(0), Port(LISTEN_PORT)),
        CaptureKey::any_remote(Port(UDP_PORTS[0])),
        CaptureKey::any_remote(Port(LISTEN_PORT)),
        CaptureKey::any_remote(Port(CAPTURE_ONLY_PORT)),
    ]
}

/// The capture keys `spec` enables at build time.
fn capture_keys(spec: &Spec, h: &Host) -> Vec<CaptureKey> {
    all_capture_keys(h)
        .into_iter()
        .zip(spec.captures)
        .filter_map(|(k, on)| on.then_some(k))
        .collect()
}

/// Counter moves the oracle makes outside the stack.
#[derive(Debug, Default)]
struct Shadow {
    rx_total: u64,
    rx_captured: u64,
    rx_capture_shed: u64,
    rx_dropped_bad_checksum: u64,
    /// Deliveries routed through `reinject`.
    delivered: u64,
}

/// The oracle: the clone-per-copy receive path. The stack's delivery step
/// is private, so the oracle enters it through `reinject` — delivery
/// without the hooks — and keeps the counters `on_rx` itself moved in
/// `Shadow` (taking back the `reinjected` count those calls add).
fn reference_on_rx(
    stack: &mut HostStack,
    shadow: &mut Shadow,
    seg: &Segment,
    now: SimTime,
) -> Vec<StackEffect> {
    let mut seg = Cow::Owned(seg.clone());
    shadow.rx_total += 1;
    stack.xlate.incoming_at(&mut seg, now);
    if stack.capture_hook {
        match stack.capture.capture(&seg) {
            CaptureOutcome::NotMatched => {}
            CaptureOutcome::Captured | CaptureOutcome::Duplicate => {
                shadow.rx_captured += 1;
                return Vec::new();
            }
            CaptureOutcome::CapturedShedOldest(event) => {
                shadow.rx_captured += 1;
                return vec![StackEffect::CapturePressure(event)];
            }
            CaptureOutcome::RefusedRecoverable(event) | CaptureOutcome::HardFailRefused(event) => {
                shadow.rx_capture_shed += 1;
                return vec![StackEffect::CapturePressure(event)];
            }
        }
    }
    if !seg.checksum_ok {
        shadow.rx_dropped_bad_checksum += 1;
        return Vec::new();
    }
    shadow.delivered += 1;
    stack.reinject(seg.into_owned(), now)
}

fn reference_stats(stack: &HostStack, shadow: &Shadow) -> StackStats {
    let mut s = stack.stats();
    s.rx_total += shadow.rx_total;
    s.rx_captured += shadow.rx_captured;
    s.rx_capture_shed += shadow.rx_capture_shed;
    s.rx_dropped_bad_checksum += shadow.rx_dropped_bad_checksum;
    s.reinjected -= shadow.delivered;
    s
}

/// Everything an application or the runtime can read back from a stack.
fn reads(stack: &mut HostStack, now: SimTime) -> Vec<String> {
    let mut out = Vec::new();
    for sid in stack.socket_ids() {
        let tcp = stack.sock(sid).is_some_and(|s| s.is_tcp());
        if tcp {
            out.push(format!("{sid:?} {:?}", stack.read_tcp(sid, now)));
        } else {
            out.push(format!("{sid:?} {:?}", stack.read_udp(sid)));
        }
    }
    out
}

fn reinject_all(stack: &mut HostStack, keys: &[CaptureKey], now: SimTime) -> String {
    let mut fx = Vec::new();
    for key in keys {
        for seg in stack.capture.disable_and_drain(key) {
            fx.extend(stack.reinject(seg, now));
        }
    }
    format!("{fx:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn borrowed_rx_matches_clone_per_copy_reference(
        spec in spec(),
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut borrowed = Host::build(&spec);
        let mut owned = Host::build(&spec);
        let mut reference = Host::build(&spec);
        let keys = all_capture_keys(&borrowed);
        let mut shadow = Shadow::default();
        let mut now = T0;
        for op in &ops {
            now += 100;
            match op {
                Op::Arrive(s) => {
                    let seg = borrowed.segment(s);
                    let a = format!("{:?}", borrowed.stack.on_rx_ref(&seg, now));
                    let b = format!("{:?}", owned.stack.on_rx(seg.clone(), now));
                    let c = format!(
                        "{:?}",
                        reference_on_rx(&mut reference.stack, &mut shadow, &seg, now)
                    );
                    prop_assert_eq!(&a, &c, "effects of {:?}", seg);
                    prop_assert_eq!(&b, &c, "owned effects of {:?}", seg);
                }
                Op::Read => {
                    let c = reads(&mut reference.stack, now);
                    prop_assert_eq!(reads(&mut borrowed.stack, now), c.clone());
                    prop_assert_eq!(reads(&mut owned.stack, now), c);
                }
                Op::Reinject => {
                    let c = reinject_all(&mut reference.stack, &keys, now);
                    prop_assert_eq!(reinject_all(&mut borrowed.stack, &keys, now), c.clone());
                    prop_assert_eq!(reinject_all(&mut owned.stack, &keys, now), c);
                }
                churn => {
                    let c = reference.churn(churn, &keys, now);
                    prop_assert_eq!(borrowed.churn(churn, &keys, now), c.clone(), "{:?}", churn);
                    prop_assert_eq!(owned.churn(churn, &keys, now), c, "{:?}", churn);
                }
            }
            let expect = reference_stats(&reference.stack, &shadow);
            prop_assert_eq!(borrowed.stack.stats(), expect);
            prop_assert_eq!(owned.stack.stats(), expect);
            let cap = reference.stack.capture.stats();
            prop_assert_eq!(borrowed.stack.capture.stats(), cap);
            prop_assert_eq!(owned.stack.capture.stats(), cap);
            let xl = reference.stack.xlate.stats();
            prop_assert_eq!(borrowed.stack.xlate.stats(), xl);
            prop_assert_eq!(owned.stack.xlate.stats(), xl);
        }
        let table = reference.stack.netstat();
        prop_assert_eq!(borrowed.stack.netstat(), table.clone());
        prop_assert_eq!(owned.stack.netstat(), table);
    }

    /// Every generated world exercises what it claims: the listener
    /// accepted each client and the database handshake completed, so the
    /// stream above reaches established sockets and not only the drop path.
    #[test]
    fn generated_hosts_hold_established_connections(spec in spec()) {
        let h = Host::build(&spec);
        let established = h
            .stack
            .socket_ids()
            .into_iter()
            .filter_map(|sid| h.stack.sock(sid))
            .filter(|s| s.is_tcp() && s.remote().is_some())
            .count();
        prop_assert_eq!(established, spec.clients + usize::from(spec.db));
    }
}
