//! Focused TCP behaviour tests at the host-stack level: congestion-window
//! dynamics, retransmission-timeout clamps, flow control and connection
//! table hygiene — the machinery whose state socket migration must preserve.

// Test code is exempt from the crate's determinism bans (`clippy.toml`).
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use dvelm_net::{NodeId, SockAddr};
use dvelm_sim::{SimTime, MILLISECOND, SECOND};
use dvelm_stack::tcp::{INITIAL_CWND, MSS, RTO_MAX_US, RTO_MIN_US};
use dvelm_stack::{HostStack, SockId, StackEffect, TcpState};

/// Two stacks with a zero-latency lossless wire.
struct Pair {
    a: HostStack,
    b: HostStack,
    now: SimTime,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            a: HostStack::server_node(NodeId(0), 100, 1),
            b: HostStack::server_node(NodeId(1), 9_999, 2),
            now: SimTime::ZERO,
        }
    }

    fn pump(&mut self, from_a: bool, fx: Vec<StackEffect>) {
        // FIFO delivery: the wire preserves transmission order.
        let mut queue: std::collections::VecDeque<(bool, StackEffect)> =
            fx.into_iter().map(|e| (from_a, e)).collect();
        while let Some((from_a, e)) = queue.pop_front() {
            if let StackEffect::Tx { seg, route } = e {
                let (target_is_a, target) = if route == self.a.local_ip || route == self.a.public_ip
                {
                    (true, &mut self.a)
                } else if route == self.b.local_ip || route == self.b.public_ip {
                    (false, &mut self.b)
                } else {
                    continue;
                };
                let fx = target.on_rx(seg, self.now);
                queue.extend(fx.into_iter().map(|e| (target_is_a, e)));
                let _ = from_a;
            }
        }
    }

    fn establish(&mut self, port: u16) -> (SockId, SockId) {
        let saddr = SockAddr::new(self.a.local_ip, port);
        let lid = self.a.tcp_listen(saddr).unwrap();
        let (cid, fx) = self.b.tcp_connect_local(saddr, self.now);
        self.pump(false, fx);
        let child = self
            .a
            .socket_ids()
            .into_iter()
            .rfind(|s| *s != lid)
            .expect("child");
        assert_eq!(
            self.a.sock(child).unwrap().tcp().state,
            TcpState::Established
        );
        (cid, child)
    }
}

#[test]
fn slow_start_doubles_cwnd_per_round() {
    let mut p = Pair::new();
    let (cid, _child) = p.establish(4000);
    let cwnd0 = p.a.sock(p.a.socket_ids()[1]).map(|_| 0); // silence unused warnings
    let _ = cwnd0;
    let before = p.b.sock(cid).unwrap().tcp().cwnd();
    assert_eq!(before, INITIAL_CWND);
    // One window's worth of data, fully acked in one round trip.
    let fx =
        p.b.send(cid, Bytes::from(vec![0u8; INITIAL_CWND as usize]), p.now);
    p.pump(false, fx);
    let after = p.b.sock(cid).unwrap().tcp().cwnd();
    assert!(
        after >= before + 9 * MSS,
        "slow start roughly doubles: {before} → {after}"
    );
}

#[test]
fn rto_is_clamped_between_min_and_max() {
    let mut p = Pair::new();
    let (cid, child) = p.establish(4001);
    // Sub-jiffy RTT on the LAN: the sample is ~0 → RTO floors at RTO_MIN.
    let fx = p.b.send(cid, Bytes::from_static(b"x"), p.now);
    p.pump(false, fx);
    let rto = p.b.sock(cid).unwrap().tcp().rto_us();
    assert!(rto >= RTO_MIN_US, "rto {rto} under the floor");
    assert!(
        rto <= 2 * RTO_MIN_US,
        "rto {rto} unexpectedly large on a LAN"
    );

    // Exponential backoff caps at RTO_MAX: detach the peer and fire the
    // timer many times.
    p.a.detach_socket(child);
    let fx = p.b.send(cid, Bytes::from_static(b"lost"), p.now);
    let mut timer = None;
    for e in &fx {
        if let StackEffect::ArmTimer { sock, gen, at } = e {
            timer = Some((*sock, *gen, *at));
        }
    }
    p.pump(false, fx);
    let (sock, mut gen, mut at) = timer.expect("armed");
    for _ in 0..30 {
        p.now = at;
        let fx = p.b.on_timer(sock, gen, p.now);
        let mut next = None;
        for e in &fx {
            if let StackEffect::ArmTimer { gen: g, at: a, .. } = e {
                next = Some((*g, *a));
            }
        }
        p.pump(false, fx);
        match next {
            Some((g, a)) => {
                gen = g;
                at = a;
            }
            None => break,
        }
    }
    let rto = p.b.sock(cid).unwrap().tcp().rto_us();
    assert_eq!(rto, RTO_MAX_US, "backoff must clamp at RTO_MAX");
}

#[test]
fn rto_collapse_resets_cwnd_and_halves_ssthresh() {
    let mut p = Pair::new();
    let (cid, child) = p.establish(4002);
    // Grow cwnd a little first.
    let fx =
        p.b.send(cid, Bytes::from(vec![0u8; 4 * MSS as usize]), p.now);
    p.pump(false, fx);
    let grown = p.b.sock(cid).unwrap().tcp().cwnd();
    assert!(grown > INITIAL_CWND);

    p.a.detach_socket(child);
    let fx =
        p.b.send(cid, Bytes::from(vec![0u8; 2 * MSS as usize]), p.now);
    let mut timer = None;
    for e in &fx {
        if let StackEffect::ArmTimer { sock, gen, at } = e {
            timer = Some((*sock, *gen, *at));
        }
    }
    p.pump(false, fx);
    let (sock, gen, at) = timer.expect("armed");
    p.now = at;
    let fx = p.b.on_timer(sock, gen, p.now);
    p.pump(false, fx);
    assert_eq!(
        p.b.sock(cid).unwrap().tcp().cwnd(),
        MSS,
        "loss collapses cwnd to one MSS"
    );
}

#[test]
fn flight_never_exceeds_min_of_windows() {
    let mut p = Pair::new();
    let (cid, _child) = p.establish(4003);
    // Try to send far more than the initial congestion window at once.
    let big = vec![0u8; 40 * MSS as usize];
    // Don't pump: nothing is acked, so flight is capped by cwnd.
    let fx = p.b.send(cid, Bytes::from(big), p.now);
    let t = p.b.sock(cid).unwrap().tcp();
    assert!(
        t.flight() <= t.cwnd(),
        "flight {} > cwnd {}",
        t.flight(),
        t.cwnd()
    );
    drop(fx); // segments intentionally discarded (simulated loss)
}

#[test]
fn established_table_entry_lifecycle() {
    let mut p = Pair::new();
    let (cid, child) = p.establish(4004);
    let b_local = p.b.sock(cid).unwrap().local();
    let a_local = p.a.sock(child).unwrap().local();
    assert!(p.a.has_established(a_local, b_local));
    assert!(p.b.has_established(b_local, a_local));

    // Graceful close from b; drive both FIN handshakes.
    let fx = p.b.close(cid, p.now);
    p.pump(false, fx);
    let fx = p.a.close(child, p.now);
    p.pump(true, fx);
    assert!(
        !p.a.has_established(a_local, b_local),
        "closed connection unhashed on a"
    );
    assert_eq!(p.a.sock(child).unwrap().tcp().state, TcpState::Closed);
    // b reached TimeWait (it closed first).
    assert_eq!(p.b.sock(cid).unwrap().tcp().state, TcpState::TimeWait);
}

#[test]
fn many_connections_have_distinct_ephemeral_ports() {
    let mut p = Pair::new();
    let saddr = SockAddr::new(p.a.local_ip, 4005);
    p.a.tcp_listen(saddr).unwrap();
    let mut ports = std::collections::HashSet::new();
    for _ in 0..200 {
        let (cid, fx) = p.b.tcp_connect_local(saddr, p.now);
        p.pump(false, fx);
        assert!(ports.insert(p.b.sock(cid).unwrap().local().port));
    }
    assert_eq!(p.a.socket_count(), 201, "200 children + listener");
}

#[test]
fn srtt_tracks_injected_delay() {
    let mut p = Pair::new();
    let (cid, child) = p.establish(4006);
    // Manually shuttle with a 40 ms ACK delay (4 jiffies).
    for _ in 0..8 {
        let fx = p.b.send(cid, Bytes::from_static(b"probe"), p.now);
        // Collect the data segment.
        let mut segs = Vec::new();
        for e in fx {
            if let StackEffect::Tx { seg, .. } = e {
                segs.push(seg);
            }
        }
        p.now += 40 * MILLISECOND;
        for seg in segs {
            let replies = p.a.on_rx(seg, p.now);
            p.pump(true, replies);
        }
        p.a.read_tcp(child, p.now);
    }
    let srtt = p.b.sock(cid).unwrap().tcp().srtt_us();
    assert!(
        (30 * MILLISECOND..=50 * MILLISECOND).contains(&srtt),
        "srtt {srtt}µs should reflect the 40 ms injected delay"
    );
    let rto = p.b.sock(cid).unwrap().tcp().rto_us();
    assert!((RTO_MIN_US..SECOND).contains(&rto));
}
