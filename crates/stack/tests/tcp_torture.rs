//! TCP torture tests: the stream abstraction must survive a hostile wire.
//!
//! A miniature event loop connects two host stacks through a wire that can
//! drop, duplicate and reorder segments. Whatever the wire does, the
//! receiving application must observe every sent byte exactly once, in
//! order — the invariant socket migration later relies on (re-injected
//! captured packets are just another source of duplication/reordering).
//!
//! The loop turns retransmission arms into events either as the cluster
//! runtime does, one pending fire per socket ([`SockTimers`]), or with one
//! event per arm. The differential test at the end drives the same random
//! schedules through both and requires the same trace.

use bytes::Bytes;
use dvelm_net::{Ip, NodeId, SockAddr};
use dvelm_sim::{DetRng, DispatchKey, Scheduler, SimTime, MILLISECOND, SECOND};
use dvelm_stack::{HostStack, SockId, SockTimers, StackEffect, TcpState, TimerFire};
use std::collections::{BTreeMap, BTreeSet};

enum Ev {
    Deliver {
        host: usize,
        seg: dvelm_stack::Segment,
    },
    /// A retransmission fire. `tag` is the arm's generation under
    /// [`Timers::PerArm`] and the sequence of the key the fire was pushed
    /// at under [`Timers::OnePending`].
    Timer { host: usize, sock: SockId, tag: u64 },
}

/// How the loop turns `ArmTimer` effects into events.
enum Timers {
    /// At most one pending fire per socket, as the cluster runtime keeps
    /// them.
    OnePending([SockTimers; 2]),
    /// One event per arm; fires of replaced arms reach `on_timer` and do
    /// nothing there.
    PerArm,
}

#[derive(Clone, Copy)]
struct Wire {
    /// Drop probability per traversal.
    loss: f64,
    /// Duplication probability per traversal.
    dup: f64,
    /// Max extra delay µs (uniform), on top of the 500 µs base.
    jitter_us: u64,
}

struct Torture {
    hosts: [HostStack; 2],
    queue: Scheduler<Ev>,
    now: SimTime,
    rng: DetRng,
    wire: Wire,
    timers: Timers,
    /// Sequences of the timer events in the queue, per (host, socket).
    queued_fires: BTreeMap<(usize, SockId), BTreeSet<u64>>,
    /// Most timer events in the queue at once.
    peak_fires: usize,
    /// Every dispatch that acted, with its key: each delivery, and each
    /// timer that ran the RTO (it changed the deadline or had effects).
    trace: Vec<String>,
}

impl Torture {
    fn new(seed: u64, wire: Wire) -> Torture {
        Torture::with_timers(
            seed,
            wire,
            Timers::OnePending([SockTimers::new(), SockTimers::new()]),
        )
    }

    fn with_timers(seed: u64, wire: Wire, timers: Timers) -> Torture {
        Torture {
            hosts: [
                HostStack::server_node(NodeId(0), 1_000, seed ^ 1),
                HostStack::server_node(NodeId(1), 2_000, seed ^ 2),
            ],
            queue: Scheduler::new(),
            now: SimTime::ZERO,
            rng: DetRng::new(seed),
            wire,
            timers,
            queued_fires: BTreeMap::new(),
            peak_fires: 0,
            trace: Vec::new(),
        }
    }

    fn host_of_ip(&self, ip: Ip) -> Option<usize> {
        self.hosts
            .iter()
            .position(|h| h.local_ip == ip || h.public_ip == ip)
    }

    fn apply(&mut self, from: usize, fx: Vec<StackEffect>) {
        for e in fx {
            match e {
                StackEffect::Tx { seg, route } => {
                    let Some(target) = self.host_of_ip(route) else {
                        continue;
                    };
                    let mut copies = 1;
                    if self.rng.chance(self.wire.loss) {
                        copies = 0;
                    } else if self.rng.chance(self.wire.dup) {
                        copies = 2;
                    }
                    for _ in 0..copies {
                        let delay = 500 + self.rng.range_u64(0, self.wire.jitter_us.max(1));
                        self.queue.schedule_at(
                            self.now + delay,
                            Ev::Deliver {
                                host: target,
                                seg: seg.clone(),
                            },
                        );
                    }
                }
                StackEffect::ArmTimer { sock, gen, at } => {
                    let key = self.queue.reserve_at(at);
                    let (push, tag) = match &mut self.timers {
                        Timers::OnePending(t) => (t[from].arm(sock, gen, key), key.seq),
                        Timers::PerArm => (true, gen),
                    };
                    if push {
                        self.push_fire(from, sock, key, tag);
                    }
                }
                _ => {}
            }
        }
    }

    fn push_fire(&mut self, host: usize, sock: SockId, key: DispatchKey, tag: u64) {
        self.queue
            .schedule_reserved(key, Ev::Timer { host, sock, tag });
        self.queued_fires
            .entry((host, sock))
            .or_default()
            .insert(key.seq);
        let queued = self.queued_fires.values().map(BTreeSet::len).sum();
        self.peak_fires = self.peak_fires.max(queued);
    }

    fn run_until(&mut self, deadline: SimTime) {
        while let Some((key, _)) = self.queue.peek() {
            if key.at > deadline {
                break;
            }
            let (t, ev) = self.queue.pop_next().expect("peeked");
            self.now = t;
            match ev {
                Ev::Deliver { host, seg } => {
                    let head = format!("{key:?} h{host} rx {seg:?}");
                    let fx = self.hosts[host].on_rx(seg, t);
                    self.trace.push(format!("{head} -> {fx:?}"));
                    self.apply(host, fx);
                }
                Ev::Timer { host, sock, tag } => {
                    if let Some(fires) = self.queued_fires.get_mut(&(host, sock)) {
                        fires.remove(&key.seq);
                    }
                    let gen = match &mut self.timers {
                        Timers::PerArm => tag,
                        Timers::OnePending(timers) => match timers[host].fire(sock, key) {
                            TimerFire::Stale => continue,
                            TimerFire::Due(gen) => gen,
                            TimerFire::Requeue(at) => {
                                self.push_fire(host, sock, at, at.seq);
                                continue;
                            }
                        },
                    };
                    let before = self.deadline(host, sock);
                    let fx = self.hosts[host].on_timer(sock, gen, t);
                    let after = self.deadline(host, sock);
                    if before != after || !fx.is_empty() {
                        self.trace.push(format!(
                            "{key:?} h{host} rto {sock:?} {before:?}->{after:?} -> {fx:?}"
                        ));
                    }
                    self.apply(host, fx);
                }
            }
        }
        self.now = deadline;
    }

    /// The retransmission deadline of a socket, if it still exists.
    fn deadline(&self, host: usize, sock: SockId) -> Option<Option<SimTime>> {
        self.hosts[host]
            .sock(sock)
            .map(|s| s.tcp().timer_deadline())
    }

    /// Establish a connection host1 → host0:7777; returns (client, server
    /// child).
    fn establish(&mut self) -> (SockId, SockId) {
        let saddr = SockAddr::new(self.hosts[0].local_ip, 7777);
        let lid = self.hosts[0].tcp_listen(saddr).expect("listen");
        let (cid, fx) = self.hosts[1].tcp_connect_local(saddr, self.now);
        self.apply(1, fx);
        // Drive the handshake (retransmissions may be needed under loss).
        let mut deadline = self.now + 50 * MILLISECOND;
        loop {
            self.run_until(deadline);
            let established = self.hosts[1]
                .sock(cid)
                .is_some_and(|s| s.tcp().state == TcpState::Established);
            if established {
                break;
            }
            deadline += SECOND;
            assert!(
                deadline < SimTime::from_secs(600),
                "handshake never completed"
            );
        }
        let child = self.hosts[0]
            .socket_ids()
            .into_iter()
            .find(|s| *s != lid)
            .expect("child accepted");
        (cid, child)
    }
}

fn torture_roundtrip(seed: u64, wire: Wire, chunks: usize) {
    let mut t = Torture::new(seed, wire);
    let (cid, child) = t.establish();

    // Send numbered chunks with pacing; the wire mangles them.
    let mut sent = Vec::new();
    for i in 0..chunks {
        let msg = format!("chunk-{i:05};");
        sent.extend_from_slice(msg.as_bytes());
        let fx = t.hosts[1].send(cid, Bytes::from(msg), t.now);
        t.apply(1, fx);
        let step = t.now + 2 * MILLISECOND;
        t.run_until(step);
    }

    // Let retransmissions drain everything (RTO can back off a lot under
    // heavy loss).
    let mut received: Vec<u8> = Vec::new();
    let mut deadline = t.now + SECOND;
    for _ in 0..600 {
        t.run_until(deadline);
        received.extend(
            t.hosts[0]
                .read_tcp(child, t.now)
                .iter()
                .flat_map(|s| s.payload.to_vec()),
        );
        if received.len() == sent.len() {
            break;
        }
        deadline += SECOND;
    }
    assert_eq!(
        received.len(),
        sent.len(),
        "seed {seed}: byte count mismatch ({} vs {})",
        received.len(),
        sent.len()
    );
    assert_eq!(received, sent, "seed {seed}: stream corrupted");
}

#[test]
fn clean_wire_delivers_in_order() {
    torture_roundtrip(
        1,
        Wire {
            loss: 0.0,
            dup: 0.0,
            jitter_us: 1,
        },
        200,
    );
}

#[test]
fn reordering_wire_is_reassembled() {
    // Heavy jitter: segments overtake each other constantly.
    torture_roundtrip(
        2,
        Wire {
            loss: 0.0,
            dup: 0.0,
            jitter_us: 20_000,
        },
        150,
    );
}

#[test]
fn duplicating_wire_delivers_exactly_once() {
    torture_roundtrip(
        3,
        Wire {
            loss: 0.0,
            dup: 0.3,
            jitter_us: 2_000,
        },
        150,
    );
}

#[test]
fn lossy_wire_retransmits_to_completion() {
    torture_roundtrip(
        4,
        Wire {
            loss: 0.1,
            dup: 0.0,
            jitter_us: 2_000,
        },
        80,
    );
}

#[test]
fn hostile_wire_all_at_once() {
    for seed in 10..16 {
        torture_roundtrip(
            seed,
            Wire {
                loss: 0.08,
                dup: 0.1,
                jitter_us: 10_000,
            },
            50,
        );
    }
}

#[test]
fn handshake_survives_loss() {
    // 30% loss: SYN/SYN-ACK retransmissions must eventually connect.
    let mut t = Torture::new(
        77,
        Wire {
            loss: 0.3,
            dup: 0.0,
            jitter_us: 1_000,
        },
    );
    let (cid, child) = t.establish();
    assert_eq!(
        t.hosts[1].sock(cid).unwrap().tcp().state,
        TcpState::Established
    );
    assert_eq!(
        t.hosts[0].sock(child).unwrap().tcp().state,
        TcpState::Established
    );
}

#[test]
fn detach_install_mid_torture_preserves_stream() {
    // The migration primitive under fire: detach the receiving socket midway
    // through a lossy transfer, reinstall it (same host — the cross-host
    // path is dvelm-migrate's job), and finish. Bytes must still arrive
    // exactly once, in order.
    let mut t = Torture::new(
        99,
        Wire {
            loss: 0.05,
            dup: 0.05,
            jitter_us: 5_000,
        },
    );
    let (cid, child) = t.establish();

    let mut sent = Vec::new();
    let mut received: Vec<u8> = Vec::new();
    let mut child = child;
    for i in 0..60 {
        let msg = format!("m{i:04}|");
        sent.extend_from_slice(msg.as_bytes());
        let fx = t.hosts[1].send(cid, Bytes::from(msg), t.now);
        t.apply(1, fx);
        let step = t.now + 3 * MILLISECOND;
        t.run_until(step);
        if i == 30 {
            // Blackout: detach, wait a little (packets die), reinstall.
            let sock = t.hosts[0].detach_socket(child).expect("detach");
            let step = t.now + 30 * MILLISECOND;
            t.run_until(step);
            let (nid, fx) = t.hosts[0].install_socket(sock, t.now);
            child = nid;
            t.apply(0, fx);
        }
        received.extend(
            t.hosts[0]
                .read_tcp(child, t.now)
                .iter()
                .flat_map(|s| s.payload.to_vec()),
        );
    }
    let mut deadline = t.now + SECOND;
    for _ in 0..600 {
        t.run_until(deadline);
        received.extend(
            t.hosts[0]
                .read_tcp(child, t.now)
                .iter()
                .flat_map(|s| s.payload.to_vec()),
        );
        if received.len() == sent.len() {
            break;
        }
        deadline += SECOND;
    }
    assert_eq!(received, sent, "stream corrupted across detach/install");
}

/// Drive one random schedule of sends, reads, idle gaps and detach /
/// `install_socket` blackouts over an established connection, then drain.
/// Between steps, under one pending fire, every socket with an armed timer
/// has exactly one live fire in the queue: the one its table slot names.
/// Any other queued fire of that socket was superseded by an earlier
/// deadline and dies when it pops.
fn random_schedule(seed: u64, wire: Wire, timers: Timers) -> Torture {
    let mut t = Torture::with_timers(seed, wire, timers);
    let (mut cid, mut child) = t.establish();
    let mut ops = DetRng::new(seed ^ 0xD1FF_5EED);
    for step in 0..300 {
        match ops.range_u64(0, 100) {
            roll @ 0..=54 => {
                // The client sends more often than the server child, which
                // may still await the handshake's last ACK.
                let (host, sid) = if roll < 35 { (1, cid) } else { (0, child) };
                let len = ops.range_u64(1, 3_000) as usize;
                if t.hosts[host].sock(sid).expect("live").tcp().state == TcpState::Established {
                    let fx = t.hosts[host].send(sid, Bytes::from(vec![step as u8; len]), t.now);
                    t.apply(host, fx);
                }
            }
            55..=69 => {
                t.hosts[0].read_tcp(child, t.now);
                t.hosts[1].read_tcp(cid, t.now);
            }
            70..=94 => {
                let gap = if ops.chance(0.7) { 5 } else { 400 };
                let to = t.now + ops.range_u64(0, gap * MILLISECOND);
                t.run_until(to);
            }
            _ => {
                // Migration blackout: the socket leaves the table (its
                // timer cleared), the wire keeps running, and it comes back
                // under a fresh id with its timer restarted (§V-C1).
                let host = ops.range_u64(0, 2) as usize;
                let sid = if host == 0 { child } else { cid };
                let sock = t.hosts[host].detach_socket(sid).expect("detach");
                let to = t.now + ops.range_u64(0, 300 * MILLISECOND);
                t.run_until(to);
                let (nid, fx) = t.hosts[host].install_socket(sock, t.now);
                t.apply(host, fx);
                if host == 0 {
                    child = nid;
                } else {
                    cid = nid;
                }
            }
        }
        t.assert_one_live_fire();
    }
    for _ in 0..120 {
        let to = t.now + SECOND;
        t.run_until(to);
        t.hosts[0].read_tcp(child, t.now);
        t.hosts[1].read_tcp(cid, t.now);
        t.assert_one_live_fire();
        if t.queued_fires.values().all(BTreeSet::is_empty) {
            break;
        }
    }
    t
}

impl Torture {
    fn assert_one_live_fire(&self) {
        let Timers::OnePending(timers) = &self.timers else {
            return;
        };
        for (host, table) in timers.iter().enumerate() {
            let live = self
                .queued_fires
                .iter()
                .filter(|((h, sock), seqs)| {
                    *h == host && table.pending(*sock).is_some_and(|k| seqs.contains(&k.seq))
                })
                .count();
            assert_eq!(
                live,
                table.len(),
                "host {host}: an armed socket lost its fire"
            );
        }
    }
}

#[test]
fn one_pending_fire_matches_a_push_per_arm() {
    let wires = [
        Wire {
            loss: 0.0,
            dup: 0.0,
            jitter_us: 1,
        },
        Wire {
            loss: 0.05,
            dup: 0.05,
            jitter_us: 5_000,
        },
        Wire {
            loss: 0.2,
            dup: 0.1,
            jitter_us: 30_000,
        },
    ];
    let mut rtos = 0;
    for seed in 0..12u64 {
        let wire = wires[seed as usize % wires.len()];
        let one = random_schedule(
            seed,
            wire,
            Timers::OnePending([SockTimers::new(), SockTimers::new()]),
        );
        let per_arm = random_schedule(seed, wire, Timers::PerArm);
        for (a, b) in one.trace.iter().zip(&per_arm.trace) {
            assert_eq!(a, b, "seed {seed}: the traces part here");
        }
        assert_eq!(one.trace.len(), per_arm.trace.len(), "seed {seed}");
        for h in 0..2 {
            assert_eq!(
                one.hosts[h].stats(),
                per_arm.hosts[h].stats(),
                "seed {seed}"
            );
        }
        assert_eq!(one.queue.now(), per_arm.queue.now(), "seed {seed}");
        assert_eq!(
            one.queue.stats().scheduled,
            per_arm.queue.stats().scheduled,
            "seed {seed}: every arm takes one sequence either way"
        );
        assert!(
            one.peak_fires <= per_arm.peak_fires,
            "seed {seed}: {} queued fires at peak, {} with a push per arm",
            one.peak_fires,
            per_arm.peak_fires
        );
        rtos += one.trace.iter().filter(|l| l.contains(" rto ")).count();
    }
    assert!(rtos > 100, "the schedules must exercise the RTO ({rtos})");
}
