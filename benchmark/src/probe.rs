//! Layer probes: public layer functions timed on workload-shaped inputs.
//!
//! Each probe runs batches sized to about [`BATCH_NS`] and reports the
//! median ns per operation over [`BATCHES`] batches.

use bytes::Bytes;
use dvelm_ckpt::{full_checkpoint, incremental_update, IncrementalTracker};
use dvelm_lb::{Conductor, LoadInfo, PolicyConfig};
use dvelm_net::{BroadcastRouter, Ip, NodeId, Port, SockAddr};
use dvelm_openarena::apps::{OA_PORT, SNAPSHOT_BYTES, USERCMD_BYTES};
use dvelm_proc::{Pid, Process};
use dvelm_sim::{DetRng, EventQueue, Jiffies, SimTime, MILLISECOND};
use dvelm_stack::capture::{CaptureKey, CaptureTable};
use dvelm_stack::tcp::{TcpCtx, TcpOut, TcpSocket};
use dvelm_stack::xlate::{XlateRule, XlateTable};
use dvelm_stack::{HostStack, Segment, TcpFlags};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 9;
const BATCH_NS: u64 = 2_000_000;

/// Median ns per operation. `batch(n)` runs `n` operations and returns the
/// host ns it spent on them (so untimed preparation can sit inside).
fn per_op(mut batch: impl FnMut(u64) -> u64) -> f64 {
    // Calibrate: grow n until one batch takes at least a tenth of BATCH_NS.
    let mut n = 1u64;
    let mut ns = batch(n);
    while ns < BATCH_NS / 10 && n < 1 << 24 {
        n *= 4;
        ns = batch(n);
    }
    let n = (n * BATCH_NS / ns.max(1)).max(1);
    let mut samples: Vec<f64> = (0..BATCHES).map(|_| batch(n) as f64 / n as f64).collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Time `n` calls of `op`.
fn timed(n: u64, mut op: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..n {
        op();
    }
    t.elapsed().as_nanos() as u64
}

fn client_addr(i: u32, port: u16) -> SockAddr {
    SockAddr::new(Ip::client_of(NodeId(64 + i)), port)
}

/// The probe metric names, in the order [`run_all`] reports them.
pub const NAMES: [&str; 13] = [
    "sim.queue_push_pop_ns",
    "net.router_inbound_64_nodes_ns",
    "stack.udp_rx_ns",
    "stack.udp_rx_nosock_ns",
    "stack.tcp_send_recv_ack_ns",
    "stack.capture_miss_256_ns",
    "stack.capture_drain_100_ns",
    "stack.xlate_out_hit_ns",
    "proc.dirty_400_pages_ns",
    "ckpt.full_checkpoint_4096p_ns",
    "ckpt.encode_4096p_ns",
    "ckpt.incremental_400p_ns",
    "lb.conductor_tick_16_peers_ns",
];

/// Every probe, as (metric name, median ns per operation).
pub fn run_all() -> Vec<(&'static str, f64)> {
    let probes: [fn() -> f64; 13] = [
        queue_push_pop,
        router_inbound,
        || udp_rx(true),
        || udp_rx(false),
        tcp_send_recv_ack,
        capture_miss,
        capture_drain,
        xlate_out_hit,
        dirty_pages,
        full_ckpt,
        encode_ckpt,
        incremental,
        conductor_tick,
    ];
    NAMES
        .into_iter()
        .zip(probes)
        .map(|(n, p)| (n, p()))
        .collect()
}

/// One push and one pop on a queue holding the few thousand pending events
/// of a 64-node world.
fn queue_push_pop() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(1);
    let mut now = SimTime::ZERO;
    for i in 0..4096 {
        q.push(now + rng.range_u64(0, 50 * MILLISECOND), i);
    }
    per_op(|n| {
        timed(n, || {
            let (at, ev) = q.pop().expect("the queue never drains");
            now = at;
            q.push(now + rng.range_u64(0, 50 * MILLISECOND), black_box(ev));
        })
    })
}

/// A 90-byte usercmd broadcast to 64 nodes.
fn router_inbound() -> f64 {
    let mut router = BroadcastRouter::default_testbed();
    for n in 0..64 {
        router.attach_node(NodeId(n));
    }
    let client = NodeId(64);
    router.attach_client(client);
    let mut rng = DetRng::new(2);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    per_op(|n| {
        timed(n, || {
            // Spaced out so no link queues behind the previous frame.
            now += MILLISECOND;
            router
                .inbound_into(now, client, 90, &mut rng, &mut out)
                .expect("client is attached");
            black_box(out.len());
        })
    })
}

/// A usercmd arriving at a node that owns the port, or at one of the 63
/// that do not.
fn udp_rx(owned: bool) -> f64 {
    let mut stack = HostStack::server_node(NodeId(0), 0, 3);
    let server = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT);
    let sid = stack.udp_bind(server).expect("fresh stack");
    let dst = if owned {
        server
    } else {
        SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + 1)
    };
    let seg = Segment::udp(
        client_addr(0, 40_000),
        dst,
        Bytes::from(vec![0x11; USERCMD_BYTES]),
    );
    per_op(|n| {
        let ns = timed(n, || {
            black_box(stack.on_rx(seg.clone(), SimTime::ZERO));
        });
        black_box(stack.read_udp(sid));
        ns
    })
}

/// Send a 256-byte update, receive it, deliver the ACK back.
fn tcp_send_recv_ack() -> f64 {
    let mut stamp = 0u64;
    let mut ctx = TcpCtx {
        now: SimTime::ZERO,
        jiffies: Jiffies(100),
        stamp: &mut stamp,
    };
    let (a, b) = (
        client_addr(1, 40_000),
        SockAddr::new(Ip::CLUSTER_PUBLIC, 20_000),
    );
    let (mut snd, out) = TcpSocket::connect(b, a, 100, &mut ctx);
    let syn = tx_of(out).remove(0);
    let (mut rcv, out) =
        TcpSocket::passive_open(a, b, syn.tcp_seq().expect("SYN"), Jiffies(0), 900, &mut ctx);
    for seg in tx_of(out) {
        for back in tx_of(snd.on_segment(seg, &mut ctx)) {
            rcv.on_segment(back, &mut ctx);
        }
    }
    let payload = Bytes::from(vec![0x5A; SNAPSHOT_BYTES]);
    per_op(|n| {
        timed(n, || {
            for seg in tx_of(snd.send(payload.clone(), &mut ctx)) {
                for ack in tx_of(rcv.on_segment(seg, &mut ctx)) {
                    snd.on_segment(ack, &mut ctx);
                }
            }
            black_box(rcv.read(&mut ctx).len());
        })
    })
}

fn tx_of(out: Vec<TcpOut>) -> Vec<Segment> {
    out.into_iter()
        .filter_map(|o| if let TcpOut::Tx(s) = o { Some(s) } else { None })
        .collect()
}

fn tcp_seg(src: SockAddr, dst: SockAddr, seq: u32, payload: usize) -> Segment {
    Segment::tcp(
        src,
        dst,
        TcpFlags::ACK,
        seq,
        1,
        65_535,
        Jiffies(0),
        Jiffies(0),
        Bytes::from(vec![0; payload]),
    )
}

/// A segment checked against the 256 capture entries of a zone server in
/// transit, matching none.
fn capture_miss() -> f64 {
    let mut t = CaptureTable::new();
    for i in 0..256u32 {
        t.enable(
            CaptureKey::connected(client_addr(i, 40_000), Port(20_000)),
            SimTime::ZERO,
        );
    }
    let seg = tcp_seg(
        client_addr(999, 9_999),
        SockAddr::new(Ip::CLUSTER_PUBLIC, 20_000),
        1,
        0,
    );
    per_op(|n| {
        timed(n, || {
            black_box(t.try_capture(&seg));
        })
    })
}

/// Capture 100 command segments for one connection, then drain them.
fn capture_drain() -> f64 {
    let src = client_addr(0, 40_000);
    let dst = SockAddr::new(Ip::CLUSTER_PUBLIC, 20_000);
    let key = CaptureKey::connected(src, Port(20_000));
    let segs: Vec<Segment> = (0..100u32).map(|i| tcp_seg(src, dst, i * 64, 64)).collect();
    per_op(|n| {
        timed(n, || {
            let mut t = CaptureTable::new();
            t.enable(key, SimTime::ZERO);
            for s in &segs {
                t.try_capture(s);
            }
            black_box(t.disable_and_drain(&key).len());
        })
    })
}

/// An outgoing database reply rewritten by a translation rule.
fn xlate_out_hit() -> f64 {
    let mut t = XlateTable::new();
    let db = SockAddr::new(Ip::local_of(NodeId(4)), 3306);
    t.install_at(
        XlateRule::new(
            db,
            Ip::local_of(NodeId(0)),
            Ip::local_of(NodeId(1)),
            Port(40_000),
        ),
        SimTime::ZERO,
    );
    let seg = Segment::udp(
        db,
        SockAddr::new(Ip::local_of(NodeId(0)), 40_000),
        Bytes::new(),
    );
    per_op(|n| {
        timed(n, || {
            let mut s = seg.clone();
            black_box(t.outgoing_at(&mut s, SimTime::ZERO));
        })
    })
}

fn oa_process() -> Process {
    Process::new(Pid(1), "oa_server", 512, 4096)
}

/// One OA server frame's memory work.
fn dirty_pages() -> f64 {
    let mut p = oa_process();
    let mut rng = DetRng::new(4);
    per_op(|n| timed(n, || p.do_work(&mut rng, 400)))
}

fn full_ckpt() -> f64 {
    let p = oa_process();
    per_op(|n| timed(n, || drop(black_box(full_checkpoint(&p)))))
}

fn encode_ckpt() -> f64 {
    let img = full_checkpoint(&oa_process());
    per_op(|n| timed(n, || drop(black_box(img.encode()))))
}

/// One precopy iteration after a frame dirtied 400 pages (the dirtying is
/// not timed).
fn incremental() -> f64 {
    let mut p = oa_process();
    let mut tracker = IncrementalTracker::new();
    incremental_update(&mut tracker, &mut p);
    let mut rng = DetRng::new(5);
    per_op(|n| {
        let mut ns = 0;
        for _ in 0..n {
            p.do_work(&mut rng, 400);
            let t = Instant::now();
            black_box(incremental_update(&mut tracker, &mut p));
            ns += t.elapsed().as_nanos() as u64;
        }
        ns
    })
}

/// A conductor tick on a 16-node cluster with four local servers.
fn conductor_tick() -> f64 {
    let mut cond = Conductor::new(NodeId(0), PolicyConfig::default());
    let procs: Vec<(Pid, f64)> = (0..4).map(|i| (Pid(i), 13.2)).collect();
    let mut us = 1_000_000u64;
    per_op(|n| {
        // Fresh heartbeats each batch, so no peer expires mid-measurement.
        let now = SimTime::from_micros(us);
        for i in 1..16u32 {
            cond.peers.update(LoadInfo::new(NodeId(i), 57.8, 4, now));
        }
        timed(n, || {
            us += 10;
            let now = SimTime::from_micros(us);
            let local = LoadInfo::new(NodeId(0), 57.8, 4, now);
            black_box(cond.on_tick(now, local, &procs).len());
        })
    })
}
