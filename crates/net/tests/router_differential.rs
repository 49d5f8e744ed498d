//! The router against a reference that gives every node downlink a link of
//! its own, as the router did before identical downlinks shared one link
//! state.
//!
//! Random sequences of broadcasts (through both inbound entry points),
//! zoned sends, node attach and detach, subscription changes, loss models
//! and latencies installed through `node_downlink_mut`, client-uplink loss
//! and materialising stats reads run on both. After every operation the
//! arrivals, the RNG's next draw and every node downlink's `LinkStats`
//! must match.

use dvelm_net::{BroadcastRouter, Fanout, Link, LinkStats, LossModel, NodeId, Port, ZoneId};
use dvelm_sim::{DetRng, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Node ids the sequences draw from.
const NODES: u32 = 10;
/// Client hosts sending, each over its own uplink: frames from two of them
/// can reach the router closer together than a downlink serializes one.
const CLIENTS: u32 = 3;
const CLIENT_BASE: u32 = 1_000;
/// The one zone-mapped port; every other port is broadcast.
const ZONE_PORT: Port = Port(27_960);
const ZONE: ZoneId = ZoneId(0);

/// One node downlink per slot, each transmitting on its own, in node
/// order: the fan-out loop of the router before downlinks were shared.
struct Reference {
    downlinks: Vec<Option<Link>>,
    uplinks: Vec<Link>,
    subscribers: BTreeSet<u32>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            downlinks: (0..NODES).map(|_| None).collect(),
            uplinks: (0..CLIENTS).map(|_| Link::client_wan()).collect(),
            subscribers: BTreeSet::new(),
        }
    }

    fn inbound(
        &mut self,
        now: SimTime,
        client: u32,
        bytes: u64,
        port: Port,
        rng: &mut DetRng,
    ) -> Vec<(NodeId, SimTime)> {
        let mut out = Vec::new();
        let Some(at) = self.uplinks[client as usize].transmit(now, bytes, rng) else {
            return out;
        };
        if port == ZONE_PORT {
            for &n in &self.subscribers {
                if let Some(link) = self.downlinks[n as usize].as_mut() {
                    if let Some(arr) = link.transmit(at, bytes, rng) {
                        out.push((NodeId(n), arr));
                    }
                }
            }
            return out;
        }
        for (i, slot) in self.downlinks.iter_mut().enumerate() {
            if let Some(link) = slot {
                if let Some(arr) = link.transmit(at, bytes, rng) {
                    out.push((NodeId(i as u32), arr));
                }
            }
        }
        out
    }

    fn stats(&self) -> Vec<Option<LinkStats>> {
        self.downlinks
            .iter()
            .map(|l| l.as_ref().map(Link::stats))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A frame to a broadcast port, through `inbound` (the runtime's entry
    /// point) or `inbound_into`.
    Broadcast {
        gap: u64,
        client: u32,
        bytes: u64,
        runtime: bool,
    },
    /// A frame to the zone-mapped port.
    Zoned {
        gap: u64,
        client: u32,
        bytes: u64,
    },
    Attach(u32),
    Detach(u32),
    Subscribe(u32),
    Unsubscribe(u32),
    SetLoss(u32, LossModel),
    SetLatency(u32, u64),
    ClientLoss(LossModel),
    /// Read every downlink's counters through `node_downlink_mut`.
    MaterialisingRead,
}

fn loss_model() -> impl Strategy<Value = LossModel> {
    prop_oneof![
        Just(LossModel::None),
        Just(LossModel::None),
        (0.0f64..1.0).prop_map(LossModel::Bernoulli),
        (0.0f64..0.5, 1u32..5).prop_map(|(p, burst)| LossModel::Burst { p, burst }),
        (0u64..20_000, 0u64..20_000).prop_map(|(a, b)| LossModel::Window {
            from: SimTime::from_micros(a.min(b)),
            to: SimTime::from_micros(a.max(b)),
        }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let node = 0..NODES;
    prop_oneof![
        (0u64..400, 0..CLIENTS, 1u64..3_000, true).prop_map(|(gap, client, bytes, runtime)| {
            Op::Broadcast {
                gap,
                client,
                bytes,
                runtime,
            }
        }),
        (0u64..400, 0..CLIENTS, 1u64..3_000, true).prop_map(|(gap, client, bytes, runtime)| {
            Op::Broadcast {
                gap,
                client,
                bytes,
                runtime,
            }
        }),
        (0u64..400, 0..CLIENTS, 1u64..3_000).prop_map(|(gap, client, bytes)| Op::Zoned {
            gap,
            client,
            bytes
        }),
        node.clone().prop_map(Op::Attach),
        node.clone().prop_map(Op::Detach),
        node.clone().prop_map(Op::Subscribe),
        node.clone().prop_map(Op::Unsubscribe),
        (node.clone(), loss_model()).prop_map(|(n, loss)| Op::SetLoss(n, loss)),
        (node, prop_oneof![Just(50u64), Just(50u64), 0u64..200])
            .prop_map(|(n, latency)| Op::SetLatency(n, latency)),
        loss_model().prop_map(Op::ClientLoss),
        Just(Op::MaterialisingRead),
    ]
}

/// `router.inbound` with a `Fanout::Every` written out node by node.
fn runtime_inbound(
    router: &mut BroadcastRouter,
    now: SimTime,
    client: u32,
    bytes: u64,
    port: Port,
    rng: &mut DetRng,
) -> Vec<(NodeId, SimTime)> {
    let mut out = vec![(NodeId(99), SimTime::from_secs(9))]; // stale junk
    let fanout = router
        .inbound(
            now,
            NodeId(CLIENT_BASE + client),
            bytes,
            port,
            rng,
            &mut out,
        )
        .expect("client attached");
    if let Fanout::Every(at) = fanout {
        assert!(out.is_empty(), "an Every fan-out lists nobody");
        out.extend(router.nodes().map(|n| (n, at)));
    }
    out
}

proptest! {
    #[test]
    fn router_matches_per_link_reference(
        initial in proptest::collection::vec(true, NODES as usize..=NODES as usize),
        ops in proptest::collection::vec(op(), 1..80),
        seed in 0u64..u64::MAX,
    ) {
        let mut router = BroadcastRouter::default_testbed();
        let mut reference = Reference::new();
        for (n, attached) in initial.iter().enumerate() {
            if *attached {
                router.attach_node(NodeId(n as u32));
                reference.downlinks[n] = Some(Link::gige());
            }
        }
        for c in 0..CLIENTS {
            router.attach_client(NodeId(CLIENT_BASE + c));
        }
        router.interest_mut().map_port(ZONE_PORT, ZONE);
        let mut rng = DetRng::new(seed);
        let mut rng_ref = DetRng::new(seed);
        let mut now = SimTime::ZERO;
        for op in ops {
            let (got, want) = match op {
                Op::Broadcast { gap, client, bytes, runtime } => {
                    now += gap;
                    let port = Port(5_000 + client as u16);
                    let got = if runtime {
                        runtime_inbound(&mut router, now, client, bytes, port, &mut rng)
                    } else {
                        let mut out = Vec::new();
                        router
                            .inbound_into(now, NodeId(CLIENT_BASE + client), bytes, &mut rng, &mut out)
                            .expect("client attached");
                        out
                    };
                    (got, reference.inbound(now, client, bytes, port, &mut rng_ref))
                }
                Op::Zoned { gap, client, bytes } => {
                    now += gap;
                    (
                        runtime_inbound(&mut router, now, client, bytes, ZONE_PORT, &mut rng),
                        reference.inbound(now, client, bytes, ZONE_PORT, &mut rng_ref),
                    )
                }
                Op::Attach(n) => {
                    router.attach_node(NodeId(n));
                    reference.downlinks[n as usize] = Some(Link::gige());
                    (Vec::new(), Vec::new())
                }
                Op::Detach(n) => {
                    router.detach_node(NodeId(n));
                    reference.downlinks[n as usize] = None;
                    reference.subscribers.remove(&n);
                    (Vec::new(), Vec::new())
                }
                Op::Subscribe(n) => {
                    router.interest_mut().subscribe(ZONE, NodeId(n));
                    reference.subscribers.insert(n);
                    (Vec::new(), Vec::new())
                }
                Op::Unsubscribe(n) => {
                    router.interest_mut().unsubscribe(ZONE, NodeId(n));
                    reference.subscribers.remove(&n);
                    (Vec::new(), Vec::new())
                }
                Op::SetLoss(n, loss) => {
                    let got = router.node_downlink_mut(NodeId(n)).map(|l| l.set_loss(loss));
                    let want = reference.downlinks[n as usize].as_mut().map(|l| l.set_loss(loss));
                    prop_assert_eq!(got, want);
                    (Vec::new(), Vec::new())
                }
                Op::SetLatency(n, latency) => {
                    if let Some(l) = router.node_downlink_mut(NodeId(n)) {
                        l.latency_us = latency;
                    }
                    if let Some(l) = reference.downlinks[n as usize].as_mut() {
                        l.latency_us = latency;
                    }
                    (Vec::new(), Vec::new())
                }
                Op::ClientLoss(loss) => {
                    router.set_client_loss(loss);
                    for l in &mut reference.uplinks {
                        l.set_loss(loss);
                    }
                    (Vec::new(), Vec::new())
                }
                Op::MaterialisingRead => {
                    let got: Vec<Option<LinkStats>> = (0..NODES)
                        .map(|n| router.node_downlink_mut(NodeId(n)).map(|l| l.stats()))
                        .collect();
                    prop_assert_eq!(got, reference.stats());
                    (Vec::new(), Vec::new())
                }
            };
            prop_assert_eq!(&got, &want, "arrivals after {:?}", op);
            prop_assert_eq!(
                rng.clone().next_u64(),
                rng_ref.clone().next_u64(),
                "RNG position after {:?}",
                op
            );
            let stats: Vec<Option<LinkStats>> =
                (0..NODES).map(|n| router.node_downlink_stats(NodeId(n))).collect();
            prop_assert_eq!(stats, reference.stats(), "link counters after {:?}", op);
            let nodes: Vec<u32> = router.nodes().map(|n| n.0).collect();
            let want_nodes: Vec<u32> = (0..NODES)
                .filter(|&n| reference.downlinks[n as usize].is_some())
                .collect();
            prop_assert_eq!(nodes, want_nodes);
        }
    }
}
