//! The single-IP broadcast router (§II-A, Fig. 1).
//!
//! Inbound (WAN→cluster) frames are **broadcast to every server node's public
//! interface**; each node's stack decides locally whether it owns the
//! destination port. Outbound frames are unicast to the client host. This is
//! the ONE-IP configuration whose broadcast property makes in-cluster socket
//! migration possible without touching the router, and which the
//! packet-loss-prevention mechanism exploits: while a socket is in transit,
//! the *destination* node already receives (and captures) the client's
//! packets.

use crate::addr::{NodeId, Port};
use crate::interest::InterestTable;
use crate::link::{Link, NodeLinks};
use dvelm_sim::{DetRng, SimTime};

/// Why the router could not route a frame. Unknown endpoints are a normal
/// consequence of hosts crashing or leaving while frames are in flight, so
/// they are reported to the caller instead of panicking the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The sending client host has no uplink (never attached, or detached).
    UnknownClientSource(NodeId),
    /// The receiving client host has no downlink (never attached, or
    /// detached after its host crashed or departed).
    UnknownClientDest(NodeId),
    /// The sending server node has no uplink (never attached, or detached).
    UnknownNode(NodeId),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownClientSource(n) => write!(f, "unknown client source host {n}"),
            RouteError::UnknownClientDest(n) => write!(f, "unknown client dest host {n}"),
            RouteError::UnknownNode(n) => write!(f, "unknown server node {n}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// The WAN-facing broadcast router of the cluster.
#[derive(Debug)]
pub struct BroadcastRouter {
    /// router → node public interface (one per server node).
    downlinks: NodeLinks,
    /// node public interface → router.
    uplinks: NodeLinks,
    /// router → client host.
    client_downlinks: NodeLinks,
    /// client host → router.
    client_uplinks: NodeLinks,
    link_template: Link,
    client_template: Link,
    /// Zone subscriptions for the interest-managed (AOI) inbound path.
    /// Empty by default, in which case
    /// [`inbound_zoned_into`](Self::inbound_zoned_into) is the plain
    /// broadcast.
    interest: InterestTable,
}

impl BroadcastRouter {
    /// A router whose cluster-side links are copies of `cluster_link` and
    /// whose client access links are copies of `client_link`.
    pub fn new(cluster_link: Link, client_link: Link) -> BroadcastRouter {
        BroadcastRouter {
            downlinks: NodeLinks::default(),
            uplinks: NodeLinks::default(),
            client_downlinks: NodeLinks::default(),
            client_uplinks: NodeLinks::default(),
            link_template: cluster_link,
            client_template: client_link,
            interest: InterestTable::new(),
        }
    }

    /// A router with Gigabit cluster links and WAN-ish client links.
    pub fn default_testbed() -> BroadcastRouter {
        BroadcastRouter::new(Link::gige(), Link::client_wan())
    }

    /// Attach a server node's public interface.
    pub fn attach_node(&mut self, node: NodeId) {
        self.downlinks.attach(node, self.link_template.clone());
        self.uplinks.attach(node, self.link_template.clone());
    }

    /// Detach a server node (node leave). Its zone subscriptions are purged
    /// with its links — a gone node must not linger in any fan-out set.
    pub fn detach_node(&mut self, node: NodeId) {
        self.downlinks.detach(node);
        self.uplinks.detach(node);
        self.interest.purge_node(node);
    }

    /// The router's zone-interest table (read side: monitor sweeps, load
    /// reporting).
    pub fn interest(&self) -> &InterestTable {
        &self.interest
    }

    /// Mutable access to the zone-interest table. The cluster runtime is
    /// the only writer, and it writes through the effect pipeline so every
    /// subscription change is ordered and observable.
    pub fn interest_mut(&mut self) -> &mut InterestTable {
        &mut self.interest
    }

    /// Attach a client host on the WAN side.
    pub fn attach_client(&mut self, host: NodeId) {
        self.client_downlinks
            .attach(host, self.client_template.clone());
        self.client_uplinks
            .attach(host, self.client_template.clone());
    }

    /// Detach a client host (client departure or crash): both access links
    /// are released, so frames toward it report
    /// [`RouteError::UnknownClientDest`] instead of serializing onto a link
    /// nobody listens to.
    pub fn detach_client(&mut self, host: NodeId) {
        self.client_downlinks.detach(host);
        self.client_uplinks.detach(host);
    }

    /// Server nodes currently attached.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.downlinks.nodes()
    }

    /// A client host sends an inbound frame: it traverses the client's
    /// uplink once, then is broadcast over every node downlink. Returns the
    /// per-node arrival instants (empty if the uplink dropped it).
    pub fn inbound(
        &mut self,
        now: SimTime,
        from_client: NodeId,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Result<Vec<(NodeId, SimTime)>, RouteError> {
        let mut out = Vec::new();
        self.inbound_into(now, from_client, bytes, rng, &mut out)?;
        Ok(out)
    }

    /// [`inbound`](Self::inbound) writing the arrivals into a caller-owned
    /// buffer (cleared first) — the hot-path variant: the broadcast fan-out
    /// runs once per frame per node, and reusing the buffer keeps the
    /// per-packet cost allocation-free.
    pub fn inbound_into(
        &mut self,
        now: SimTime,
        from_client: NodeId,
        bytes: u64,
        rng: &mut DetRng,
        out: &mut Vec<(NodeId, SimTime)>,
    ) -> Result<(), RouteError> {
        self.fan_out(now, from_client, bytes, None, rng, out)
    }

    /// The interest-managed variant of [`inbound_into`](Self::inbound_into):
    /// a frame whose destination port is bound to a zone fans out only to
    /// that zone's subscribers — O(subscribers) instead of O(nodes) — while
    /// frames for unmapped ports keep the full broadcast. Subscriber order
    /// is node order (the subscriber set is ordered), matching the
    /// deterministic fan-out order of the broadcast path. With no zones
    /// mapped this is exactly [`inbound_into`](Self::inbound_into): same
    /// arrivals, same RNG draws.
    pub fn inbound_zoned_into(
        &mut self,
        now: SimTime,
        from_client: NodeId,
        bytes: u64,
        dst_port: Port,
        rng: &mut DetRng,
        out: &mut Vec<(NodeId, SimTime)>,
    ) -> Result<(), RouteError> {
        self.fan_out(now, from_client, bytes, Some(dst_port), rng, out)
    }

    /// The inbound body both entry points share: the client uplink hop,
    /// then either the zone's subscribers (when `dst_port` is mapped to a
    /// zone) or every node downlink in node order.
    fn fan_out(
        &mut self,
        now: SimTime,
        from_client: NodeId,
        bytes: u64,
        dst_port: Option<Port>,
        rng: &mut DetRng,
        out: &mut Vec<(NodeId, SimTime)>,
    ) -> Result<(), RouteError> {
        out.clear();
        let up = self
            .client_uplinks
            .get_mut(from_client)
            .ok_or(RouteError::UnknownClientSource(from_client))?;
        let Some(at_router) = up.transmit(now, bytes, rng) else {
            return Ok(());
        };
        let Some(zone) = dst_port.and_then(|port| self.interest.zone_of_port(port)) else {
            out.extend(self.downlinks.iter_mut().filter_map(|(node, link)| {
                link.transmit(at_router, bytes, rng).map(|arr| (node, arr))
            }));
            return Ok(());
        };
        if let Some(subs) = self.interest.subscribers(zone) {
            for &node in subs {
                // A subscriber with no downlink is a node that crashed
                // before its subscriptions were purged — skip, don't panic.
                if let Some(link) = self.downlinks.get_mut(node) {
                    if let Some(arr) = link.transmit(at_router, bytes, rng) {
                        out.push((node, arr));
                    }
                }
            }
        }
        // A mapped zone with zero subscribers delivers to nobody: the
        // owning process is gone, exactly like a frame to a dark address.
        Ok(())
    }

    /// A server node sends an outbound frame to a client host (unicast).
    /// `Ok(None)` means a loss model dropped the frame. When the client is
    /// unknown (crashed or departed), the frame has still occupied the
    /// sending node's uplink — it died at the router, not at the NIC.
    pub fn outbound(
        &mut self,
        now: SimTime,
        from_node: NodeId,
        to_client: NodeId,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Result<Option<SimTime>, RouteError> {
        let up = self
            .uplinks
            .get_mut(from_node)
            .ok_or(RouteError::UnknownNode(from_node))?;
        let Some(at_router) = up.transmit(now, bytes, rng) else {
            return Ok(None);
        };
        let down = self
            .client_downlinks
            .get_mut(to_client)
            .ok_or(RouteError::UnknownClientDest(to_client))?;
        Ok(down.transmit(at_router, bytes, rng))
    }

    /// Mutable access to a node downlink (for ablation loss injection).
    pub fn node_downlink_mut(&mut self, node: NodeId) -> Option<&mut Link> {
        self.downlinks.get_mut(node)
    }

    /// Install a loss model on every client access link, both directions
    /// (failure injection: a lossy WAN).
    pub fn set_client_loss(&mut self, loss: crate::link::LossModel) {
        for (_, link) in self
            .client_uplinks
            .iter_mut()
            .chain(self.client_downlinks.iter_mut())
        {
            link.set_loss(loss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;

    fn rng() -> DetRng {
        DetRng::new(7)
    }

    fn router_with(n: u32) -> BroadcastRouter {
        let mut r = BroadcastRouter::default_testbed();
        for i in 0..n {
            r.attach_node(NodeId(i));
        }
        r.attach_client(NodeId(100));
        r
    }

    #[test]
    fn inbound_reaches_every_node() {
        let mut r = router_with(5);
        let arrivals = r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
            .unwrap();
        assert_eq!(arrivals.len(), 5);
        let nodes: Vec<u32> = arrivals.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn broadcast_arrivals_are_simultaneous_on_idle_links() {
        let mut r = router_with(3);
        let arrivals = r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
            .unwrap();
        assert!(arrivals.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn inbound_into_reuses_the_buffer() {
        let mut r = router_with(4);
        let mut buf = vec![(NodeId(77), SimTime::from_secs(9))]; // stale junk
        r.inbound_into(SimTime::ZERO, NodeId(100), 256, &mut rng(), &mut buf)
            .unwrap();
        assert_eq!(buf.len(), 4, "buffer cleared before filling");
        let direct = r
            .inbound(SimTime::from_secs(1), NodeId(100), 256, &mut rng())
            .unwrap();
        assert_eq!(direct.len(), 4);
    }

    #[test]
    fn detached_node_stops_receiving() {
        let mut r = router_with(3);
        r.detach_node(NodeId(1));
        let arrivals = r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
            .unwrap();
        assert_eq!(arrivals.len(), 2);
        assert!(arrivals.iter().all(|(n, _)| n.0 != 1));
    }

    #[test]
    fn outbound_is_unicast_and_slower_than_lan() {
        let mut r = router_with(2);
        let arr = r
            .outbound(SimTime::ZERO, NodeId(0), NodeId(100), 256, &mut rng())
            .unwrap()
            .unwrap();
        // Must cross the 20 ms client downlink.
        assert!(arr >= SimTime::from_millis(20), "arrival {arr}");
    }

    #[test]
    fn per_node_loss_only_affects_that_node() {
        let mut r = router_with(3);
        r.node_downlink_mut(NodeId(1))
            .unwrap()
            .set_loss(LossModel::Bernoulli(1.0));
        let arrivals = r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
            .unwrap();
        let nodes: Vec<u32> = arrivals.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 2]);
    }

    #[test]
    fn uplink_drop_means_nobody_receives() {
        let mut r = router_with(3);
        r.client_uplinks
            .get_mut(NodeId(100))
            .unwrap()
            .set_loss(LossModel::Bernoulli(1.0));
        assert!(r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_client_is_a_typed_error_not_a_panic() {
        let mut r = router_with(1);
        assert_eq!(
            r.inbound(SimTime::ZERO, NodeId(999), 1, &mut rng()),
            Err(RouteError::UnknownClientSource(NodeId(999)))
        );
        assert_eq!(
            r.outbound(SimTime::ZERO, NodeId(5), NodeId(100), 1, &mut rng()),
            Err(RouteError::UnknownNode(NodeId(5)))
        );
        assert_eq!(
            r.outbound(SimTime::ZERO, NodeId(0), NodeId(101), 1, &mut rng()),
            Err(RouteError::UnknownClientDest(NodeId(101)))
        );
    }

    #[test]
    fn zoned_inbound_reaches_only_subscribers() {
        use crate::interest::ZoneId;
        let mut r = router_with(5);
        r.interest_mut().map_port(Port(27960), ZoneId(0));
        r.interest_mut().subscribe(ZoneId(0), NodeId(2));
        let mut out = Vec::new();
        r.inbound_zoned_into(
            SimTime::ZERO,
            NodeId(100),
            256,
            Port(27960),
            &mut rng(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(2));
    }

    #[test]
    fn zoned_inbound_unmapped_port_falls_back_to_broadcast() {
        let mut r = router_with(4);
        let mut out = Vec::new();
        r.inbound_zoned_into(
            SimTime::ZERO,
            NodeId(100),
            256,
            Port(9999),
            &mut rng(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 4, "unmapped port keeps the legacy broadcast");
    }

    #[test]
    fn zoned_inbound_during_handoff_reaches_both_subscribers() {
        use crate::interest::ZoneId;
        // Mid-migration both the source and the destination subscribe: the
        // destination must hear (and capture) the client's frames exactly
        // like it did under full broadcast.
        let mut r = router_with(4);
        r.interest_mut().map_port(Port(27960), ZoneId(7));
        r.interest_mut().subscribe(ZoneId(7), NodeId(1));
        r.interest_mut().subscribe(ZoneId(7), NodeId(3));
        let mut out = Vec::new();
        r.inbound_zoned_into(
            SimTime::ZERO,
            NodeId(100),
            256,
            Port(27960),
            &mut rng(),
            &mut out,
        )
        .unwrap();
        let nodes: Vec<u32> = out.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![1, 3]);
    }

    #[test]
    fn zoned_inbound_empty_zone_delivers_to_nobody() {
        use crate::interest::ZoneId;
        let mut r = router_with(3);
        r.interest_mut().map_port(Port(27960), ZoneId(0));
        let mut out = vec![(NodeId(77), SimTime::from_secs(9))]; // stale junk
        r.inbound_zoned_into(
            SimTime::ZERO,
            NodeId(100),
            256,
            Port(27960),
            &mut rng(),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty(), "mapped zone with no subscribers goes dark");
    }

    #[test]
    fn detach_node_purges_its_subscriptions() {
        use crate::interest::ZoneId;
        let mut r = router_with(3);
        r.interest_mut().map_port(Port(27960), ZoneId(0));
        r.interest_mut().subscribe(ZoneId(0), NodeId(1));
        r.detach_node(NodeId(1));
        assert!(r.interest().subscribers(ZoneId(0)).is_none());
        let mut out = Vec::new();
        r.inbound_zoned_into(
            SimTime::ZERO,
            NodeId(100),
            256,
            Port(27960),
            &mut rng(),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    /// Nodes attached out of order, one of them detached and re-attached:
    /// the dense link table keeps ascending node order in `nodes()`, in the
    /// broadcast fan-out and on the zoned path.
    #[test]
    fn sparse_out_of_order_attach_keeps_node_order() {
        use crate::interest::ZoneId;
        let mut r = BroadcastRouter::default_testbed();
        for n in [5, 2, 9] {
            r.attach_node(NodeId(n));
        }
        r.detach_node(NodeId(2));
        let ids = |r: &BroadcastRouter| r.nodes().map(|n| n.0).collect::<Vec<_>>();
        assert_eq!(ids(&r), vec![5, 9]);
        r.attach_node(NodeId(2));
        assert_eq!(ids(&r), vec![2, 5, 9]);
        r.attach_client(NodeId(100));
        let mut rng = rng();
        let fan = |out: &[(NodeId, SimTime)]| out.iter().map(|(n, _)| n.0).collect::<Vec<_>>();
        let arrivals = r
            .inbound(SimTime::ZERO, NodeId(100), 256, &mut rng)
            .unwrap();
        assert_eq!(fan(&arrivals), vec![2, 5, 9]);
        r.interest_mut().map_port(Port(27960), ZoneId(1));
        r.interest_mut().subscribe(ZoneId(1), NodeId(9));
        r.interest_mut().subscribe(ZoneId(1), NodeId(2));
        let mut out = Vec::new();
        for (port, expect) in [(27960, vec![2, 9]), (27961, vec![2, 5, 9])] {
            r.inbound_zoned_into(
                SimTime::from_secs(1),
                NodeId(100),
                256,
                Port(port),
                &mut rng,
                &mut out,
            )
            .unwrap();
            assert_eq!(fan(&out), expect, "port {port}");
        }
    }

    /// A detached id, or one past every attached node, is a typed error
    /// on every path — never an out-of-bounds panic.
    #[test]
    fn detached_and_unseen_ids_are_route_errors() {
        let mut r = router_with(3);
        r.detach_node(NodeId(1));
        r.detach_client(NodeId(100));
        r.detach_node(NodeId(4_000));
        r.detach_client(NodeId(4_000));
        r.attach_client(NodeId(101));
        let t = SimTime::ZERO;
        assert_eq!(
            r.outbound(t, NodeId(1), NodeId(101), 1, &mut rng()),
            Err(RouteError::UnknownNode(NodeId(1)))
        );
        assert_eq!(
            r.outbound(t, NodeId(4_000), NodeId(101), 1, &mut rng()),
            Err(RouteError::UnknownNode(NodeId(4_000)))
        );
        assert_eq!(
            r.outbound(t, NodeId(0), NodeId(100), 1, &mut rng()),
            Err(RouteError::UnknownClientDest(NodeId(100)))
        );
        assert_eq!(
            r.outbound(t, NodeId(0), NodeId(4_000), 1, &mut rng()),
            Err(RouteError::UnknownClientDest(NodeId(4_000)))
        );
        for client in [NodeId(100), NodeId(4_000)] {
            assert_eq!(
                r.inbound(t, client, 1, &mut rng()),
                Err(RouteError::UnknownClientSource(client))
            );
        }
        assert!(r.node_downlink_mut(NodeId(1)).is_none());
        assert!(r.node_downlink_mut(NodeId(4_000)).is_none());
        assert_eq!(r.nodes().map(|n| n.0).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn detach_client_releases_both_access_links() {
        let mut r = router_with(2);
        r.detach_client(NodeId(100));
        assert_eq!(
            r.inbound(SimTime::ZERO, NodeId(100), 1, &mut rng()),
            Err(RouteError::UnknownClientSource(NodeId(100)))
        );
        assert_eq!(
            r.outbound(SimTime::ZERO, NodeId(0), NodeId(100), 1, &mut rng()),
            Err(RouteError::UnknownClientDest(NodeId(100)))
        );
        // Re-attach works (a returning client gets fresh links).
        r.attach_client(NodeId(100));
        assert_eq!(
            r.inbound(SimTime::ZERO, NodeId(100), 256, &mut rng())
                .unwrap()
                .len(),
            2
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::link::LossModel;
    use proptest::prelude::*;

    fn loss_model() -> impl Strategy<Value = LossModel> {
        prop_oneof![
            Just(LossModel::None),
            (0.0f64..1.0).prop_map(LossModel::Bernoulli),
            (0.0f64..0.5, 1u32..5).prop_map(|(p, burst)| LossModel::Burst { p, burst }),
            (0u64..3_000, 0u64..3_000).prop_map(|(a, b)| LossModel::Window {
                from: SimTime::from_micros(a.min(b)),
                to: SimTime::from_micros(a.max(b)),
            }),
        ]
    }

    /// Two identically built routers: `losses[i]` on node `i`'s downlink,
    /// `uplink` on the client's uplink.
    fn twin_routers(losses: &[LossModel], uplink: LossModel) -> [BroadcastRouter; 2] {
        [(), ()].map(|_| {
            let mut r = BroadcastRouter::default_testbed();
            for (i, loss) in losses.iter().enumerate() {
                let node = NodeId(i as u32);
                r.attach_node(node);
                r.node_downlink_mut(node).unwrap().set_loss(*loss);
            }
            r.attach_client(NodeId(1000));
            r.client_uplinks
                .get_mut(NodeId(1000))
                .unwrap()
                .set_loss(uplink);
            r
        })
    }

    proptest! {
        /// With no zone mapped, the zoned inbound path is the broadcast:
        /// frame after frame, both give identical arrivals and leave the
        /// RNG in the same next state.
        #[test]
        fn zoned_path_without_zones_is_the_broadcast(
            losses in proptest::collection::vec(loss_model(), 0..24),
            uplink in loss_model(),
            frames in proptest::collection::vec((0u64..400, 1u64..2_000, 0u16..u16::MAX), 1..40),
            seed in 0u64..u64::MAX,
        ) {
            let [mut plain, mut zoned] = twin_routers(&losses, uplink);
            let mut rng_plain = DetRng::new(seed);
            let mut rng_zoned = DetRng::new(seed);
            let (mut out_plain, mut out_zoned) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for (gap, bytes, port) in frames {
                now += gap;
                plain
                    .inbound_into(now, NodeId(1000), bytes, &mut rng_plain, &mut out_plain)
                    .unwrap();
                zoned
                    .inbound_zoned_into(
                        now,
                        NodeId(1000),
                        bytes,
                        Port(port),
                        &mut rng_zoned,
                        &mut out_zoned,
                    )
                    .unwrap();
                prop_assert_eq!(&out_plain, &out_zoned);
                prop_assert_eq!(rng_plain.clone().next_u64(), rng_zoned.clone().next_u64());
            }
        }
    }
}
