//! The in-cluster switch connecting the nodes' *local* interfaces.
//!
//! Carries migration traffic (precopy pages, aggregated socket buffers,
//! capture/translation control messages), conductor heartbeats and
//! database sessions. Star topology: each host has an uplink to and a
//! downlink from the switch, all Gigabit by default.

use crate::addr::NodeId;
use crate::link::{Link, NodeLinks};
use dvelm_sim::{DetRng, SimTime};

/// The local-network switch.
#[derive(Debug)]
pub struct ClusterSwitch {
    uplinks: NodeLinks,
    downlinks: NodeLinks,
    template: Link,
}

impl ClusterSwitch {
    /// A switch whose port links are copies of `link`.
    pub fn new(link: Link) -> ClusterSwitch {
        ClusterSwitch {
            uplinks: NodeLinks::default(),
            downlinks: NodeLinks::default(),
            template: link,
        }
    }

    /// A Gigabit switch as on the paper's testbed.
    pub fn gige() -> ClusterSwitch {
        ClusterSwitch::new(Link::gige())
    }

    /// Attach a host's local interface.
    pub fn attach(&mut self, node: NodeId) {
        self.uplinks.attach(node, self.template.clone());
        self.downlinks.attach(node, self.template.clone());
    }

    /// Detach a host.
    pub fn detach(&mut self, node: NodeId) {
        self.uplinks.detach(node);
        self.downlinks.detach(node);
    }

    /// Whether a host is attached.
    pub fn is_attached(&self, node: NodeId) -> bool {
        self.uplinks.contains(node)
    }

    /// Attached hosts.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.uplinks.nodes()
    }

    /// Unicast a frame from `src` to `dst`; returns the arrival instant.
    pub fn unicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Option<SimTime> {
        let up = self
            .uplinks
            .get_mut(src)
            .unwrap_or_else(|| panic!("{src} not attached to switch"));
        let at_switch = up.transmit(now, bytes, rng)?;
        let down = self
            .downlinks
            .get_mut(dst)
            .unwrap_or_else(|| panic!("{dst} not attached to switch"));
        down.transmit(at_switch, bytes, rng)
    }

    /// Broadcast a frame from `src` to every other attached host (used by
    /// conductor discovery and the periodic load heartbeat).
    pub fn broadcast(
        &mut self,
        now: SimTime,
        src: NodeId,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Vec<(NodeId, SimTime)> {
        let up = self
            .uplinks
            .get_mut(src)
            .unwrap_or_else(|| panic!("{src} not attached to switch"));
        let Some(at_switch) = up.transmit(now, bytes, rng) else {
            return Vec::new();
        };
        self.downlinks
            .iter_mut()
            .filter(|(node, _)| *node != src)
            .filter_map(|(node, link)| link.transmit(at_switch, bytes, rng).map(|t| (node, t)))
            .collect()
    }

    /// Mutable access to a host's downlink (for loss injection in tests).
    pub fn downlink_mut(&mut self, node: NodeId) -> Option<&mut Link> {
        self.downlinks.get_mut(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(11)
    }

    fn switch_with(n: u32) -> ClusterSwitch {
        let mut s = ClusterSwitch::gige();
        for i in 0..n {
            s.attach(NodeId(i));
        }
        s
    }

    #[test]
    fn unicast_arrives_after_two_hops() {
        let mut s = switch_with(2);
        let arr = s
            .unicast(SimTime::ZERO, NodeId(0), NodeId(1), 1_000, &mut rng())
            .unwrap();
        // two serializations (8 µs each) + two latencies (50 µs each)
        assert_eq!(arr, SimTime::from_micros(2 * 8 + 2 * 50));
    }

    #[test]
    fn broadcast_excludes_sender() {
        let mut s = switch_with(4);
        let arr = s.broadcast(SimTime::ZERO, NodeId(2), 100, &mut rng());
        let nodes: Vec<u32> = arr.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 1, 3]);
    }

    #[test]
    fn self_unicast_loops_back() {
        // Loopback through the switch is allowed (used by single-node tests).
        let mut s = switch_with(1);
        assert!(s
            .unicast(SimTime::ZERO, NodeId(0), NodeId(0), 10, &mut rng())
            .is_some());
    }

    #[test]
    fn detach_removes_host() {
        let mut s = switch_with(3);
        assert!(s.is_attached(NodeId(1)));
        s.detach(NodeId(1));
        assert!(!s.is_attached(NodeId(1)));
        let arr = s.broadcast(SimTime::ZERO, NodeId(0), 10, &mut rng());
        assert_eq!(arr.len(), 1);
    }

    /// Hosts attached out of order, one detached and re-attached: the
    /// dense link table keeps ascending host order in `hosts()` and in the
    /// broadcast, and `is_attached` answers for ids it never saw.
    #[test]
    fn sparse_out_of_order_attach_keeps_host_order() {
        let mut s = ClusterSwitch::gige();
        for n in [5, 2, 9] {
            s.attach(NodeId(n));
        }
        s.detach(NodeId(2));
        assert!(!s.is_attached(NodeId(2)));
        s.attach(NodeId(2));
        let hosts: Vec<u32> = s.hosts().map(|n| n.0).collect();
        assert_eq!(hosts, vec![2, 5, 9]);
        assert!(s.is_attached(NodeId(2)) && s.is_attached(NodeId(9)));
        assert!(!s.is_attached(NodeId(3)) && !s.is_attached(NodeId(1_000)));
        let arr = s.broadcast(SimTime::ZERO, NodeId(5), 100, &mut rng());
        let nodes: Vec<u32> = arr.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![2, 9]);
        s.detach(NodeId(1_000)); // unseen id: a no-op
        assert_eq!(s.hosts().count(), 3);
    }

    #[test]
    fn bulk_transfer_occupies_uplink() {
        let mut s = switch_with(3);
        let mut r = rng();
        // 3.5 MB aggregated socket buffer: 28 ms serialization on GigE.
        let big = s
            .unicast(SimTime::ZERO, NodeId(0), NodeId(1), 3_500_000, &mut r)
            .unwrap();
        assert!(big >= SimTime::from_millis(28), "arrival {big}");
        // A frame right behind it on the same uplink queues.
        let next = s
            .unicast(SimTime::ZERO, NodeId(0), NodeId(2), 100, &mut r)
            .unwrap();
        assert!(next > SimTime::from_millis(28), "arrival {next}");
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn unknown_source_panics() {
        let mut s = switch_with(1);
        s.unicast(SimTime::ZERO, NodeId(9), NodeId(0), 1, &mut rng());
    }
}
