//! Zone/AOI interest management for the broadcast router.
//!
//! Real DVEs/MMOGs — the paper's own target domain — partition the virtual
//! world into zones and only ship a user's commands to the servers
//! *interested* in that zone. The single-IP broadcast model (§II-A) instead
//! delivers every inbound frame to every node, O(nodes) per packet, which
//! caps cluster size no matter how fast each delivery gets.
//!
//! The [`InterestTable`] restores the multicast property without giving up
//! the ONE-IP configuration: services are still addressed by **port** on the
//! shared public IP, and the table maps each service port to a [`ZoneId`]
//! and each zone to the set of subscribed server nodes. An inbound frame for
//! a mapped port fans out only to that zone's subscribers; frames for
//! unmapped ports keep the legacy full broadcast, so the capture-hook
//! loss-prevention semantics are preserved by construction — during a
//! migration the *destination* node subscribes to the process's zones at
//! capture setup, so it hears (and captures) the client's packets exactly
//! like it did under broadcast.
//!
//! The table is pure bookkeeping: it never draws randomness, never computes
//! times, and an empty/unused table leaves every legacy code path — and
//! therefore every legacy byte stream — untouched.

use crate::addr::{NodeId, Port};
use std::collections::{BTreeMap, BTreeSet};

/// A virtual-world zone as the *routing* layer sees it.
///
/// This deliberately mirrors (but does not depend on) the workload-side
/// 10×10 grid in `dvelm-dve`: the fabric only needs an opaque ordered key,
/// and the workload converts its grid coordinates via the public `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

impl std::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone{}", self.0)
    }
}

/// Zone → subscribed server nodes, plus service port → zone.
///
/// Owned by the [`BroadcastRouter`](crate::router::BroadcastRouter); the
/// cluster runtime mutates it through the effect pipeline
/// (`Effect::Subscribe`/`Effect::Unsubscribe`) so subscription changes ride
/// the same ordered, observable rails as every other migration side effect.
#[derive(Debug, Default)]
pub struct InterestTable {
    /// Which server nodes want frames for each zone.
    subs: BTreeMap<ZoneId, BTreeSet<NodeId>>,
    /// Which zone each service port belongs to (the public-IP port is the
    /// service identity in the ONE-IP configuration).
    ports: BTreeMap<Port, ZoneId>,
}

impl InterestTable {
    /// An empty table (legacy broadcast for every port).
    pub fn new() -> InterestTable {
        InterestTable::default()
    }

    /// Bind a service port to a zone. Frames for this port now fan out to
    /// the zone's subscribers instead of the full cluster.
    pub fn map_port(&mut self, port: Port, zone: ZoneId) {
        self.ports.insert(port, zone);
    }

    /// Remove a port's zone binding (the service is gone); its frames fall
    /// back to the legacy full broadcast.
    pub fn unmap_port(&mut self, port: Port) {
        self.ports.remove(&port);
    }

    /// The zone a service port is bound to, if any.
    pub fn zone_of_port(&self, port: Port) -> Option<ZoneId> {
        self.ports.get(&port).copied()
    }

    /// Subscribe a node to a zone. Returns whether the subscription is new.
    pub fn subscribe(&mut self, zone: ZoneId, node: NodeId) -> bool {
        self.subs.entry(zone).or_default().insert(node)
    }

    /// Unsubscribe a node from a zone. Returns whether it was subscribed.
    /// Empty zones are dropped so the table never accumulates tombstones.
    pub fn unsubscribe(&mut self, zone: ZoneId, node: NodeId) -> bool {
        let Some(set) = self.subs.get_mut(&zone) else {
            return false;
        };
        let removed = set.remove(&node);
        if set.is_empty() {
            self.subs.remove(&zone);
        }
        removed
    }

    /// The subscriber set of a zone (`None` when nobody is subscribed).
    pub fn subscribers(&self, zone: ZoneId) -> Option<&BTreeSet<NodeId>> {
        self.subs.get(&zone)
    }

    /// Drop every subscription held by `node` (node crash or departure —
    /// a dead node must not linger in any fan-out set).
    pub fn purge_node(&mut self, node: NodeId) {
        self.subs.retain(|_, set| {
            set.remove(&node);
            !set.is_empty()
        });
    }

    /// Iterate `(zone, subscribers)` — the invariant monitor sweeps this to
    /// catch subscriptions pointing at hosts that no longer own a process.
    pub fn iter(&self) -> impl Iterator<Item = (ZoneId, &BTreeSet<NodeId>)> {
        self.subs.iter().map(|(z, s)| (*z, s))
    }

    /// Number of zones with at least one subscriber.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether no zone has a subscriber.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_unsubscribe_roundtrip() {
        let mut t = InterestTable::new();
        assert!(t.subscribe(ZoneId(3), NodeId(1)));
        assert!(!t.subscribe(ZoneId(3), NodeId(1)), "idempotent");
        assert!(t.subscribe(ZoneId(3), NodeId(2)));
        assert_eq!(t.subscribers(ZoneId(3)).unwrap().len(), 2);
        assert!(t.unsubscribe(ZoneId(3), NodeId(1)));
        assert!(!t.unsubscribe(ZoneId(3), NodeId(1)), "already gone");
        assert_eq!(t.subscribers(ZoneId(3)).unwrap().len(), 1);
    }

    #[test]
    fn empty_zones_are_dropped() {
        let mut t = InterestTable::new();
        t.subscribe(ZoneId(7), NodeId(4));
        t.unsubscribe(ZoneId(7), NodeId(4));
        assert!(t.subscribers(ZoneId(7)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn port_mapping() {
        let mut t = InterestTable::new();
        t.map_port(Port(27960), ZoneId(0));
        assert_eq!(t.zone_of_port(Port(27960)), Some(ZoneId(0)));
        assert_eq!(t.zone_of_port(Port(27961)), None);
        t.unmap_port(Port(27960));
        assert_eq!(t.zone_of_port(Port(27960)), None);
    }

    #[test]
    fn purge_node_clears_every_zone() {
        let mut t = InterestTable::new();
        t.subscribe(ZoneId(1), NodeId(9));
        t.subscribe(ZoneId(2), NodeId(9));
        t.subscribe(ZoneId(2), NodeId(5));
        t.purge_node(NodeId(9));
        assert!(t.subscribers(ZoneId(1)).is_none());
        assert_eq!(t.subscribers(ZoneId(2)).unwrap().len(), 1);
        assert!(t.iter().all(|(_, set)| !set.contains(&NodeId(9))));
    }
}
