//! Spanning-tree load dissemination.
//!
//! The paper's information policy broadcasts every node's load to every
//! other node and notes that "mechanisms for scalable broadcasting, such as
//! utilizing spanning-trees, have been proposed \[18\], and are out of the
//! scope of this paper". This module implements that out-of-scope option: a
//! balanced binary tree rooted at the message's origin, computed
//! deterministically from the sorted member list, so a heartbeat reaches
//! `n-1` nodes with at most 2 transmissions per relay and `O(log n)` depth
//! instead of `n-1` transmissions at the origin.

use dvelm_net::NodeId;

/// How conductors disseminate heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dissemination {
    /// The paper's configuration: the origin sends to everyone.
    #[default]
    FlatBroadcast,
    /// Balanced binary spanning tree rooted at the origin; every receiver
    /// relays to its children.
    SpanningTree,
}

/// Children of `node` in the binary spanning tree over `members` (sorted,
/// deduplicated) rooted at `root`. Nodes outside the member list have no
/// children; an unknown root falls back to treating the first member as
/// root.
pub fn tree_children(members: &[NodeId], root: NodeId, node: NodeId) -> Vec<NodeId> {
    let mut sorted: Vec<NodeId> = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let pos = |x: NodeId| sorted.iter().position(|m| *m == x);
    let Some(node_pos) = pos(node) else {
        return Vec::new();
    };
    let root_pos = pos(root).unwrap_or(0);
    // Rotate so the root sits at virtual index 0; heap-index children.
    let virt = (node_pos + n - root_pos) % n;
    let mut out = Vec::with_capacity(2);
    for child_virt in [2 * virt + 1, 2 * virt + 2] {
        if child_virt < n {
            out.push(sorted[(child_virt + root_pos) % n]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// Depth of the tree over `n` members (relay hops from root to the
    /// deepest leaf): ceil(log2(n)) for the heap shape.
    fn tree_depth(n: usize) -> u32 {
        if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        }
    }

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Simulate dissemination from `root`; returns (received set, per-node
    /// send counts, observed depth).
    fn disseminate(members: &[NodeId], root: NodeId) -> (HashSet<NodeId>, Vec<usize>, u32) {
        let mut received = HashSet::new();
        let mut sends = vec![0usize; members.len()];
        let mut depth = 0;
        let mut frontier: VecDeque<(NodeId, u32)> = VecDeque::new();
        frontier.push_back((root, 0));
        while let Some((node, d)) = frontier.pop_front() {
            depth = depth.max(d);
            for child in tree_children(members, root, node) {
                sends[node.0 as usize] += 1;
                assert!(received.insert(child), "{child} received twice");
                frontier.push_back((child, d + 1));
            }
        }
        (received, sends, depth)
    }

    #[test]
    fn every_member_receives_exactly_once() {
        for n in [1u32, 2, 3, 5, 8, 16, 33] {
            let members = nodes(n);
            for root in &members {
                let (received, _, _) = disseminate(&members, *root);
                assert_eq!(received.len() as u32, n - 1, "n={n} root={root}");
                assert!(!received.contains(root), "root does not self-deliver");
            }
        }
    }

    #[test]
    fn fanout_is_at_most_two() {
        let members = nodes(33);
        let (_, sends, _) = disseminate(&members, NodeId(7));
        assert!(sends.iter().all(|s| *s <= 2), "{sends:?}");
        // vs flat broadcast: the origin alone would send 32.
        let total: usize = sends.iter().sum();
        assert_eq!(total, 32, "one transmission per non-root member");
    }

    #[test]
    fn depth_is_logarithmic() {
        let members = nodes(32);
        let (_, _, depth) = disseminate(&members, NodeId(0));
        assert_eq!(depth, tree_depth(32));
        assert_eq!(tree_depth(32), 5);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(1), 0);
    }

    #[test]
    fn rotation_makes_any_member_a_root() {
        let members = nodes(8);
        // Trees rooted at different nodes differ, but all are complete.
        let (r3, _, _) = disseminate(&members, NodeId(3));
        let (r6, _, _) = disseminate(&members, NodeId(6));
        assert_eq!(r3.len(), 7);
        assert_eq!(r6.len(), 7);
        assert!(r3.contains(&NodeId(6)));
        assert!(r6.contains(&NodeId(3)));
    }

    #[test]
    fn non_member_has_no_children() {
        let members = nodes(4);
        assert!(tree_children(&members, NodeId(0), NodeId(99)).is_empty());
        assert!(tree_children(&[], NodeId(0), NodeId(0)).is_empty());
    }
}
