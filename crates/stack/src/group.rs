//! The server stacks behind one ONE-IP public address, as the runtime that
//! delivers their broadcast copies sees them.
//!
//! Every node hears every inbound client frame and all but the port's
//! claimants drop it (§II-A). A runtime that knows which member stacks
//! claim a port can hand a frame to those alone, provided it learns of
//! every change in what the members claim and every member still counts
//! the copies it never saw. A [`RxGroup`] carries both, shared by the
//! member stacks and the runtime:
//!
//! * each member's port summaries report every port-set transition (a
//!   port's first claim, its last release) as a `(node, port)` pair, which
//!   the runtime reads in O(1) per transition;
//! * the runtime counts each frame every member drops unless it handles
//!   the frame itself once, and each member folds those counts into its
//!   [`StackStats`](crate::StackStats) when they are read.

use dvelm_net::{NodeId, Port};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Transitions kept before the log gives up and asks for a full rebuild:
/// a runtime that never reads them must not grow it without bound.
const MAX_PENDING: usize = 4096;

/// The shared receive state of a group of member stacks (see the module
/// docs). Cloning yields another handle to the same group.
#[derive(Clone, Default)]
pub struct RxGroup(Rc<GroupState>);

#[derive(Default)]
struct GroupState {
    /// `(node, port)` pairs whose claimed-or-not state changed on a member
    /// since the runtime last read them.
    changed: RefCell<Vec<(NodeId, Port)>>,
    /// Set when `changed` overflowed and was dropped.
    overflowed: Cell<bool>,
    /// Frames every member counts as dropped unless it handled the frame
    /// itself: `[checksum ok, checksum bad]`.
    unclaimed: Cell<[u64; 2]>,
}

/// What [`RxGroup::take_changes`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimChanges {
    /// These `(node, port)` pairs changed (possibly none).
    Listed(Vec<(NodeId, Port)>),
    /// Too many changed to list: re-read every member's claims.
    All,
}

impl RxGroup {
    /// An empty group.
    pub fn new() -> RxGroup {
        RxGroup::default()
    }

    /// Count one frame that every member drops unless it handles the frame
    /// itself through [`HostStack::on_rx_claimed`].
    ///
    /// [`HostStack::on_rx_claimed`]: crate::HostStack::on_rx_claimed
    #[inline]
    pub fn count_unclaimed(&self, checksum_ok: bool) {
        let mut counts = self.0.unclaimed.get();
        counts[usize::from(!checksum_ok)] += 1;
        self.0.unclaimed.set(counts);
    }

    /// The frames counted by [`count_unclaimed`](Self::count_unclaimed),
    /// `[checksum ok, checksum bad]`.
    pub(crate) fn unclaimed(&self) -> [u64; 2] {
        self.0.unclaimed.get()
    }

    /// Whether a member's claims changed since the last
    /// [`take_changes`](Self::take_changes).
    #[inline]
    pub fn has_changes(&self) -> bool {
        self.0.overflowed.get() || !self.0.changed.borrow().is_empty()
    }

    /// The changes since the last call.
    pub fn take_changes(&self) -> ClaimChanges {
        let changed = std::mem::take(&mut *self.0.changed.borrow_mut());
        if self.0.overflowed.replace(false) {
            ClaimChanges::All
        } else {
            ClaimChanges::Listed(changed)
        }
    }

    /// A member's claim on `port` appeared or went away.
    pub(crate) fn report(&self, node: NodeId, port: Port) {
        if self.0.overflowed.get() {
            return;
        }
        let mut changed = self.0.changed.borrow_mut();
        if changed.len() < MAX_PENDING {
            changed.push((node, port));
        } else {
            changed.clear();
            self.0.overflowed.set(true);
        }
    }
}

/// Handles compare by identity: two handles are equal when they name the
/// same group.
impl PartialEq for RxGroup {
    fn eq(&self, other: &RxGroup) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for RxGroup {}

impl std::fmt::Debug for RxGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxGroup")
            .field("pending", &self.0.changed.borrow().len())
            .field("unclaimed", &self.0.unclaimed.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changes_are_taken_once() {
        let g = RxGroup::new();
        assert_eq!(g.take_changes(), ClaimChanges::Listed(Vec::new()));
        assert!(!g.has_changes());
        g.clone().report(NodeId(1), Port(5000));
        assert!(g.has_changes());
        assert_eq!(
            g.take_changes(),
            ClaimChanges::Listed(vec![(NodeId(1), Port(5000))])
        );
        assert_eq!(g.take_changes(), ClaimChanges::Listed(Vec::new()));
    }

    #[test]
    fn an_unread_log_overflows_into_a_full_rebuild() {
        let g = RxGroup::new();
        for i in 0..=MAX_PENDING {
            g.report(NodeId(0), Port(i as u16));
        }
        assert_eq!(g.take_changes(), ClaimChanges::All);
        assert_eq!(g.take_changes(), ClaimChanges::Listed(Vec::new()));
    }

    #[test]
    fn unclaimed_frames_count_by_checksum() {
        let g = RxGroup::new();
        g.count_unclaimed(true);
        g.count_unclaimed(true);
        g.count_unclaimed(false);
        assert_eq!(g.unclaimed(), [2, 1]);
    }
}
