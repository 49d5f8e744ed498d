//! Netfilter-style hook points (§V-B, §V-D).
//!
//! The kernel prototype attaches its packet-capturing and address-translation
//! functions to `NF_INET_LOCAL_IN` and `NF_INET_LOCAL_OUT`. We model the same
//! interposition points: the host stack traverses the registered hook kinds
//! in order on every locally-delivered / locally-originated segment, applying
//! the corresponding filter table. The registry exists so tests and ablations
//! can disable or reorder hooks — e.g. running a migration with the capture
//! hook removed reproduces the incoming-packet-loss problem the paper cites.

/// Where a hook is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// Packets delivered to this host (`NF_INET_LOCAL_IN`).
    LocalIn,
    /// Packets originated by this host (`NF_INET_LOCAL_OUT`).
    LocalOut,
}

/// The built-in hook functions of the migration system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookKind {
    /// Address translation for migrated in-cluster connections (§V-D).
    Translate,
    /// Packet capture for incoming-packet-loss prevention (§V-B).
    Capture,
}

/// Result of running a segment through one hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Continue down the chain / deliver.
    Accept,
    /// The hook consumed the segment (e.g. queued it for reinjection).
    Stolen,
}

/// Upper bound on chain length: [`HookRegistry::register`] keeps each
/// [`HookKind`] at most once and only two kinds exist.
pub const MAX_CHAIN_LEN: usize = 2;

/// One hook point's chain, stored inline: the RX path reads it for every
/// arriving frame — 64 times per broadcast on a 64-node cluster — and an
/// inline array costs no pointer chase into the heap.
#[derive(Debug, Clone, Copy)]
struct Chain {
    kinds: [HookKind; MAX_CHAIN_LEN],
    len: usize,
}

impl Chain {
    fn of(kinds: &[HookKind]) -> Chain {
        let mut chain = Chain {
            kinds: [HookKind::Translate; MAX_CHAIN_LEN],
            len: 0,
        };
        for &kind in kinds {
            chain.push(kind);
        }
        chain
    }

    fn as_slice(&self) -> &[HookKind] {
        &self.kinds[..self.len]
    }

    /// Append `kind` if absent; with each kind at most once the chain never
    /// outgrows [`MAX_CHAIN_LEN`].
    fn push(&mut self, kind: HookKind) {
        if !self.as_slice().contains(&kind) {
            self.kinds[self.len] = kind;
            self.len += 1;
        }
    }

    fn remove(&mut self, kind: HookKind) -> bool {
        let Some(i) = self.as_slice().iter().position(|&k| k == kind) else {
            return false;
        };
        self.kinds.copy_within(i + 1..self.len, i);
        self.len -= 1;
        true
    }
}

/// Per-hook-point ordered registry.
#[derive(Debug, Clone)]
pub struct HookRegistry {
    local_in: Chain,
    local_out: Chain,
}

impl Default for HookRegistry {
    /// The prototype's configuration: translation runs before capture on the
    /// input path (a translated segment must be matchable by its rewritten
    /// addresses), translation only on the output path.
    fn default() -> Self {
        HookRegistry {
            local_in: Chain::of(&[HookKind::Translate, HookKind::Capture]),
            local_out: Chain::of(&[HookKind::Translate]),
        }
    }
}

impl HookRegistry {
    fn at(&self, point: HookPoint) -> &Chain {
        match point {
            HookPoint::LocalIn => &self.local_in,
            HookPoint::LocalOut => &self.local_out,
        }
    }

    fn at_mut(&mut self, point: HookPoint) -> &mut Chain {
        match point {
            HookPoint::LocalIn => &mut self.local_in,
            HookPoint::LocalOut => &mut self.local_out,
        }
    }

    /// Hooks registered at `point`, in traversal order.
    pub fn chain(&self, point: HookPoint) -> &[HookKind] {
        self.at(point).as_slice()
    }

    /// An owned inline copy of the chain at `point` (valid prefix length in
    /// `.1`): the RX hot path traverses hooks while mutating the tables they
    /// drive, and the copy makes that borrow-safe without a per-packet
    /// allocation.
    pub fn chain_copy(&self, point: HookPoint) -> ([HookKind; MAX_CHAIN_LEN], usize) {
        let chain = self.at(point);
        (chain.kinds, chain.len)
    }

    /// Remove a hook from a chain (ablation support). Returns whether it was
    /// present.
    pub fn unregister(&mut self, point: HookPoint, kind: HookKind) -> bool {
        self.at_mut(point).remove(kind)
    }

    /// Append a hook to a chain if absent.
    pub fn register(&mut self, point: HookPoint, kind: HookKind) {
        self.at_mut(point).push(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chains_match_prototype() {
        let r = HookRegistry::default();
        assert_eq!(
            r.chain(HookPoint::LocalIn),
            &[HookKind::Translate, HookKind::Capture]
        );
        assert_eq!(r.chain(HookPoint::LocalOut), &[HookKind::Translate]);
    }

    #[test]
    fn unregister_removes_only_that_kind() {
        let mut r = HookRegistry::default();
        assert!(r.unregister(HookPoint::LocalIn, HookKind::Capture));
        assert_eq!(r.chain(HookPoint::LocalIn), &[HookKind::Translate]);
        assert!(
            !r.unregister(HookPoint::LocalIn, HookKind::Capture),
            "already gone"
        );
    }

    #[test]
    fn unregistering_the_head_keeps_the_tail_in_order() {
        let mut r = HookRegistry::default();
        assert!(r.unregister(HookPoint::LocalIn, HookKind::Translate));
        assert_eq!(r.chain(HookPoint::LocalIn), &[HookKind::Capture]);
        let (copy, len) = r.chain_copy(HookPoint::LocalIn);
        assert_eq!(&copy[..len], &[HookKind::Capture]);
        r.register(HookPoint::LocalIn, HookKind::Translate);
        assert_eq!(
            r.chain(HookPoint::LocalIn),
            &[HookKind::Capture, HookKind::Translate]
        );
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = HookRegistry::default();
        r.register(HookPoint::LocalIn, HookKind::Capture);
        assert_eq!(r.chain(HookPoint::LocalIn).len(), 2);
        r.unregister(HookPoint::LocalIn, HookKind::Capture);
        r.register(HookPoint::LocalIn, HookKind::Capture);
        assert_eq!(
            r.chain(HookPoint::LocalIn),
            &[HookKind::Translate, HookKind::Capture]
        );
    }
}
