//! One pending retransmission fire per socket.
//!
//! The kernel the paper modifies gives each socket one `timer_list`, and
//! `sk_reset_timer` → `mod_timer` moves its expiry; §V-C1 only restarts
//! that timer on the destination. A socket re-arms on nearly every ACK, so
//! pushing one event per [`StackEffect::ArmTimer`] would fill the event
//! queue with fires that pop for nothing. [`SockTimers`] keeps, per socket,
//! the key of the one fire in the queue and the key and generation of the
//! latest arm:
//!
//! * an arm takes its dispatch key from the scheduler at arm time, and
//!   pushes a fire only if none is pending or the pending one is later;
//! * a pending fire that pops before the latest arm's key is pushed again
//!   at that key;
//! * a fire at the latest arm's key hands its generation to
//!   [`HostStack::on_timer`].
//!
//! Since every arm's key is reserved when the arm is made, the fire that
//! reaches `on_timer` dispatches at exactly the key a push per arm would
//! have given it, and no other event moves. The older arms' fires could
//! never act: `on_timer` ignores a generation the socket has moved past
//! and a deadline not yet reached.
//!
//! An arm to an earlier deadline pushes a second fire and leaves the old
//! one in the queue: it is superseded, and [`SockTimers::fire`] drops it
//! when it pops. A binary heap cannot remove it sooner without a handle on
//! every entry, which every ACK would then pay for.
//!
//! [`StackEffect::ArmTimer`]: crate::StackEffect::ArmTimer
//! [`HostStack::on_timer`]: crate::HostStack::on_timer

use crate::host::SockId;
use crate::socktable::SockTable;
use dvelm_sim::DispatchKey;

/// One socket's timer: its pending fire and its latest arm.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Key of the one live fire in the queue; never later than `latest`.
    pending: DispatchKey,
    /// Key reserved by the latest arm.
    latest: DispatchKey,
    /// Generation the latest arm carried.
    gen: u64,
}

/// What a popped fire must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerFire {
    /// A later arm superseded this fire, or the socket's timer already ran:
    /// drop it.
    Stale,
    /// The latest arm is due: call `HostStack::on_timer` with this
    /// generation.
    Due(u64),
    /// The latest arm is later: push the fire again at this key.
    Requeue(DispatchKey),
}

/// The retransmission timers of one host's sockets, at most one pending
/// fire each, in a dense [`SockTable`].
#[derive(Debug, Default)]
pub struct SockTimers {
    slots: SockTable<Slot>,
}

impl SockTimers {
    /// No timer armed.
    pub const fn new() -> Self {
        SockTimers {
            slots: SockTable::new(),
        }
    }

    /// Record an arm of `sock` with generation `gen` at a dispatch key the
    /// caller reserved for it. Returns true if the caller must push a fire
    /// at `key`: no fire is pending, or the pending one is later.
    pub fn arm(&mut self, sock: SockId, gen: u64, key: DispatchKey) -> bool {
        let Some(slot) = self.slots.get_mut(sock) else {
            self.slots.insert(
                sock,
                Slot {
                    pending: key,
                    latest: key,
                    gen,
                },
            );
            return true;
        };
        slot.latest = key;
        slot.gen = gen;
        if key < slot.pending {
            slot.pending = key;
            return true;
        }
        false
    }

    /// A fire of `sock` pushed at `key` popped.
    pub fn fire(&mut self, sock: SockId, key: DispatchKey) -> TimerFire {
        let Some(slot) = self.slots.get_mut(sock) else {
            return TimerFire::Stale;
        };
        if slot.pending != key {
            return TimerFire::Stale;
        }
        if slot.latest == key {
            let gen = slot.gen;
            self.slots.remove(sock);
            return TimerFire::Due(gen);
        }
        slot.pending = slot.latest;
        TimerFire::Requeue(slot.latest)
    }

    /// Key of `sock`'s one live fire, if it has one.
    pub fn pending(&self, sock: SockId) -> Option<DispatchKey> {
        self.slots.get(sock).map(|s| s.pending)
    }

    /// Number of sockets with a live fire.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no socket has a live fire.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_sim::SimTime;

    fn key(at_us: u64, seq: u64) -> DispatchKey {
        DispatchKey {
            at: SimTime::from_micros(at_us),
            seq,
        }
    }

    #[test]
    fn a_later_rearm_moves_the_deadline_without_a_push() {
        let mut t = SockTimers::new();
        let s = SockId(1);
        assert!(t.arm(s, 0, key(200, 0)));
        assert!(!t.arm(s, 1, key(250, 5)));
        assert_eq!(t.fire(s, key(200, 0)), TimerFire::Requeue(key(250, 5)));
        assert_eq!(t.fire(s, key(250, 5)), TimerFire::Due(1));
        assert!(t.is_empty());
    }

    #[test]
    fn an_earlier_rearm_pushes_and_supersedes_the_pending_fire() {
        let mut t = SockTimers::new();
        let s = SockId(1);
        assert!(t.arm(s, 0, key(400, 0)));
        assert!(t.arm(s, 1, key(300, 3)));
        assert_eq!(t.pending(s), Some(key(300, 3)));
        assert_eq!(t.fire(s, key(300, 3)), TimerFire::Due(1));
        assert_eq!(t.fire(s, key(400, 0)), TimerFire::Stale);
        assert_eq!(t.len(), 0);
    }
}
