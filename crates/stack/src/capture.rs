//! Incoming-packet-loss prevention: the capture table (§III-B, §V-B).
//!
//! Before a socket is disabled on the source node, the *destination* node
//! enables capturing for the connection — keyed by remote IP, remote port and
//! local port, exactly the triple the paper transfers. While the socket is in
//! transit, the broadcast router still delivers the client's packets to the
//! destination node, where the `LOCAL_IN` hook steals and queues them. TCP
//! sequence numbers deduplicate retransmitted packets ("stores duplicated
//! packets only once"). After the socket is restored, the queue is drained in
//! sequence order and each packet is re-submitted to the stack via the
//! equivalent of netfilter's `okfn()`.

use crate::ports::PortClaims;
use crate::seg::{Segment, Transport};
use dvelm_net::{Port, SockAddr};
use dvelm_sim::SimTime;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// What a capture entry matches: the migrating socket's local port plus, for
/// connected (TCP) sockets, the remote endpoint. A UDP server socket talks to
/// many remotes, so its entry matches on local port alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CaptureKey {
    /// Local port of the migrating socket.
    pub local_port: Port,
    /// Remote endpoint; `None` matches any remote (UDP server sockets).
    pub remote: Option<SockAddr>,
}

impl CaptureKey {
    /// Key for a connected socket (the paper's TCP triple).
    pub fn connected(remote: SockAddr, local_port: Port) -> CaptureKey {
        CaptureKey {
            local_port,
            remote: Some(remote),
        }
    }

    /// Key for an unconnected (server) socket: any remote.
    pub fn any_remote(local_port: Port) -> CaptureKey {
        CaptureKey {
            local_port,
            remote: None,
        }
    }
}

/// What to do when a TCP capture queue hits its [`CaptureBudget`].
///
/// UDP always sheds oldest-first (datagram loss is part of the service
/// model). TCP is the policy decision: the dedup key already coalesces
/// retransmissions for free, so the only question is what happens to a
/// *new* segment that does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpShedPolicy {
    /// Refuse the new segment at the hook. The drop is indistinguishable
    /// from wire loss: the sender's retransmission timer re-offers the
    /// segment, and dedup stores it once when room exists (or it is
    /// delivered normally once the socket is restored). No TCP state is
    /// lost — recovery is deferred to the protocol.
    CoalesceBySeq,
    /// Never shed TCP under pressure: report a hard failure so the caller
    /// aborts the migration instead (the compensating-effect rollback then
    /// resumes the source copy, which ACKs normally). Use when deferring
    /// to retransmission is unacceptable.
    HardFail,
}

/// Byte/packet budget for one capture entry. The default is unlimited,
/// which reproduces the paper's (unbounded) behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureBudget {
    /// Max packets queued per entry (TCP + UDP together).
    pub max_packets: usize,
    /// Max payload bytes queued per entry.
    pub max_bytes: usize,
    /// What to do when a new TCP segment does not fit.
    pub tcp_policy: TcpShedPolicy,
}

impl CaptureBudget {
    /// No limits: capture everything, as the paper does.
    pub const UNLIMITED: CaptureBudget = CaptureBudget {
        max_packets: usize::MAX,
        max_bytes: usize::MAX,
        tcp_policy: TcpShedPolicy::CoalesceBySeq,
    };

    /// A bounded budget with the default (coalesce) TCP policy.
    pub fn bounded(max_packets: usize, max_bytes: usize) -> CaptureBudget {
        CaptureBudget {
            max_packets,
            max_bytes,
            tcp_policy: TcpShedPolicy::CoalesceBySeq,
        }
    }

    /// Whether this budget can ever shed.
    pub fn is_unlimited(&self) -> bool {
        self.max_packets == usize::MAX && self.max_bytes == usize::MAX
    }
}

impl Default for CaptureBudget {
    fn default() -> CaptureBudget {
        CaptureBudget::UNLIMITED
    }
}

/// What [`CaptureTable::capture`] did with a segment. Every outcome the
/// budget forced carries its [`PressureEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureOutcome {
    /// No enabled entry matches; the hook passes the packet on.
    NotMatched,
    /// Stolen and queued.
    Captured,
    /// Stolen; an identical (seq, len) segment was already queued — stored
    /// once (the coalesce that makes TCP shedding safe).
    Duplicate,
    /// Stolen and queued after shedding the oldest queued UDP datagram(s)
    /// to make room.
    CapturedShedOldest(PressureEvent),
    /// Refused under budget pressure. The packet must be treated as lost
    /// on the wire; the transport (TCP retransmission) or the service
    /// model (UDP best-effort) recovers.
    RefusedRecoverable(PressureEvent),
    /// Refused under [`TcpShedPolicy::HardFail`]: queueing would exceed
    /// the budget and shedding is forbidden. The caller must abort the
    /// migration so the source copy resumes and ACKs the retransmission.
    HardFailRefused(PressureEvent),
}

/// Why a [`PressureEvent`] was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureKind {
    /// Oldest UDP datagram(s) shed to admit a new one.
    ShedOldestUdp,
    /// New UDP datagram refused (the queue is full of TCP segments or the
    /// datagram alone exceeds the byte budget).
    RefusedUdp,
    /// New TCP segment refused; retransmission recovers it.
    RefusedTcp,
    /// New TCP segment refused under [`TcpShedPolicy::HardFail`].
    HardFail,
}

/// A budget-pressure incident on one capture queue, handed out with the
/// [`CaptureOutcome`] so the world can surface it on the owning
/// migration's effect stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureEvent {
    /// The capture entry whose budget was hit.
    pub key: CaptureKey,
    /// What the budget forced (shed, refusal, escalation).
    pub kind: PressureKind,
    /// Occupancy after the incident, packets.
    pub queued_packets: u64,
    /// Occupancy after the incident, bytes.
    pub queued_bytes: u64,
    /// Packets shed or refused by this incident.
    pub shed_packets: u64,
}

/// One enabled capture, with its queued packets.
#[derive(Debug, Clone)]
struct CaptureEntry {
    /// TCP packets keyed by (seq, len) — the dedup the hook performs.
    tcp_queue: BTreeMap<(u32, u32), Segment>,
    /// UDP packets in arrival order (no sequence numbers to dedup on);
    /// a deque because budget pressure sheds oldest-first.
    udp_queue: VecDeque<Segment>,
    enabled_at: SimTime,
    /// Packets discarded as duplicates.
    duplicates: u64,
    /// Payload bytes currently queued (both queues).
    queued_bytes: usize,
    /// Payload bytes of `udp_queue` alone (kept incrementally so the hot
    /// path never re-sums the queue to split UDP from TCP occupancy).
    udp_bytes: usize,
}

impl CaptureEntry {
    fn queued_packets(&self) -> usize {
        self.tcp_queue.len() + self.udp_queue.len()
    }
}

/// Counters for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Segments stolen and queued by the `LOCAL_IN` hook.
    pub captured: u64,
    /// Retransmissions coalesced by the seq dedup key.
    pub duplicates: u64,
    /// Queued segments re-submitted to the stack after restore.
    pub reinjected: u64,
    /// Enable attempts refused by an armed failure (fault injection).
    pub install_failures: u64,
    /// UDP datagrams shed (oldest-first) or refused under budget pressure.
    pub shed_udp: u64,
    /// TCP segments refused under [`TcpShedPolicy::CoalesceBySeq`]
    /// pressure (recovered by retransmission).
    pub shed_tcp_refused: u64,
    /// TCP segments refused under [`TcpShedPolicy::HardFail`] (each one
    /// demands a migration abort).
    pub hard_failures: u64,
    /// High-water mark of packets queued in any single entry.
    pub peak_queued_packets: u64,
    /// High-water mark of payload bytes queued in any single entry.
    pub peak_queued_bytes: u64,
}

/// The per-host capture table consulted by the `LOCAL_IN` hook.
#[derive(Debug, Default)]
pub struct CaptureTable {
    entries: BTreeMap<CaptureKey, CaptureEntry>,
    /// The local ports of `entries`' keys: the receive path's summary of
    /// which frames this table could steal.
    ports: PortClaims,
    stats: CaptureStats,
    /// Fault injection: the next this many [`try_enable`](Self::try_enable)
    /// calls fail (a hook registration the kernel refused).
    armed_failures: u32,
    /// Per-entry budget applied by [`capture`](Self::capture).
    budget: CaptureBudget,
}

impl CaptureTable {
    /// An empty table.
    pub fn new() -> CaptureTable {
        CaptureTable::default()
    }

    /// Enable capturing for `key`. Idempotent: re-enabling keeps already
    /// captured packets.
    pub fn enable(&mut self, key: CaptureKey, now: SimTime) {
        if let Entry::Vacant(slot) = self.entries.entry(key) {
            slot.insert(CaptureEntry {
                tcp_queue: BTreeMap::new(),
                udp_queue: VecDeque::new(),
                enabled_at: now,
                duplicates: 0,
                queued_bytes: 0,
                udp_bytes: 0,
            });
            self.ports.add(key.local_port);
        }
    }

    /// Set the per-entry byte/packet budget (default: unlimited).
    pub fn set_budget(&mut self, budget: CaptureBudget) {
        self.budget = budget;
    }

    /// The budget [`capture`](Self::capture) enforces.
    pub fn budget(&self) -> CaptureBudget {
        self.budget
    }

    /// Fallible [`enable`](Self::enable): fails (returning `false`) while
    /// armed failures remain. The infallible `enable` ignores arming, so
    /// existing callers are unaffected.
    pub fn try_enable(&mut self, key: CaptureKey, now: SimTime) -> bool {
        if self.armed_failures > 0 {
            self.armed_failures -= 1;
            self.stats.install_failures += 1;
            return false;
        }
        self.enable(key, now);
        true
    }

    /// Fault injection: make the next `n` [`try_enable`](Self::try_enable)
    /// calls fail.
    pub fn arm_enable_failures(&mut self, n: u32) {
        self.armed_failures = n;
    }

    /// Number of enabled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are enabled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether capturing is enabled for `key`.
    pub fn is_enabled(&self, key: &CaptureKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Whether any enabled entry has local port `port`. A frame to a port
    /// no entry claims is never stolen.
    #[inline]
    pub(crate) fn claims_port(&self, port: Port) -> bool {
        self.ports.claims(port)
    }

    /// The key [`capture`](Self::capture) looks `seg` up under: the
    /// connected key for its source when that entry is enabled, else the
    /// wildcard for its destination port.
    fn lookup_key(&self, seg: &Segment) -> CaptureKey {
        let connected = CaptureKey::connected(seg.src, seg.dst.port);
        if self.entries.contains_key(&connected) {
            connected
        } else {
            CaptureKey::any_remote(seg.dst.port)
        }
    }

    /// Whether [`capture`](Self::capture) would find an entry for `seg`.
    pub(crate) fn matches(&self, seg: &Segment) -> bool {
        self.entries.contains_key(&self.lookup_key(seg))
    }

    /// Packets currently queued under `key`.
    pub fn queued(&self, key: &CaptureKey) -> usize {
        self.entries
            .get(key)
            .map(|e| e.tcp_queue.len() + e.udp_queue.len())
            .unwrap_or(0)
    }

    /// Hook function: if the segment matches an enabled entry, steal it.
    /// Returns `true` when stolen. Budget refusals return `false`: the
    /// packet falls through the hook exactly as wire loss would.
    pub fn try_capture(&mut self, seg: &Segment) -> bool {
        matches!(
            self.capture(seg),
            CaptureOutcome::Captured
                | CaptureOutcome::Duplicate
                | CaptureOutcome::CapturedShedOldest(_)
        )
    }

    /// Hook function with the full budget verdict; an incident the budget
    /// forced comes back inside the outcome. [`try_capture`](Self::try_capture)
    /// is the boolean view of this.
    pub fn capture(&mut self, seg: &Segment) -> CaptureOutcome {
        let key = self.lookup_key(seg);
        let Some(entry) = self.entries.get_mut(&key) else {
            return CaptureOutcome::NotMatched;
        };
        let budget = self.budget;
        match &seg.transport {
            Transport::Tcp { seq, payload, .. } => {
                let len = payload.len();
                let dedup_key = (*seq, len as u32);
                if entry.tcp_queue.contains_key(&dedup_key) {
                    // Coalesce-by-seq: a retransmission of a queued segment
                    // is free — stored once, no budget consumed.
                    entry.duplicates += 1;
                    self.stats.duplicates += 1;
                    return CaptureOutcome::Duplicate;
                }
                if entry.queued_packets() + 1 > budget.max_packets
                    || entry.queued_bytes.saturating_add(len) > budget.max_bytes
                {
                    let event = |kind| PressureEvent {
                        key,
                        kind,
                        queued_packets: entry.queued_packets() as u64,
                        queued_bytes: entry.queued_bytes as u64,
                        shed_packets: 1,
                    };
                    return match budget.tcp_policy {
                        TcpShedPolicy::CoalesceBySeq => {
                            self.stats.shed_tcp_refused += 1;
                            CaptureOutcome::RefusedRecoverable(event(PressureKind::RefusedTcp))
                        }
                        TcpShedPolicy::HardFail => {
                            self.stats.hard_failures += 1;
                            CaptureOutcome::HardFailRefused(event(PressureKind::HardFail))
                        }
                    };
                }
                entry.tcp_queue.insert(dedup_key, seg.clone());
                entry.queued_bytes += len;
                self.stats.captured += 1;
                Self::note_peak(&mut self.stats, entry);
                CaptureOutcome::Captured
            }
            Transport::Udp { .. } => {
                let len = seg.payload_len();
                // Full of TCP segments, or this datagram alone exceeds the
                // byte budget after TCP's share: even an empty UDP queue
                // could not admit it, so refuse the newcomer up front
                // instead of shedding the whole queue for nothing.
                let tcp_bytes = entry.queued_bytes - entry.udp_bytes;
                if entry.tcp_queue.len() + 1 > budget.max_packets
                    || tcp_bytes.saturating_add(len) > budget.max_bytes
                {
                    self.stats.shed_udp += 1;
                    return CaptureOutcome::RefusedRecoverable(PressureEvent {
                        key,
                        kind: PressureKind::RefusedUdp,
                        queued_packets: entry.queued_packets() as u64,
                        queued_bytes: entry.queued_bytes as u64,
                        shed_packets: 1,
                    });
                }
                let mut shed = 0u64;
                // Drop-oldest: UDP datagrams are best-effort, so the most
                // recent state wins (DVE position updates supersede older
                // ones anyway). The up-front check guarantees this loop
                // frees enough room for the newcomer.
                while entry.queued_packets() + 1 > budget.max_packets
                    || entry.queued_bytes.saturating_add(len) > budget.max_bytes
                {
                    let Some(old) = entry.udp_queue.pop_front() else {
                        break;
                    };
                    let old_len = old.payload_len();
                    entry.queued_bytes -= old_len;
                    entry.udp_bytes -= old_len;
                    shed += 1;
                    self.stats.shed_udp += 1;
                }
                entry.udp_queue.push_back(seg.clone());
                entry.queued_bytes += len;
                entry.udp_bytes += len;
                self.stats.captured += 1;
                Self::note_peak(&mut self.stats, entry);
                if shed > 0 {
                    CaptureOutcome::CapturedShedOldest(PressureEvent {
                        key,
                        kind: PressureKind::ShedOldestUdp,
                        queued_packets: entry.queued_packets() as u64,
                        queued_bytes: entry.queued_bytes as u64,
                        shed_packets: shed,
                    })
                } else {
                    CaptureOutcome::Captured
                }
            }
        }
    }

    fn note_peak(stats: &mut CaptureStats, entry: &CaptureEntry) {
        let packets = entry.queued_packets() as u64;
        let bytes = entry.queued_bytes as u64;
        stats.peak_queued_packets = stats.peak_queued_packets.max(packets);
        stats.peak_queued_bytes = stats.peak_queued_bytes.max(bytes);
    }

    /// Occupancy of one entry: (queued packets, queued payload bytes).
    pub fn occupancy(&self, key: &CaptureKey) -> Option<(usize, usize)> {
        self.entries
            .get(key)
            .map(|e| (e.queued_packets(), e.queued_bytes))
    }

    /// Total payload bytes queued across all entries.
    pub fn total_queued_bytes(&self) -> usize {
        self.entries.values().map(|e| e.queued_bytes).sum()
    }

    /// Total packets queued across all entries.
    pub fn total_queued_packets(&self) -> usize {
        self.entries.values().map(|e| e.queued_packets()).sum()
    }

    /// Disable the entry and return its queued packets in reinjection order
    /// (TCP in sequence order, then UDP in arrival order).
    pub fn disable_and_drain(&mut self, key: &CaptureKey) -> Vec<Segment> {
        let Some(entry) = self.entries.remove(key) else {
            return Vec::new();
        };
        self.ports.remove(key.local_port);
        let mut out: Vec<Segment> = entry.tcp_queue.into_values().collect();
        out.extend(entry.udp_queue);
        self.stats.reinjected += out.len() as u64;
        out
    }

    /// When the entry was enabled (for diagnostics).
    pub fn enabled_at(&self, key: &CaptureKey) -> Option<SimTime> {
        self.entries.get(key).map(|e| e.enabled_at)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::TcpFlags;
    use bytes::Bytes;
    use dvelm_net::Ip;
    use dvelm_sim::Jiffies;

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, last), port)
    }

    fn tcp_seg(seq: u32, len: usize) -> Segment {
        Segment::tcp(
            sa(3, 3306),
            sa(1, 5000),
            TcpFlags::ACK,
            seq,
            0,
            65535,
            Jiffies(0),
            Jiffies(0),
            Bytes::from(vec![0u8; len]),
        )
    }

    /// The pressure incident an outcome carries, if the budget forced one.
    fn pressure(outcome: CaptureOutcome) -> Option<PressureEvent> {
        match outcome {
            CaptureOutcome::CapturedShedOldest(ev)
            | CaptureOutcome::RefusedRecoverable(ev)
            | CaptureOutcome::HardFailRefused(ev) => Some(ev),
            CaptureOutcome::NotMatched | CaptureOutcome::Captured | CaptureOutcome::Duplicate => {
                None
            }
        }
    }

    #[test]
    fn capture_matches_triple() {
        let mut t = CaptureTable::new();
        t.enable(
            CaptureKey::connected(sa(3, 3306), Port(5000)),
            SimTime::ZERO,
        );
        assert!(t.try_capture(&tcp_seg(100, 10)));
        // Different remote port: no match.
        let mut other = tcp_seg(100, 10);
        other.src = sa(3, 9999);
        assert!(!t.try_capture(&other));
        // Different local port: no match.
        let mut other = tcp_seg(100, 10);
        other.dst = sa(1, 6000);
        assert!(!t.try_capture(&other));
    }

    #[test]
    fn duplicates_stored_once() {
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        assert!(t.try_capture(&tcp_seg(100, 10)));
        assert!(t.try_capture(&tcp_seg(100, 10)), "dup is still stolen");
        assert_eq!(t.queued(&key), 1, "but stored once");
        assert_eq!(t.stats().duplicates, 1);
    }

    #[test]
    fn drain_is_in_sequence_order() {
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        t.try_capture(&tcp_seg(300, 10));
        t.try_capture(&tcp_seg(100, 10));
        t.try_capture(&tcp_seg(200, 10));
        let drained = t.disable_and_drain(&key);
        let seqs: Vec<u32> = drained.iter().map(|s| s.tcp_seq().unwrap()).collect();
        assert_eq!(seqs, vec![100, 200, 300]);
        assert!(!t.is_enabled(&key), "drain disables");
        assert_eq!(t.stats().reinjected, 3);
    }

    #[test]
    fn wildcard_matches_any_remote_udp() {
        let mut t = CaptureTable::new();
        let key = CaptureKey::any_remote(Port(27960));
        t.enable(key, SimTime::ZERO);
        let a = Segment::udp(sa(8, 1111), sa(1, 27960), Bytes::from_static(b"a"));
        let b = Segment::udp(sa(9, 2222), sa(1, 27960), Bytes::from_static(b"b"));
        assert!(t.try_capture(&a));
        assert!(t.try_capture(&b));
        assert_eq!(t.queued(&key), 2);
        let drained = t.disable_and_drain(&key);
        assert_eq!(drained.len(), 2);
        // UDP drains in arrival order.
        assert_eq!(drained[0].src, sa(8, 1111));
    }

    #[test]
    fn connected_entry_takes_precedence_over_wildcard() {
        let mut t = CaptureTable::new();
        let conn = CaptureKey::connected(sa(3, 3306), Port(5000));
        let wild = CaptureKey::any_remote(Port(5000));
        t.enable(conn, SimTime::ZERO);
        t.enable(wild, SimTime::ZERO);
        t.try_capture(&tcp_seg(1, 1));
        assert_eq!(t.queued(&conn), 1);
        assert_eq!(t.queued(&wild), 0);
    }

    #[test]
    fn drain_unknown_key_is_empty() {
        let mut t = CaptureTable::new();
        assert!(t
            .disable_and_drain(&CaptureKey::any_remote(Port(1)))
            .is_empty());
    }

    #[test]
    fn enable_is_idempotent_and_keeps_packets() {
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        t.try_capture(&tcp_seg(7, 3));
        t.enable(key, SimTime::from_millis(5));
        assert_eq!(t.queued(&key), 1);
        assert_eq!(t.enabled_at(&key), Some(SimTime::ZERO));
    }

    #[test]
    fn fault_armed_enable_failures_then_recover() {
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.arm_enable_failures(2);
        assert!(!t.try_enable(key, SimTime::ZERO));
        assert!(!t.try_enable(key, SimTime::ZERO));
        assert!(t.try_enable(key, SimTime::ZERO), "arming is consumed");
        assert!(t.is_enabled(&key));
        assert_eq!(t.stats().install_failures, 2);
        // The infallible path never fails, armed or not.
        t.arm_enable_failures(1);
        t.enable(CaptureKey::any_remote(Port(80)), SimTime::ZERO);
        assert!(t.is_enabled(&CaptureKey::any_remote(Port(80))));
    }

    #[test]
    fn fault_burst_retransmissions_dedup_and_drain_in_order() {
        // A correlated loss burst during the freeze window makes the client
        // retransmit the same flight several times, interleaved with new
        // data once the burst lifts. Every arrival is stolen, duplicates
        // are stored once, and the drain is still strictly in-order — the
        // property reinjection after an abort or a restore relies on.
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        // Three identical retransmissions of a 3-segment flight...
        for _ in 0..3 {
            for seq in [100, 110, 120] {
                assert!(t.try_capture(&tcp_seg(seq, 10)));
            }
        }
        // ...then the burst lifts and new data arrives out of order.
        t.try_capture(&tcp_seg(140, 10));
        t.try_capture(&tcp_seg(130, 10));
        assert_eq!(t.queued(&key), 5, "flight stored once + 2 new segments");
        assert_eq!(t.stats().duplicates, 6);
        let seqs: Vec<u32> = t
            .disable_and_drain(&key)
            .iter()
            .map(|s| s.tcp_seq().unwrap())
            .collect();
        assert_eq!(seqs, vec![100, 110, 120, 130, 140]);
    }

    #[test]
    fn dedup_still_exact_at_seq_wraparound() {
        // A retransmission storm straddling the u32 sequence-number
        // wraparound: the (seq, len) dedup key must not confuse pre-wrap
        // and post-wrap segments, and duplicates on either side of the
        // boundary are still stored once.
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        for seq in [u32::MAX - 1, u32::MAX, 0, 1] {
            assert!(t.try_capture(&tcp_seg(seq, 10)));
            assert!(t.try_capture(&tcp_seg(seq, 10)), "dup at seq {seq} stolen");
        }
        assert_eq!(t.queued(&key), 4, "one entry per distinct seq");
        assert_eq!(t.stats().duplicates, 4);
    }

    #[test]
    fn drain_order_at_wraparound_is_numeric_not_modular() {
        // The queue is keyed by raw (seq, len): post-wrap segments (0, 1)
        // drain *before* pre-wrap ones (MAX-1, MAX). That is fine for
        // re-injection — the receiving TCP reorders by sequence arithmetic
        // — but it is a documented property of the capture queue, not
        // modular 2^31 ordering.
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        for seq in [u32::MAX, 1, u32::MAX - 1, 0] {
            t.try_capture(&tcp_seg(seq, 10));
        }
        let seqs: Vec<u32> = t
            .disable_and_drain(&key)
            .iter()
            .map(|s| s.tcp_seq().unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, u32::MAX - 1, u32::MAX]);
    }

    #[test]
    fn udp_budget_sheds_oldest_first() {
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget::bounded(3, usize::MAX));
        let key = CaptureKey::any_remote(Port(27960));
        t.enable(key, SimTime::ZERO);
        let mut events = Vec::new();
        for i in 0..5u8 {
            let seg = Segment::udp(sa(8, 1000 + i as u16), sa(1, 27960), Bytes::from(vec![i]));
            let outcome = t.capture(&seg);
            assert!(
                matches!(
                    outcome,
                    CaptureOutcome::Captured | CaptureOutcome::CapturedShedOldest(_)
                ),
                "newest datagram always admitted"
            );
            events.extend(pressure(outcome));
        }
        assert_eq!(t.queued(&key), 3, "budget respected");
        assert_eq!(t.stats().shed_udp, 2);
        assert!(t.stats().peak_queued_packets <= 3);
        let drained = t.disable_and_drain(&key);
        // Oldest were shed: the three newest survive in arrival order.
        let ports: Vec<u16> = drained.iter().map(|s| s.src.port.0).collect();
        assert_eq!(ports, vec![1002, 1003, 1004]);
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|p| p.kind == PressureKind::ShedOldestUdp && p.key == key));
    }

    #[test]
    fn tcp_budget_refuses_new_but_coalesces_duplicates() {
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget::bounded(2, usize::MAX));
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        assert!(t.try_capture(&tcp_seg(100, 10)));
        assert!(t.try_capture(&tcp_seg(110, 10)));
        // A *new* segment is refused (wire loss: retransmission recovers)…
        let refused = t.capture(&tcp_seg(120, 10));
        assert!(matches!(refused, CaptureOutcome::RefusedRecoverable(_)));
        // …but a retransmission of a queued one is still coalesced.
        assert!(t.try_capture(&tcp_seg(100, 10)));
        assert_eq!(t.queued(&key), 2);
        assert_eq!(t.stats().shed_tcp_refused, 1);
        assert_eq!(t.stats().duplicates, 1);
        // Everything queued is intact and ordered: no TCP state was lost.
        let seqs: Vec<u32> = t
            .disable_and_drain(&key)
            .iter()
            .map(|s| s.tcp_seq().unwrap())
            .collect();
        assert_eq!(seqs, vec![100, 110]);
        assert_eq!(
            pressure(refused).map(|p| p.kind),
            Some(PressureKind::RefusedTcp)
        );
    }

    #[test]
    fn tcp_byte_budget_counts_payload() {
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget::bounded(usize::MAX, 25));
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        assert!(t.try_capture(&tcp_seg(100, 10)));
        assert!(t.try_capture(&tcp_seg(110, 10)));
        assert!(!t.try_capture(&tcp_seg(120, 10)), "26 bytes > 25 budget");
        assert_eq!(t.occupancy(&key), Some((2, 20)));
        assert_eq!(t.stats().peak_queued_bytes, 20);
    }

    #[test]
    fn tcp_hard_fail_policy_signals_abort() {
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget {
            max_packets: 1,
            max_bytes: usize::MAX,
            tcp_policy: TcpShedPolicy::HardFail,
        });
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        assert_eq!(t.capture(&tcp_seg(100, 10)), CaptureOutcome::Captured);
        let refused = t.capture(&tcp_seg(110, 10));
        assert!(matches!(refused, CaptureOutcome::HardFailRefused(_)));
        assert_eq!(t.stats().hard_failures, 1);
        assert_eq!(
            pressure(refused).map(|p| p.kind),
            Some(PressureKind::HardFail)
        );
        // The queue itself never exceeded its budget.
        assert_eq!(t.queued(&key), 1);
    }

    #[test]
    fn udp_refused_when_tcp_holds_the_budget() {
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget::bounded(1, usize::MAX));
        let key = CaptureKey::any_remote(Port(5000));
        t.enable(key, SimTime::ZERO);
        assert!(t.try_capture(&tcp_seg(100, 10)));
        let udp = Segment::udp(sa(8, 1111), sa(1, 5000), Bytes::from_static(b"x"));
        assert!(matches!(
            t.capture(&udp),
            CaptureOutcome::RefusedRecoverable(_)
        ));
        assert_eq!(t.queued(&key), 1, "TCP segment is never displaced by UDP");
        assert_eq!(t.stats().shed_udp, 1);
    }

    #[test]
    fn udp_never_fitting_newcomer_refused_without_shedding() {
        // 25-byte budget, 10 of them held by TCP: a 20-byte datagram can
        // never fit even with an empty UDP queue, so the queued datagrams
        // must survive the refusal instead of being shed for nothing.
        let mut t = CaptureTable::new();
        t.set_budget(CaptureBudget::bounded(10, 25));
        let key = CaptureKey::any_remote(Port(5000));
        t.enable(key, SimTime::ZERO);
        assert!(t.try_capture(&tcp_seg(100, 10)));
        for i in 0..2u8 {
            let seg = Segment::udp(sa(8, 1000 + i as u16), sa(1, 5000), Bytes::from(vec![i; 5]));
            assert!(t.try_capture(&seg));
        }
        let big = Segment::udp(sa(8, 2000), sa(1, 5000), Bytes::from(vec![9u8; 20]));
        let refused = t.capture(&big);
        assert!(matches!(refused, CaptureOutcome::RefusedRecoverable(_)));
        assert_eq!(
            t.occupancy(&key),
            Some((3, 20)),
            "previously queued packets must not be shed for a hopeless newcomer"
        );
        assert_eq!(t.stats().shed_udp, 1, "only the newcomer is counted");
        let event = pressure(refused).expect("a refusal carries its incident");
        assert_eq!(event.kind, PressureKind::RefusedUdp);
        assert_eq!(event.shed_packets, 1);
    }

    #[test]
    fn unlimited_budget_never_sheds() {
        let mut t = CaptureTable::new();
        assert!(t.budget().is_unlimited());
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        for seq in 0..1000u32 {
            assert_eq!(t.capture(&tcp_seg(seq * 10, 10)), CaptureOutcome::Captured);
        }
        assert_eq!(t.queued(&key), 1000);
        assert_eq!(t.stats().shed_tcp_refused + t.stats().shed_udp, 0);
    }

    #[test]
    fn same_seq_different_len_are_distinct_at_wraparound() {
        // A shrunk retransmission at seq u32::MAX (different payload
        // length) is a distinct queue entry, and the shorter one drains
        // first within the same sequence number.
        let mut t = CaptureTable::new();
        let key = CaptureKey::connected(sa(3, 3306), Port(5000));
        t.enable(key, SimTime::ZERO);
        t.try_capture(&tcp_seg(u32::MAX, 24));
        t.try_capture(&tcp_seg(u32::MAX, 8));
        assert_eq!(t.queued(&key), 2);
        assert_eq!(t.stats().duplicates, 0);
        let lens: Vec<usize> = t
            .disable_and_drain(&key)
            .iter()
            .map(|s| s.payload_len())
            .collect();
        assert_eq!(lens, vec![8, 24]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::seg::TcpFlags;
    use bytes::Bytes;
    use dvelm_net::Ip;
    use dvelm_sim::Jiffies;
    use proptest::prelude::*;

    proptest! {
        /// Whatever order (and however duplicated) packets arrive in, the
        /// drained queue is strictly ordered by sequence number with no
        /// duplicates — the property re-injection relies on.
        #[test]
        fn drain_is_sorted_and_deduped(
            seqs in proptest::collection::vec((0u32..10_000, 1usize..64), 1..100),
        ) {
            let remote = SockAddr::new(Ip::new(10, 0, 0, 3), 3306);
            let local = SockAddr::new(Ip::new(10, 0, 0, 1), 5000);
            let key = CaptureKey::connected(remote, local.port);
            let mut t = CaptureTable::new();
            t.enable(key, SimTime::ZERO);
            for (seq, len) in &seqs {
                let seg = Segment::tcp(
                    remote,
                    local,
                    TcpFlags::ACK,
                    *seq,
                    0,
                    65535,
                    Jiffies(0),
                    Jiffies(0),
                    Bytes::from(vec![0u8; *len]),
                );
                prop_assert!(t.try_capture(&seg));
            }
            let drained = t.disable_and_drain(&key);
            let out: Vec<(u32, usize)> = drained
                .iter()
                .map(|s| (s.tcp_seq().unwrap(), s.payload_len()))
                .collect();
            let mut expect: Vec<(u32, usize)> = seqs.clone();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(out, expect);
        }
    }
}
