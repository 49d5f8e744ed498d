//! Point-to-point links with bandwidth, propagation latency and
//! transmission-serialization queueing.
//!
//! A link keeps a `busy_until` cursor: a frame submitted while a previous
//! frame is still serializing waits its turn, so a 3.5 MB aggregated socket
//! buffer on Gigabit Ethernet really occupies the wire for ~28 ms — the
//! effect behind the collective-vs-iterative comparison in Fig. 5b.

use crate::addr::NodeId;
use dvelm_sim::{DetRng, SimTime};

/// Gigabit Ethernet payload bandwidth, bytes per second.
pub const GIGE_BANDWIDTH: u64 = 125_000_000;
/// One-way propagation + forwarding latency on the paper's LAN, microseconds.
pub const LAN_LATENCY_US: u64 = 50;

/// Optional packet-loss injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Deliver everything.
    None,
    /// Drop each frame independently with this probability.
    Bernoulli(f64),
    /// Drop every frame submitted in `[from, to)` — a blackout window, used
    /// to model the unprotected socket-migration gap in ablation tests.
    Window { from: SimTime, to: SimTime },
    /// Correlated loss: each frame starts a drop burst with probability `p`;
    /// once a burst starts, that frame and the next `burst - 1` frames are
    /// all dropped. Models the bursty congestion/partition events fault
    /// injection cares about (`Bernoulli(p)` ≡ `Burst { p, burst: 1 }`).
    Burst { p: f64, burst: u32 },
}

/// Per-link transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Payload bytes accepted for transmission.
    pub bytes: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
}

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Bytes per second.
    pub bandwidth: u64,
    /// One-way latency in microseconds.
    pub latency_us: u64,
    loss: LossModel,
    /// Frames left in the current [`LossModel::Burst`] drop burst.
    burst_left: u32,
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// A link with the given bandwidth (bytes/s) and latency (µs).
    pub fn new(bandwidth: u64, latency_us: u64) -> Link {
        assert!(bandwidth > 0, "link bandwidth must be positive");
        Link {
            bandwidth,
            latency_us,
            loss: LossModel::None,
            burst_left: 0,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// A Gigabit-Ethernet LAN link as on the paper's testbed.
    pub fn gige() -> Link {
        Link::new(GIGE_BANDWIDTH, LAN_LATENCY_US)
    }

    /// A WAN-ish client access link (20 ms one-way, 10 MB/s).
    pub fn client_wan() -> Link {
        Link::new(10_000_000, 20_000)
    }

    /// Replace the loss model on an existing link. Any in-progress drop
    /// burst is forgotten.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
        self.burst_left = 0;
    }

    /// Microseconds needed to serialize `bytes` onto the wire (≥ 1).
    ///
    /// Every frame takes the `u64` division. Only when `bytes * 1_000_000`
    /// overflows `u64` (beyond ~18.4 TB) does it fall back to `u128`: a
    /// saturating multiply would silently *under-report* wire time for
    /// large aggregated transfers (the result would cap at
    /// `u64::MAX / bandwidth` instead of growing linearly).
    pub fn serialization_us(&self, bytes: u64) -> u64 {
        let us = match bytes.checked_mul(1_000_000) {
            Some(scaled) => scaled / self.bandwidth,
            None => {
                let us = (bytes as u128 * 1_000_000) / self.bandwidth as u128;
                u64::try_from(us).unwrap_or(u64::MAX)
            }
        };
        us.max(1)
    }

    /// Submit a frame at `now`; returns the arrival instant at the far end,
    /// or `None` if the loss model drops it. Loss is decided *before* wire
    /// occupancy so a dropped frame does not consume bandwidth (models loss
    /// at the submitting host's queue, which is where our blackout windows
    /// live).
    pub fn transmit(&mut self, now: SimTime, bytes: u64, rng: &mut DetRng) -> Option<SimTime> {
        let dropped = match self.loss {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(p),
            LossModel::Window { from, to } => now >= from && now < to,
            LossModel::Burst { p, burst } => {
                if self.burst_left > 0 {
                    self.burst_left -= 1;
                    true
                } else if rng.chance(p) {
                    self.burst_left = burst.saturating_sub(1);
                    true
                } else {
                    false
                }
            }
        };
        if dropped {
            self.stats.dropped += 1;
            return None;
        }
        let start = self.busy_until.max(now);
        let done = start + self.serialization_us(bytes);
        self.busy_until = done;
        self.stats.frames += 1;
        self.stats.bytes += bytes;
        Some(done + self.latency_us)
    }

    /// Transfer counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

/// One link per attached node, stored densely by `NodeId` (the cluster
/// assigns node ids densely). Iteration is in ascending node id, which is
/// the fan-out order, so the loss models draw randomness in that order.
#[derive(Debug, Default)]
pub(crate) struct NodeLinks {
    slots: Vec<Option<Link>>,
}

impl NodeLinks {
    /// Give `node` a fresh `link`, replacing any it had.
    pub(crate) fn attach(&mut self, node: NodeId, link: Link) {
        let i = node.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(link);
    }

    /// Drop `node`'s link, if any.
    pub(crate) fn detach(&mut self, node: NodeId) {
        if let Some(slot) = self.slots.get_mut(node.0 as usize) {
            *slot = None;
        }
    }

    /// `node`'s link, if attached.
    pub(crate) fn get_mut(&mut self, node: NodeId) -> Option<&mut Link> {
        self.slots.get_mut(node.0 as usize)?.as_mut()
    }

    /// Whether `node` has a link.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.slots.get(node.0 as usize).is_some_and(Option::is_some)
    }

    /// Attached nodes, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Attached nodes and their links, ascending by node.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut Link)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| Some((NodeId(i as u32), slot.as_mut()?)))
    }
}

/// The router's node downlinks, stored densely by `NodeId`.
///
/// Downlinks that would behave identically — the same bandwidth and
/// latency, no loss model, the same wire occupancy — share one [`Link`],
/// so a broadcast serializes once for all of them and each member's
/// [`LinkStats`] are derived from the shared link's counters. A downlink
/// that diverges keeps its own [`Link`]: a fresh attach, a loss model
/// installed through [`get_mut`](Self::get_mut), a zoned send only some
/// nodes hear. A later broadcast moves it back into the group once it
/// would behave identically again.
///
/// Iteration is in ascending node id, which is the fan-out order, so the
/// links with a loss model draw randomness in that order; the shared link
/// has none and draws nothing.
#[derive(Debug)]
pub(crate) struct Downlinks {
    /// The state of every member of the shared group (meaningless while
    /// the group is empty).
    shared: Link,
    slots: Vec<Downlink>,
    /// Attached nodes in the shared group.
    members: usize,
    /// Attached nodes with a link of their own.
    own: usize,
}

#[derive(Debug)]
enum Downlink {
    Detached,
    /// In the shared group: the link's counters are `stats` plus what the
    /// shared link counted since it read `shared_at`.
    Shared {
        stats: LinkStats,
        shared_at: LinkStats,
    },
    Own(Link),
}

impl LinkStats {
    /// `self` plus what `now` counted beyond `then` (`now` is a later
    /// reading of the counters `then` was read from).
    fn plus_since(self, now: LinkStats, then: LinkStats) -> LinkStats {
        LinkStats {
            frames: self.frames + (now.frames - then.frames),
            bytes: self.bytes + (now.bytes - then.bytes),
            dropped: self.dropped + (now.dropped - then.dropped),
        }
    }
}

/// Who hears an inbound frame (see [`BroadcastRouter::inbound`](crate::BroadcastRouter::inbound)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Every attached node hears the frame at this instant.
    Every(SimTime),
    /// Exactly the nodes, and instants, written to the caller's buffer
    /// (none when the frame was lost before the fan-out).
    Listed,
}

impl Default for Downlinks {
    fn default() -> Downlinks {
        Downlinks {
            shared: Link::gige(),
            slots: Vec::new(),
            members: 0,
            own: 0,
        }
    }
}

impl Downlinks {
    /// Give `node` a fresh `link`, replacing any it had.
    pub(crate) fn attach(&mut self, node: NodeId, link: Link) {
        self.detach(node);
        let i = node.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || Downlink::Detached);
        }
        self.slots[i] = Downlink::Own(link);
        self.own += 1;
    }

    /// Drop `node`'s link, if any.
    pub(crate) fn detach(&mut self, node: NodeId) {
        let Some(slot) = self.slots.get_mut(node.0 as usize) else {
            return;
        };
        match std::mem::replace(slot, Downlink::Detached) {
            Downlink::Detached => {}
            Downlink::Shared { .. } => self.members -= 1,
            Downlink::Own(_) => self.own -= 1,
        }
    }

    /// `node`'s link, if attached, taken out of the shared group: the
    /// caller may change it.
    pub(crate) fn get_mut(&mut self, node: NodeId) -> Option<&mut Link> {
        let slot = self.slots.get_mut(node.0 as usize)?;
        if let Downlink::Shared { stats, shared_at } = *slot {
            let mut link = self.shared.clone();
            link.stats = stats.plus_since(self.shared.stats, shared_at);
            *slot = Downlink::Own(link);
            self.members -= 1;
            self.own += 1;
        }
        match slot {
            Downlink::Own(link) => Some(link),
            _ => None,
        }
    }

    /// `node`'s counters, if attached.
    pub(crate) fn stats(&self, node: NodeId) -> Option<LinkStats> {
        match self.slots.get(node.0 as usize)? {
            Downlink::Detached => None,
            Downlink::Shared { stats, shared_at } => {
                Some(stats.plus_since(self.shared.stats, *shared_at))
            }
            Downlink::Own(link) => Some(link.stats),
        }
    }

    /// Attached nodes, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !matches!(slot, Downlink::Detached))
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Submit a frame at `at` on every attached downlink. When every one
    /// is in the shared group this is one transmission, and the result is
    /// [`Fanout::Every`]; otherwise each node's arrival is pushed onto
    /// `out` in node order, exactly as one transmission per link would
    /// give them.
    pub(crate) fn broadcast(
        &mut self,
        at: SimTime,
        bytes: u64,
        rng: &mut DetRng,
        out: &mut Vec<(NodeId, SimTime)>,
    ) -> Fanout {
        if self.own > 0 {
            self.regroup(at);
        }
        if self.own == 0 {
            return match self.members {
                0 => Fanout::Listed,
                _ => match self.shared.transmit(at, bytes, rng) {
                    Some(arrival) => Fanout::Every(arrival),
                    None => Fanout::Listed,
                },
            };
        }
        let shared = &mut self.shared;
        let mut shared_arrival = None;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let arrival = match slot {
                Downlink::Detached => continue,
                Downlink::Shared { .. } => {
                    *shared_arrival.get_or_insert_with(|| shared.transmit(at, bytes, rng))
                }
                Downlink::Own(link) => link.transmit(at, bytes, rng),
            };
            if let Some(arrival) = arrival {
                out.push((NodeId(i as u32), arrival));
            }
        }
        Fanout::Listed
    }

    /// Move every link of its own that would, from a submission at `at`
    /// on, behave exactly like the shared link back into the group: no
    /// loss model, the same bandwidth and latency, and a wire that is
    /// free at the same instant. An empty group takes on the first such
    /// link's state.
    fn regroup(&mut self, at: SimTime) {
        for slot in &mut self.slots {
            let Downlink::Own(link) = slot else {
                continue;
            };
            if link.loss != LossModel::None {
                continue;
            }
            if self.members == 0 {
                self.shared = Link {
                    stats: LinkStats::default(),
                    ..link.clone()
                };
            } else if link.bandwidth != self.shared.bandwidth
                || link.latency_us != self.shared.latency_us
                || link.busy_until.max(at) != self.shared.busy_until.max(at)
            {
                continue;
            }
            *slot = Downlink::Shared {
                stats: link.stats,
                shared_at: self.shared.stats,
            };
            self.members += 1;
            self.own -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xfeed)
    }

    #[test]
    fn serialization_time_scales_with_bytes() {
        let l = Link::gige();
        // 125 MB/s → 1 MB takes 8000 µs.
        assert_eq!(l.serialization_us(1_000_000), 8_000);
        // Tiny frames still occupy at least 1 µs.
        assert_eq!(l.serialization_us(1), 1);
    }

    #[test]
    fn serialization_survives_the_u64_overflow_boundary() {
        // `bytes * 1_000_000` overflows u64 beyond this point; the old
        // saturating-multiply computation capped there and under-reported
        // wire time for anything larger.
        let l = Link::gige(); // 125_000_000 B/s
        let boundary = u64::MAX / 1_000_000; // ≈ 18.4 TB
        let just_below = l.serialization_us(boundary);
        let above = l.serialization_us(boundary * 4);
        // Above the boundary the result must keep scaling linearly instead
        // of collapsing onto the saturated value.
        assert!(
            above >= just_below * 4 - 4,
            "wire time stopped scaling: {just_below} vs {above}"
        );
        // Exact value through u128: bytes * 1e6 / bandwidth.
        let exact = |bytes: u64| ((bytes as u128 * 1_000_000) / 125_000_000) as u64;
        assert_eq!(above, exact(boundary * 4));
        // `boundary` is the last size on the u64 path and `boundary + 1` the
        // first on the u128 path: both paths give the exact value.
        for bytes in boundary - 2..=boundary + 2 {
            assert_eq!(l.serialization_us(bytes), exact(bytes), "at {bytes} bytes");
        }
    }

    #[test]
    fn arrival_is_serialization_plus_latency() {
        let mut l = Link::new(1_000_000, 100); // 1 MB/s
        let arr = l.transmit(SimTime::ZERO, 1_000, &mut rng()).unwrap();
        // 1000 B at 1 MB/s = 1000 µs, + 100 µs latency.
        assert_eq!(arr, SimTime::from_micros(1_100));
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let mut l = Link::new(1_000_000, 0);
        let mut r = rng();
        let a1 = l.transmit(SimTime::ZERO, 1_000, &mut r).unwrap();
        let a2 = l.transmit(SimTime::ZERO, 1_000, &mut r).unwrap();
        assert_eq!(a1, SimTime::from_micros(1_000));
        assert_eq!(
            a2,
            SimTime::from_micros(2_000),
            "second frame waits for the first"
        );
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = Link::new(1_000_000, 0);
        let mut r = rng();
        l.transmit(SimTime::ZERO, 1_000, &mut r);
        let a = l
            .transmit(SimTime::from_micros(5_000), 1_000, &mut r)
            .unwrap();
        assert_eq!(a, SimTime::from_micros(6_000));
    }

    #[test]
    fn bernoulli_loss_drops_roughly_p() {
        let mut l = Link::new(GIGE_BANDWIDTH, 0);
        l.set_loss(LossModel::Bernoulli(0.3));
        let mut r = rng();
        let mut dropped = 0;
        for i in 0..10_000 {
            if l.transmit(SimTime::from_micros(i * 100), 100, &mut r)
                .is_none()
            {
                dropped += 1;
            }
        }
        assert!((2_700..3_300).contains(&dropped), "dropped {dropped}");
        assert_eq!(l.stats().dropped, dropped);
    }

    #[test]
    fn window_loss_is_exact() {
        let w = LossModel::Window {
            from: SimTime::from_millis(10),
            to: SimTime::from_millis(20),
        };
        let mut l = Link::gige();
        l.set_loss(w);
        let mut r = rng();
        assert!(l.transmit(SimTime::from_millis(9), 10, &mut r).is_some());
        assert!(l.transmit(SimTime::from_millis(10), 10, &mut r).is_none());
        assert!(l.transmit(SimTime::from_millis(19), 10, &mut r).is_none());
        assert!(l.transmit(SimTime::from_millis(20), 10, &mut r).is_some());
    }

    #[test]
    fn fault_burst_loss_drops_whole_runs() {
        // With p small but burst large, drops come in contiguous runs of
        // exactly `burst` frames (no run can start inside a run).
        let mut l = Link::new(GIGE_BANDWIDTH, 0);
        l.set_loss(LossModel::Burst { p: 0.02, burst: 8 });
        let mut r = rng();
        let outcomes: Vec<bool> = (0..5_000)
            .map(|i| {
                l.transmit(SimTime::from_micros(i * 100), 100, &mut r)
                    .is_none()
            })
            .collect();
        let mut runs = Vec::new();
        let mut len = 0u32;
        for dropped in &outcomes {
            if *dropped {
                len += 1;
            } else if len > 0 {
                runs.push(len);
                len = 0;
            }
        }
        if len > 0 {
            runs.push(len);
        }
        assert!(!runs.is_empty(), "some bursts occurred");
        assert!(
            runs.iter().all(|r| *r >= 8),
            "every drop run spans at least one full burst: {runs:?}"
        );
        assert_eq!(
            l.stats().dropped,
            outcomes.iter().filter(|d| **d).count() as u64
        );
    }

    #[test]
    fn fault_set_loss_forgets_burst_in_progress() {
        let mut l = Link::new(GIGE_BANDWIDTH, 0);
        l.set_loss(LossModel::Burst { p: 1.0, burst: 100 });
        let mut r = rng();
        assert!(l.transmit(SimTime::ZERO, 10, &mut r).is_none());
        l.set_loss(LossModel::None);
        assert!(
            l.transmit(SimTime::from_micros(1), 10, &mut r).is_some(),
            "clearing the model ends the burst immediately"
        );
    }

    #[test]
    fn stats_count_frames_and_bytes() {
        let mut l = Link::gige();
        let mut r = rng();
        l.transmit(SimTime::ZERO, 100, &mut r);
        l.transmit(SimTime::ZERO, 200, &mut r);
        assert_eq!(
            l.stats(),
            LinkStats {
                frames: 2,
                bytes: 300,
                dropped: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0, 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arrivals on a link are nondecreasing when submissions are
        /// nondecreasing (the wire never reorders).
        #[test]
        fn fifo_wire(sizes in proptest::collection::vec(1u64..100_000, 1..50)) {
            let mut l = Link::gige();
            let mut r = DetRng::new(1);
            let mut last = SimTime::ZERO;
            let mut t = SimTime::ZERO;
            for (i, s) in sizes.iter().enumerate() {
                t += (i as u64 * 3) % 500;
                let a = l.transmit(t, *s, &mut r).unwrap();
                prop_assert!(a >= last);
                prop_assert!(a > t);
                last = a;
            }
        }

        /// Total wire occupancy equals the sum of serialization times when
        /// everything is submitted at t=0.
        #[test]
        fn occupancy_adds_up(sizes in proptest::collection::vec(1u64..1_000_000, 1..20)) {
            let mut l = Link::new(1_000_000, 0);
            let mut r = DetRng::new(2);
            let mut expect = 0;
            for s in &sizes {
                l.transmit(SimTime::ZERO, *s, &mut r);
                expect += l.serialization_us(*s);
            }
            prop_assert_eq!(l.busy_until, SimTime::from_micros(expect));
        }
    }
}
