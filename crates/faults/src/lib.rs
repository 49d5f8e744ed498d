//! Scripted fault injection against a running cluster simulation.
//!
//! A [`FaultPlan`] is a deterministic schedule of [`Fault`]s: the owner (the
//! `World` in `dvelm-cluster`) installs the plan, turning each entry into an
//! event at its instant, and handles the fault when it fires. The plan
//! itself knows nothing about the world — it is plain data, so tests can
//! build, inspect and replay plans without a simulation.
//!
//! The vocabulary covers the failure modes the migration protocol must
//! survive (§III's rollback property, plus the orchestration layer above):
//!
//! * [`Fault::NodeCrash`] — a host dies mid-anything; migrations touching
//!   it must abort with phase-appropriate recovery;
//! * [`Fault::DownlinkLoss`] — partition or correlated loss burst on a
//!   node's downlink (reuses [`LossModel`], including
//!   [`LossModel::Burst`]);
//! * [`Fault::TransferStall`] — the in-flight migration of a pid stalls
//!   past its deadline and is aborted by the orchestrator;
//! * [`Fault::CaptureInstallFail`] / [`Fault::RestoreFail`] — the
//!   destination kernel refuses a capture hook / socket rehash;
//! * [`Fault::CtrlBlackout`] — a node's conductor goes dark on control
//!   messages (heartbeats, negotiation) for a while, in an explicit
//!   [`CtrlDir`]: inbound, outbound, or both;
//! * [`Fault::Overload`] — a traffic surge multiplies the tick (and hence
//!   send/dirty) rate of everything on a host, driving capture queues,
//!   precopy convergence and the admission path into their budgets;
//! * [`Fault::Partition`] — a network partition: control *and* data
//!   traffic between two [`HostSet`] groups is dropped until the heal;
//! * [`Fault::CtrlLoss`] / [`Fault::CtrlDup`] / [`Fault::CtrlReorder`] —
//!   unreliable control delivery: `LbMsg` frames are probabilistically
//!   dropped, duplicated, or delayed out of order via the world's seeded
//!   RNG, exercising the conductor protocol's idempotency and
//!   epoch-fencing guarantees.

use dvelm_net::LossModel;
use dvelm_proc::Pid;
use dvelm_sim::SimTime;

/// A set of host indices as a bitmask — `Copy`, so [`Fault`] stays plain
/// data. Capacity is 128 hosts; partition scenarios live well below the
/// bench harness's largest cells, which never inject partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostSet(pub u128);

impl HostSet {
    /// The empty set.
    pub const EMPTY: HostSet = HostSet(0);

    /// Build a set from host indices. Panics if an index is ≥ 128 (the
    /// bitmask capacity).
    pub fn of(hosts: &[usize]) -> HostSet {
        let mut bits = 0u128;
        for &h in hosts {
            assert!(h < 128, "HostSet capacity is 128 hosts, got index {h}");
            bits |= 1 << h;
        }
        HostSet(bits)
    }

    /// Whether `host` is in the set (indices ≥ 128 are never members).
    pub fn contains(self, host: usize) -> bool {
        host < 128 && self.0 & (1 << host) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Which direction of a control blackout is suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlDir {
    /// The host's conductor hears nothing (its own sends still leave).
    Inbound,
    /// The host's conductor's own broadcasts/unicasts are swallowed; it
    /// still hears its peers.
    Outbound,
    /// Full blackout, both directions.
    Both,
}

impl CtrlDir {
    /// Whether inbound control delivery is suppressed.
    pub fn blocks_inbound(self) -> bool {
        matches!(self, CtrlDir::Inbound | CtrlDir::Both)
    }

    /// Whether outbound control delivery is suppressed.
    pub fn blocks_outbound(self) -> bool {
        matches!(self, CtrlDir::Outbound | CtrlDir::Both)
    }
}

/// One injectable fault. Hosts are named by their index in the world's host
/// table (the same indices `World::add_server_node` hands out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The host dies: processes are lost, its stack stops answering, and
    /// every migration touching it aborts.
    NodeCrash { host: usize },
    /// Install `model` on the host's downlink for `for_us` µs, then restore
    /// lossless delivery (`for_us == 0` leaves it installed forever).
    DownlinkLoss {
        host: usize,
        model: LossModel,
        for_us: u64,
    },
    /// Abort the in-flight migration of `pid` as stalled (the orchestration
    /// deadline fired). No-op if that pid is not migrating.
    TransferStall { pid: Pid },
    /// The host's kernel refuses the next capture-hook installation, so a
    /// migration entering its freeze phase toward this destination aborts.
    CaptureInstallFail { host: usize },
    /// The host's kernel refuses the next socket rehash, so a migration
    /// restoring onto this destination falls back to its source.
    RestoreFail { host: usize },
    /// The host's conductor goes dark on control messages for `for_us` µs,
    /// in the given [`CtrlDir`]: inbound (requests are swallowed before the
    /// conductor sees them), outbound (its own heartbeats and replies never
    /// leave the host), or both.
    CtrlBlackout {
        host: usize,
        dir: CtrlDir,
        for_us: u64,
    },
    /// A network partition: every frame — control *and* data — crossing
    /// between `groups[0]` and `groups[1]` is dropped for `for_us` µs, then
    /// the partition heals (`for_us == 0` leaves it in place forever).
    /// Traffic *within* a group, and to/from hosts in neither group, is
    /// unaffected; overlapping partitions compose (a frame is dropped if
    /// any active partition separates its endpoints).
    Partition { groups: [HostSet; 2], for_us: u64 },
    /// Unreliable control delivery: each scheduled `LbMsg` delivery is
    /// dropped with probability `pct`/100 (seeded RNG) for `for_us` µs.
    CtrlLoss { pct: u32, for_us: u64 },
    /// Unreliable control delivery: each scheduled `LbMsg` delivery is
    /// duplicated with probability `pct`/100 for `for_us` µs; the duplicate
    /// arrives a seeded 1–2000 µs after the original.
    CtrlDup { pct: u32, for_us: u64 },
    /// Unreliable control delivery: each scheduled `LbMsg` delivery is
    /// delayed by a seeded 1–`max_extra_us` extra µs with probability
    /// `pct`/100 for `for_us` µs, reordering it behind later sends.
    CtrlReorder {
        pct: u32,
        max_extra_us: u64,
        for_us: u64,
    },
    /// Traffic surge: every client/application flow hosted on `host` ticks
    /// `factor`× faster for `for_us` µs, multiplying its send rate and
    /// dirty rate (a flash crowd hitting a zone). `factor <= 1` restores
    /// the normal rate; `for_us == 0` leaves the surge installed forever.
    Overload {
        host: usize,
        factor: u32,
        for_us: u64,
    },
}

impl Fault {
    /// Human-readable label, stable across releases.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::NodeCrash { .. } => "node crash",
            Fault::DownlinkLoss { .. } => "downlink loss",
            Fault::TransferStall { .. } => "transfer stall",
            Fault::CaptureInstallFail { .. } => "capture install fail",
            Fault::RestoreFail { .. } => "restore fail",
            Fault::CtrlBlackout { .. } => "control blackout",
            Fault::Overload { .. } => "overload",
            Fault::Partition { .. } => "partition",
            Fault::CtrlLoss { .. } => "control loss",
            Fault::CtrlDup { .. } => "control duplication",
            Fault::CtrlReorder { .. } => "control reorder",
        }
    }
}

/// A deterministic schedule of faults, built fluently:
///
/// ```
/// use dvelm_faults::{Fault, FaultPlan};
/// use dvelm_sim::SimTime;
///
/// let plan = FaultPlan::new()
///     .at(SimTime::from_millis(500), Fault::CaptureInstallFail { host: 1 })
///     .at(SimTime::from_secs(2), Fault::NodeCrash { host: 1 });
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `fault` at `at` (entries may be added in any order; the
    /// owner's event queue establishes firing order).
    pub fn at(mut self, at: SimTime, fault: Fault) -> FaultPlan {
        self.entries.push((at, fault));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled faults, in insertion order.
    pub fn entries(&self) -> &[(SimTime, Fault)] {
        &self.entries
    }

    /// Consume the plan, yielding its entries sorted by instant (ties keep
    /// insertion order), ready for scheduling.
    pub fn into_entries(self) -> Vec<(SimTime, Fault)> {
        let mut entries = self.entries;
        entries.sort_by_key(|(at, _)| *at);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builds_and_sorts() {
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(3), Fault::NodeCrash { host: 2 })
            .at(SimTime::from_secs(1), Fault::TransferStall { pid: Pid(7) })
            .at(
                SimTime::from_secs(1),
                Fault::CtrlBlackout {
                    host: 0,
                    dir: CtrlDir::Both,
                    for_us: 1_000,
                },
            );
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 3);
        let entries = plan.into_entries();
        assert_eq!(entries[0].0, SimTime::from_secs(1));
        assert!(
            matches!(entries[0].1, Fault::TransferStall { .. }),
            "ties keep insertion order"
        );
        assert!(matches!(entries[2].1, Fault::NodeCrash { host: 2 }));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Fault::NodeCrash { host: 0 }.label(), "node crash");
        assert_eq!(
            Fault::DownlinkLoss {
                host: 0,
                model: LossModel::Bernoulli(0.5),
                for_us: 0
            }
            .label(),
            "downlink loss"
        );
        assert_eq!(
            Fault::TransferStall { pid: Pid(1) }.label(),
            "transfer stall"
        );
        assert_eq!(
            Fault::Overload {
                host: 0,
                factor: 4,
                for_us: 0
            }
            .label(),
            "overload"
        );
        assert_eq!(
            Fault::Partition {
                groups: [HostSet::of(&[0, 1]), HostSet::of(&[2])],
                for_us: 0
            }
            .label(),
            "partition"
        );
        assert_eq!(
            Fault::CtrlLoss { pct: 10, for_us: 0 }.label(),
            "control loss"
        );
        assert_eq!(
            Fault::CtrlDup { pct: 10, for_us: 0 }.label(),
            "control duplication"
        );
        assert_eq!(
            Fault::CtrlReorder {
                pct: 10,
                max_extra_us: 1_000,
                for_us: 0
            }
            .label(),
            "control reorder"
        );
    }

    #[test]
    fn host_set_membership_and_bounds() {
        let set = HostSet::of(&[0, 3, 127]);
        assert!(set.contains(0));
        assert!(!set.contains(1));
        assert!(set.contains(3));
        assert!(set.contains(127));
        // Out-of-capacity indices are simply never members.
        assert!(!set.contains(128));
        assert!(!set.contains(usize::MAX));
        assert!(HostSet::EMPTY.is_empty());
        assert!(!set.is_empty());
    }

    #[test]
    fn ctrl_dir_direction_predicates() {
        assert!(CtrlDir::Inbound.blocks_inbound());
        assert!(!CtrlDir::Inbound.blocks_outbound());
        assert!(!CtrlDir::Outbound.blocks_inbound());
        assert!(CtrlDir::Outbound.blocks_outbound());
        assert!(CtrlDir::Both.blocks_inbound());
        assert!(CtrlDir::Both.blocks_outbound());
    }
}
