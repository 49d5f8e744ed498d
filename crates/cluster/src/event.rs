//! The world's event alphabet.

use dvelm_faults::Fault;
use dvelm_lb::LbMsg;
use dvelm_net::NodeId;
use dvelm_proc::Pid;
use dvelm_stack::xlate::XlateRule;
use dvelm_stack::{Segment, SockId};
use std::rc::Rc;

/// Everything that can happen in the simulated cluster.
#[derive(Debug)]
pub enum Event {
    /// A frame reaches a host's interface.
    PacketArrival { host: usize, seg: Segment },
    /// One broadcast frame reaches several hosts' interfaces at the same
    /// instant (the single-IP router's inbound fan-out, §II-A). Batching
    /// the fan-out into one event keeps the scheduler's in-flight set
    /// O(frames) instead of O(frames × nodes); hosts are delivered in
    /// order, which is exactly the dispatch order the per-host events had
    /// (consecutive scheduler sequence numbers at an equal instant).
    ///
    /// When every server node hears the frame, `hosts` is the world's
    /// shared member snapshot and only the members claiming the frame's
    /// port run the receive path; any other list is delivered host by
    /// host.
    BroadcastArrival { hosts: Rc<[usize]>, seg: Segment },
    /// A socket's one pending retransmission fire, pushed at the dispatch
    /// key with sequence `seq` (see [`SockTimers`]).
    ///
    /// [`SockTimers`]: dvelm_stack::SockTimers
    SockTimer { host: usize, sock: SockId, seq: u64 },
    /// One iteration of an application's real-time loop. `gen` names the
    /// tick chain: events from a chain that was replaced (the process was
    /// suspended and resumed, killed and restarted) are stale and ignored,
    /// so a resumed process never double-ticks.
    AppTick { host: usize, pid: Pid, gen: u64 },
    /// An application consumes readable data from one of its sockets.
    AppRead { host: usize, pid: Pid, sock: SockId },
    /// A conductor daemon's periodic tick (monitor + heartbeat + policies).
    ConductorTick { host: usize },
    /// A conductor-to-conductor message arrives.
    LbMessage {
        host: usize,
        from: NodeId,
        msg: LbMsg,
    },
    /// The migration engine asked to be stepped.
    MigrationStep { mig: u64 },
    /// A translation rule reaches an in-cluster peer (transd, §II-B).
    InstallXlate { host: usize, rule: XlateRule },
    /// A translation-rule revocation reaches a peer (abort rollback).
    RemoveXlate { host: usize, rule: XlateRule },
    /// A scheduled fault fires (see [`World::install_fault_plan`]).
    ///
    /// [`World::install_fault_plan`]: crate::World::install_fault_plan
    Fault { fault: Fault },
    /// A timed [`Fault::Overload`] surge expires. `gen` names the surge
    /// installation that scheduled this restore: if a newer surge replaced
    /// it on the same host in the meantime, the stale restore is ignored
    /// instead of cutting the new surge short.
    SurgeRestore { host: usize, gen: u64 },
    /// A timed [`Fault::Partition`] heals. `gen` names the partition
    /// installation that scheduled this heal: each partition is healed by
    /// exactly its own event, so overlapping partitions compose.
    PartitionHeal { gen: u64 },
    /// Periodic sweep evicting stale translation rules on every live host
    /// (only scheduled when `WorldConfig::xlate_gc_ttl_us` is set).
    XlateGc,
}
