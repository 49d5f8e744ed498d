//! A simulated Linux-2.6-like TCP/UDP network stack.
//!
//! This is the substrate the paper's socket-migration mechanism operates on
//! (§III-C, §V-B/C/D). It reproduces the kernel structures the paper
//! manipulates:
//!
//! * **ehash / bhash** lookup tables — established-connection and bind/listen
//!   hash tables, each an open-addressing table probed once per segment;
//!   "disabling" a socket for migration means unhashing it from both and
//!   clearing its retransmission timer.
//! * the three TCP **socket-buffer queues** — write (outgoing, unacked),
//!   receive (in-order, undelivered) and out-of-order. The kernel's backlog
//!   and prequeue are not modelled: the signal-based final checkpoint
//!   (§V-C1) returns every thread to userspace, so both are empty at
//!   freeze time.
//! * **jiffies-based TCP timestamps** feeding RTT estimation and congestion
//!   control — the structures that must be shifted on the destination node.
//! * the **netfilter hooks** of the prototype, in its fixed order: on
//!   `LOCAL_IN` address translation (in-cluster migration) and then packet
//!   capture (loss prevention), so capture matches a translated segment by
//!   its rewritten addresses; on `LOCAL_OUT` translation alone.
//!   [`HostStack::capture_hook`] switches capture off for the §V-B
//!   ablation.
//!
//! The stack is a deterministic state machine: all entry points take the
//! current [`SimTime`](dvelm_sim::SimTime) and return
//! [`StackEffect`]s (segments to transmit, data to deliver,
//! timers to arm, capture-budget incidents) that the cluster runtime turns
//! into events.

/// Incoming-packet capture for loss prevention during migration (§V-B).
pub mod capture;
/// The open-addressing hash table behind ehash and bhash.
mod demux;
/// The member stacks of one ONE-IP public address, shared with the runtime.
pub mod group;
/// The per-node stack: socket table, ehash/bhash, timers, migration ops.
pub mod host;
/// Per-port claim counts: the receive path's summary of what a host keeps.
mod ports;
/// Wire segments (the simulated packets).
pub mod seg;
/// Socket buffers with byte accounting.
pub mod skb;
/// The tagged socket union (TCP or UDP).
pub mod socket;
/// The dense [`SockId`]-indexed table behind every socket lookup.
pub mod socktable;
/// The TCP state machine and its checkpointable record.
pub mod tcp;
/// One pending retransmission fire per socket.
pub mod timer;
/// UDP sockets and their checkpointable record.
pub mod udp;
/// Address translation for in-cluster connection migration (§V-D).
pub mod xlate;

pub use capture::{
    CaptureBudget, CaptureKey, CaptureOutcome, CaptureTable, PressureEvent, PressureKind,
    TcpShedPolicy,
};
pub use group::{ClaimChanges, RxGroup};
pub use host::{HostStack, SockId, StackEffect, StackStats};
pub use seg::{Segment, TcpFlags, Transport, IP_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN};
pub use skb::Skb;
pub use socket::Socket;
pub use socktable::SockTable;
pub use tcp::{TcpSocket, TcpSocketRecord, TcpState};
pub use timer::{SockTimers, TimerFire};
pub use udp::UdpSocket;
pub use xlate::{SelfXlateRule, XlateRule, XlateTable};
