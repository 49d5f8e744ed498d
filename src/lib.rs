//! # dvelm — OS-level process live migration for load-balanced DVEs
//!
//! A full reproduction, as a Rust library, of *"An Efficient Process Live
//! Migration Mechanism for Load Balanced Distributed Virtual Environments"*
//! (Gerofi, Fujita, Ishikawa — IEEE CLUSTER 2010), including every substrate
//! the paper's kernel prototype relied on, rebuilt as a deterministic
//! simulation:
//!
//! | crate | role |
//! |---|---|
//! | [`dvelm_sim`] | discrete-event core: clock, events, jiffies, RNG |
//! | [`dvelm_net`] | single-IP broadcast router, in-cluster switch, links |
//! | [`dvelm_stack`] | TCP/UDP stack: ehash/bhash, 3 skb queues, netfilter, capture, translation |
//! | [`dvelm_proc`] | processes: VMAs + dirty bits, threads, fd table |
//! | [`dvelm_ckpt`] | BLCR-style checkpoint/restart + incremental updates |
//! | [`dvelm_migrate`] | **the contribution**: precopy live migration with iterative / collective / incremental-collective socket migration and packet-loss prevention |
//! | [`dvelm_lb`] | decentralized conductor middleware (4 policies, 2-phase commit) |
//! | [`dvelm_faults`] | scripted fault injection: crashes, loss bursts, partitions, control-plane chaos |
//! | [`dvelm_monitor`] | always-on invariant monitor: single ownership, no lost processes, capture budgets, epoch monotonicity |
//! | [`dvelm_cluster`] | the runtime world wiring everything together |
//! | [`dvelm_dve`] | the 10×10-zone, 10 000-client DVE workload |
//! | [`dvelm_openarena`] | the OpenArena-like FPS workload (Fig. 4) |
//! | [`dvelm_metrics`] | stats, time series, tables, ASCII charts |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results. The
//! [`prelude`] re-exports what examples and downstream users typically need.

pub use dvelm_ckpt as ckpt;
pub use dvelm_cluster as cluster;
pub use dvelm_dve as dve;
pub use dvelm_faults as faults;
pub use dvelm_lb as lb;
pub use dvelm_metrics as metrics;
pub use dvelm_migrate as migrate;
pub use dvelm_monitor as monitor;
pub use dvelm_net as net;
pub use dvelm_openarena as openarena;
pub use dvelm_proc as proc;
pub use dvelm_sim as sim;
pub use dvelm_stack as stack;

/// The commonly used surface of the library in one import.
pub mod prelude {
    pub use dvelm_cluster::{App, AppCtx, MigrationOutcome, Recovery, World, WorldConfig};
    pub use dvelm_faults::{CtrlDir, Fault, FaultPlan, HostSet};
    pub use dvelm_lb::{Conductor, LoadInfo, PolicyConfig};
    pub use dvelm_migrate::{CostModel, MigrationReport, Strategy};
    pub use dvelm_net::{Ip, NodeId, Port, SockAddr};
    pub use dvelm_proc::{Fd, Pid, Process};
    pub use dvelm_sim::{DetRng, SimTime, JIFFY, MILLISECOND, SECOND};
    pub use dvelm_stack::udp::Datagram;
    pub use dvelm_stack::{HostStack, Segment, Skb, SockId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let w = World::new(WorldConfig::default());
        assert_eq!(w.now(), SimTime::ZERO);
        let _ = Strategy::ALL;
    }
}
