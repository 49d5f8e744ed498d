//! The simulated DVE cluster runtime.
//!
//! Composes every layer of the reproduction into one deterministic
//! discrete-event world (Fig. 1 + Fig. 2):
//!
//! * hosts — server nodes (shared public IP + unique local IP), client hosts
//!   on the WAN side, database hosts on the local network only;
//! * the broadcast router and the in-cluster switch (`dvelm-net`);
//! * per-host network stacks (`dvelm-stack`) and processes (`dvelm-proc`);
//! * applications (zone servers, game servers, clients, databases) written
//!   against the [`App`] trait, running a real-time loop inside
//!   their process;
//! * the migration daemon: [`MigrationEngine`](dvelm_migrate::MigrationEngine)
//!   tasks stepped by events (`migd` in Fig. 2);
//! * the conductor daemons (`dvelm-lb`) wired to heartbeat broadcasts and
//!   migration initiation (`cond` in Fig. 2).
//!
//! Every event dispatches from one totally ordered
//! [`Scheduler`](dvelm_sim::Scheduler) on one thread.
//!
//! # Example
//!
//! Build a two-node cluster, run a process, migrate it live:
//!
//! ```
//! use dvelm_cluster::{App, AppCtx, World, WorldConfig};
//! use dvelm_migrate::Strategy;
//!
//! struct Idle;
//! impl App for Idle {
//!     fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
//!         ctx.touch_memory(8);
//!     }
//! }
//!
//! let mut world = World::new(WorldConfig::default());
//! let n0 = world.add_server_node();
//! let n1 = world.add_server_node();
//! let pid = world.spawn_process(n0, "svc", 16, 128, Box::new(Idle));
//! world.run_for(1_000_000); // 1 s
//! world.begin_migration(pid, n1, Strategy::IncrementalCollective).unwrap();
//! world.run_for(2_000_000);
//! assert_eq!(world.host_of(pid), Some(n1));
//! assert!(world.reports[0].freeze_us() < 50_000);
//! ```

// The determinism bans in `clippy.toml` (DESIGN.md §8) cover live code;
// unit tests may use what they like.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

pub mod app;
pub mod event;
pub mod host;
pub mod world;

pub use app::{App, AppCtx};
pub use dvelm_faults::{Fault, FaultPlan};
pub use event::Event;
pub use host::{Host, HostKind, ProcEntry};
pub use world::{
    MigId, MigrationOutcome, PacketLogEntry, Recovery, ResourceUsage, World, WorldConfig,
};
