//! The decentralized load-balancing middleware (§IV).
//!
//! Every node runs a *conductor* daemon that monitors local resource
//! consumption (the paper samples via `atop`), broadcasts it periodically to
//! all peers (information policy — the heartbeat doubles as a liveness
//! signal), and maintains an approximation of the overall cluster load. The
//! algorithm is **sender-initiated** and specified by the four classic
//! policies of Shivaratri/Krueger/Singhal, exactly as the paper frames them:
//!
//! * **transfer policy** — threshold driven: a node enters the migration
//!   initiator state when local load exceeds a critical threshold or when it
//!   exceeds the approximated cluster average by a margin; the receiver side
//!   runs a two-phase commit and accepts at most one migration at a time;
//!   both sides enter a calm-down period afterwards;
//! * **location policy** — find a peer whose load is on the *opposite side*
//!   of the cluster average, about as much lighter as the sender is heavier,
//!   so both converge to the average;
//! * **selection policy** — pick the process whose CPU consumption is
//!   closest to the local excess over the average;
//! * **information policy** — periodic broadcast.
//!
//! The conductor is a pure, deterministic state machine: inputs are ticks
//! and received messages; outputs are [`LbEffect`]s the
//! runtime executes (broadcast, unicast, start a migration).
//!
//! # Example
//!
//! ```
//! use dvelm_lb::{LbEffect, Conductor, LbMsg, LoadInfo, PolicyConfig};
//! use dvelm_net::NodeId;
//! use dvelm_proc::Pid;
//! use dvelm_sim::SimTime;
//!
//! let mut cond = Conductor::new(NodeId(0), PolicyConfig::default());
//! // Learn about a light peer, then tick while overloaded.
//! cond.peers.update(LoadInfo::new(NodeId(1), 35.0, 20, SimTime::from_secs(1)));
//! let local = LoadInfo::new(NodeId(0), 95.0, 20, SimTime::from_secs(1));
//! let effects = cond.on_tick(SimTime::from_secs(1), local, &[(Pid(7), 12.0)]);
//! assert!(effects
//!     .iter()
//!     .any(|a| matches!(a, LbEffect::Send(NodeId(1), LbMsg::MigRequest { .. }))));
//! ```

pub mod admission;
pub mod conductor;
pub mod info;
pub mod monitor;
pub mod peers;
pub mod policy;
pub mod spanning;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionDenied, AdmissionStats};
pub use conductor::{Conductor, ConductorPhase, LbEffect, LbMsg, LbStats, StrategyPreference};
pub use info::LoadInfo;
pub use monitor::LoadMonitor;
pub use peers::PeerDb;
pub use policy::PolicyConfig;
pub use spanning::{tree_children, Dissemination};
