//! Process live migration optimized for processes that maintain a massive
//! amount of network connections — the paper's contribution (§III, §V).
//!
//! The engine implements the precopy strategy on top of `dvelm-ckpt`
//! (incremental dirty-page + VMA-diff checkpointing in a helper loop with a
//! shrinking timeout, 20 ms freeze threshold) and extends it with:
//!
//! * **socket migration** in three variants (§III-C):
//!   [`Strategy::Iterative`] (one-by-one fd-table iteration, a capture
//!   round-trip and a transfer per socket),
//!   [`Strategy::Collective`] (three-phase: all capture details in one
//!   message → one unified state buffer → remaining fds) and
//!   [`Strategy::IncrementalCollective`] (socket deltas additionally shipped
//!   during the precopy loop, so the freeze phase carries only changes);
//! * **incoming packet-loss prevention** (§III-B): capture entries are
//!   enabled on the destination *before* the source sockets are disabled,
//!   and the captured queue is re-injected after restore;
//! * **in-cluster connection migration** (§III-C): translation rules for the
//!   peers of local connections, emitted as control messages;
//! * **TCP timestamp adjustment** (§V-C1): the source's jiffies are recorded
//!   at detach and the delta applied on restore.
//!
//! The engine is a deterministic state machine: the cluster runtime (or a
//! test harness) calls [`MigrationEngine::step`] at the instants the engine
//! requests, passing mutable access to the two host stacks and the migrating
//! process plus an [`EffectSink`]. Every cross-layer side effect — app
//! suspension, translation requests, stack effects on either host,
//! completion — arrives through that sink as a typed, ordered, timestamped
//! [`Effect`]; `dvelm_metrics::TraceRecorder` derives the
//! [`MigrationReport`] from the same stream (see the [`effect`] module).
//!
//! # Example: predicting freeze times
//!
//! ```
//! use dvelm_migrate::{predict_freeze_us, CostModel, Strategy, WorkloadProfile};
//!
//! let cost = CostModel::default();
//! let w = WorkloadProfile::zone_server(1024);
//! let iterative = predict_freeze_us(&cost, &w, Strategy::Iterative);
//! let incremental = predict_freeze_us(&cost, &w, Strategy::IncrementalCollective);
//! // The paper's headline: >1000 connections migrate in under 40 ms.
//! assert!(incremental < 40_000);
//! assert!(iterative > 3 * incremental);
//! ```

// Lint policy for live code (DESIGN.md §8): no panics on the migration hot
// path (return a typed error, or `#[expect]` the lint on the one fn whose
// invariant makes it unreachable), and every `pub` item is documented or,
// when nothing outside the crate can reach it, `pub(crate)`. Test code is
// exempt from these and from the determinism bans in `clippy.toml`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    ),
    warn(missing_docs, unreachable_pub)
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

/// Timing and size models for transfer/freeze cost accounting.
pub mod cost;
/// The typed cross-layer effect stream ([`Effect`], [`AbortReason`]).
pub mod effect;
/// The migration state machine ([`MigrationEngine`]).
pub mod engine;
/// Process/socket staging snapshots the engine ships between nodes.
pub mod model;
/// Per-migration measurement results ([`MigrationReport`]).
pub mod report;
/// Socket-migration strategies (§IV: iterative, collective, incremental).
pub mod strategy;

pub use cost::CostModel;
pub use effect::{
    AbortReason, AbortRecovery, ByteClass, Effect, EffectBuf, EffectSink, MigrationAborted,
    PhaseId, Side,
};
pub use engine::{AbortIo, MigrationComplete, MigrationEngine, OverloadGuard, StepIo};
pub use model::{predict_freeze_us, predict_total_us, WorkloadProfile};
pub use report::MigrationReport;
pub use strategy::Strategy;
