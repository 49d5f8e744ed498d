//! BLCR-style checkpoint/restart (§III-A, §V-A).
//!
//! The paper extends the Berkeley Lab Checkpoint/Restart library with live
//! (incremental) checkpointing. This crate reproduces that layer:
//!
//! * **checkpoint image records** whose transfer sizes are first-class,
//!   because they drive the timing model (a compact encoder in
//!   [`wire`] serves only the benchmark's encode probe);
//! * **full checkpoints** (the first precopy transfer: memory map + all
//!   pages);
//! * **incremental updates** — dirty pages collected via the dirty bit plus a
//!   VMA-list diff against a tracking list (insertions, resizes, removals);
//! * **freeze-phase records** — the open-file table (paths only, file
//!   contents are shared per §II-A), thread registers/relations and signal
//!   handlers, exactly the items the leader thread and its followers dump in
//!   Fig. 3;
//! * **restart** — rebuild a [`Process`](dvelm_proc::Process) from the image
//!   and apply incremental updates, with content-hash verification.
//!
//! Sockets are deliberately *absent* here: stock BLCR "simply omits" them.
//! Socket migration is the contribution of the paper and lives in
//! `dvelm-migrate`.

pub mod checkpoint;
pub mod dirty;
pub mod image;
pub mod restore;
pub mod wire;

pub use checkpoint::{freeze_records, full_checkpoint, incremental_update};
pub use dirty::IncrementalTracker;
pub use image::{CheckpointImage, FreezeImage, ProcessMeta, VmaRecord, VMA_RECORD_LEN};
pub use restore::{apply_update, restore_process};
pub use wire::WireWriter;
