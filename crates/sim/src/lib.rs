//! Deterministic discrete-event simulation (DES) core.
//!
//! Everything in the reproduction runs on simulated time: the network fabric,
//! the TCP/UDP stack timers, the precopy loop of the live-migration engine and
//! the load-balancing heartbeats are all events on a single totally-ordered
//! queue. Two runs with the same seed produce bit-identical traces, which is
//! what makes the paper's figures regenerable as tests.
//!
//! The crate deliberately has no dependencies: time is a `u64` of
//! microseconds, the RNG is SplitMix64/xoshiro-style and the queue is a
//! calendar queue (the kernel timer wheel's shape) ordered by due time and a
//! monotone tie-breaking sequence number (FIFO among simultaneous events).
//!
//! # Example
//!
//! ```
//! use dvelm_sim::{Scheduler, SimTime};
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_after(50_000, "snapshot");
//! sched.schedule_after(10_000, "usercmd");
//! let (t, ev) = sched.pop_next().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(10), "usercmd"));
//! assert_eq!(sched.now(), SimTime::from_millis(10));
//! ```

// The determinism bans in `clippy.toml` (DESIGN.md §8) cover live code;
// unit tests may use what they like.
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;

pub use queue::{DispatchKey, EventQueue};
pub use rng::DetRng;
pub use sched::{SchedStats, Scheduler};
pub use time::{Jiffies, SimTime, JIFFY, MICROSECOND, MILLISECOND, SECOND};
