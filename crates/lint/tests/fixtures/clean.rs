//! Clean fixture: the shapes the rules demand. Must produce zero
//! diagnostics under the strictest virtual path,
//! `crates/stack/src/fixture.rs` (in scope for R2 and R3).

use dvelm_sim::SimTime;
use std::collections::BTreeMap;

/// An entry with a TTL liveness stamp, refreshed only through a threaded
/// clock.
pub struct Entry {
    /// Sim time of the last hit.
    pub last_hit: SimTime,
}

/// A table of entries in deterministic iteration order.
pub struct Table {
    entries: BTreeMap<u16, Entry>,
}

impl Table {
    /// Refreshes `port`'s liveness stamp at `now`.
    pub fn refresh_at(&mut self, port: u16, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&port) {
            e.last_hit = now;
        }
    }
}
