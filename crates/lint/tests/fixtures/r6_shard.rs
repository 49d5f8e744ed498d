//! Bad: simulation state shared across threads through primitives instead
//! of being mutated in dispatch order on the single event loop (R6
//! shard-isolation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Results collected through a lock from several threads: the drain order
/// is whatever the OS scheduler produced, so the merged stream differs run
/// to run.
pub struct EffectCollector {
    merged: Arc<Mutex<Vec<String>>>,
    delivered: AtomicU64,
}

impl EffectCollector {
    pub fn record(&self, line: String) {
        self.merged.lock().unwrap().push(line);
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ad-hoc fan-out onto threads.
pub fn fan_out(lines: Vec<String>, sink: &EffectCollector) {
    std::thread::scope(|s| {
        for line in lines {
            s.spawn(|| sink.record(line));
        }
    });
}
