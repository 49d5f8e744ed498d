//! Per-migration measurement record — the numbers behind Fig. 4, 5b and 5c.

use crate::effect::{AbortReason, PhaseId};
use crate::strategy::Strategy;
use dvelm_proc::Pid;
use dvelm_sim::SimTime;

/// Everything measured about one migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The migrated process.
    pub pid: Pid,
    /// Socket-migration strategy used.
    pub strategy: Strategy,
    /// Migration initiated (precopy begins; application keeps running).
    pub started_at: SimTime,
    /// Application suspended (freeze phase begins).
    pub frozen_at: SimTime,
    /// Application resumed on the destination.
    pub resumed_at: SimTime,
    /// Precopy iterations performed (including the initial full transfer).
    pub precopy_iterations: u32,
    /// Bytes shipped while the application was running.
    pub precopy_bytes: u64,
    /// of which: socket state shipped during precopy (incremental strategy).
    pub precopy_socket_bytes: u64,
    /// Bytes shipped during the freeze phase (memory + freeze records +
    /// sockets).
    pub freeze_bytes: u64,
    /// of which: socket state shipped during the freeze phase — the Fig. 5c
    /// metric.
    pub freeze_socket_bytes: u64,
    /// Sockets migrated.
    pub sockets_migrated: u32,
    /// Packets captured on the destination while the sockets were in
    /// transit, then re-injected.
    pub packets_reinjected: u64,
    /// Protocol-phase entry instants, in order — the Fig. 3 timeline of this
    /// particular migration.
    pub phase_log: Vec<(&'static str, SimTime)>,
    /// `Some((phase, reason))` if the migration was aborted rather than
    /// completed; `resumed_at` then records the rollback instant.
    pub aborted: Option<(PhaseId, AbortReason)>,
}

impl MigrationReport {
    /// A zeroed report (filled in by the engine).
    pub fn new(pid: Pid, strategy: Strategy, started_at: SimTime) -> MigrationReport {
        MigrationReport {
            pid,
            strategy,
            started_at,
            frozen_at: started_at,
            resumed_at: started_at,
            precopy_iterations: 0,
            precopy_bytes: 0,
            precopy_socket_bytes: 0,
            freeze_bytes: 0,
            freeze_socket_bytes: 0,
            sockets_migrated: 0,
            packets_reinjected: 0,
            phase_log: Vec::new(),
            aborted: None,
        }
    }

    /// Whether the migration aborted instead of completing.
    pub fn is_aborted(&self) -> bool {
        self.aborted.is_some()
    }

    /// Process freeze time — the interval the application was unresponsive
    /// (the Fig. 5b metric), µs.
    pub fn freeze_us(&self) -> u64 {
        self.resumed_at.saturating_since(self.frozen_at)
    }

    /// Total migration duration (precopy + freeze), µs.
    pub fn total_us(&self) -> u64 {
        self.resumed_at.saturating_since(self.started_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_intervals() {
        let mut r = MigrationReport::new(Pid(1), Strategy::Collective, SimTime::from_millis(100));
        r.frozen_at = SimTime::from_millis(700);
        r.resumed_at = SimTime::from_micros(727_500);
        assert_eq!(r.freeze_us(), 27_500);
        assert_eq!(r.total_us(), 627_500);
    }
}
