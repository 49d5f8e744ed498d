//! Closed-form freeze-time model of the three socket-migration strategies.
//!
//! The simulation *measures* freeze times; this module *predicts* them from
//! workload parameters, making the structural argument of §III-C explicit:
//!
//! ```text
//! iterative:    T = T_mem + Σ_i (rtt + ser(b_i) + xfer(b_i) + rst(b_i))
//! collective:   T = T_mem + capture(n) + ser(B) + xfer(B) + rst(B)
//! incremental:  T = T_mem + capture(n) + ser(ΔB) + xfer(ΔB) + rst(ΔB)
//! ```
//!
//! where `b_i` is one socket's record, `B = Σ b_i`, and `ΔB` is the part of
//! `B` that changed during the last precopy window. The flow-level DVE
//! simulation uses this model for migration durations, and an integration
//! test checks the packet-level simulation stays within a factor of the
//! prediction — if the simulator and the model drift apart, one of them is
//! wrong.

use crate::cost::CostModel;
use crate::strategy::Strategy;

/// Workload parameters of a migration, as the model sees them.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Live connections (sockets beyond listener bookkeeping).
    pub connections: u64,
    /// Mean full record size per socket, bytes (scalar block + queued skbs).
    pub socket_record_bytes: u64,
    /// Mean incremental record per socket at freeze, bytes.
    pub socket_delta_bytes: u64,
    /// Dirty memory shipped in the freeze phase, bytes (dirty rate × final
    /// precopy window).
    pub freeze_mem_bytes: u64,
}

impl WorkloadProfile {
    /// The zone-server workload of §VI-C at `n` connections, using the
    /// calibrated defaults of the packet-level simulation.
    pub fn zone_server(n: u64) -> WorkloadProfile {
        WorkloadProfile {
            connections: n,
            // ≈2 KB scalar block + a couple of in-flight 256 B updates.
            socket_record_bytes: 2048 + 2 * (68 + 256),
            // Delta header + changed scalars + one fresh skb on average.
            socket_delta_bytes: 24 + 96 + (68 + 256),
            // ~100 pages/10 ms frame × 2 frames in the 20 ms window.
            freeze_mem_bytes: 200 * 4096,
        }
    }

    /// Total socket bytes at freeze for a strategy.
    pub fn freeze_socket_bytes(&self, strategy: Strategy) -> u64 {
        let per_sock = match strategy {
            Strategy::Iterative | Strategy::Collective => self.socket_record_bytes,
            Strategy::IncrementalCollective => self.socket_delta_bytes,
        };
        self.connections * (per_sock + 16) // + attach record
    }
}

/// Predicted freeze time, µs.
pub fn predict_freeze_us(cost: &CostModel, w: &WorkloadProfile, strategy: Strategy) -> u64 {
    let base = cost.signal_us + 2 * cost.barrier_us;
    let mem = cost.bulk_us(w.freeze_mem_bytes + 2048 /* freeze records */);
    let socks = match strategy {
        Strategy::Iterative => {
            cost.rtt_us() + w.connections * cost.per_socket_iterative_us(w.socket_record_bytes + 16)
        }
        Strategy::Collective => {
            cost.capture_setup_us(w.connections)
                + cost.bulk_us(w.freeze_socket_bytes(Strategy::Collective))
        }
        Strategy::IncrementalCollective => {
            cost.capture_setup_us(w.connections)
                + cost.bulk_us(w.freeze_socket_bytes(Strategy::IncrementalCollective))
        }
    };
    base + mem + socks
}

/// Predicted total migration duration (precopy schedule + freeze), µs.
pub fn predict_total_us(cost: &CostModel, w: &WorkloadProfile, strategy: Strategy) -> u64 {
    // The halving timeout schedule: 320+160+80+40+20 ms by default.
    let mut precopy = 0;
    let mut t = cost.initial_loop_timeout_us;
    loop {
        precopy += t;
        if t <= cost.freeze_threshold_us {
            break;
        }
        t = (t / 2).max(cost.freeze_threshold_us);
    }
    precopy + predict_freeze_us(cost, w, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reproduces_fig5b_ordering() {
        let cost = CostModel::default();
        for n in [16, 64, 256, 1024] {
            let w = WorkloadProfile::zone_server(n);
            let it = predict_freeze_us(&cost, &w, Strategy::Iterative);
            let co = predict_freeze_us(&cost, &w, Strategy::Collective);
            let inc = predict_freeze_us(&cost, &w, Strategy::IncrementalCollective);
            assert!(it > co, "n={n}");
            assert!(co > inc, "n={n}");
        }
    }

    #[test]
    fn model_matches_paper_bands_at_1024() {
        let cost = CostModel::default();
        let w = WorkloadProfile::zone_server(1024);
        let it = predict_freeze_us(&cost, &w, Strategy::Iterative);
        let inc = predict_freeze_us(&cost, &w, Strategy::IncrementalCollective);
        assert!((100_000..350_000).contains(&it), "iterative {it}µs");
        assert!(inc < 40_000, "incremental {inc}µs must stay under 40 ms");
    }

    #[test]
    fn iterative_is_asymptotically_linear() {
        let cost = CostModel::default();
        let f = |n| {
            predict_freeze_us(&cost, &WorkloadProfile::zone_server(n), Strategy::Iterative) as f64
        };
        let slope_lo = (f(512) - f(256)) / 256.0;
        let slope_hi = (f(1024) - f(512)) / 512.0;
        assert!(
            (slope_lo / slope_hi - 1.0).abs() < 0.05,
            "slopes diverge: {slope_lo} vs {slope_hi}"
        );
    }

    #[test]
    fn total_includes_the_timeout_schedule() {
        let cost = CostModel::default();
        let w = WorkloadProfile::zone_server(64);
        let total = predict_total_us(&cost, &w, Strategy::Collective);
        let freeze = predict_freeze_us(&cost, &w, Strategy::Collective);
        assert_eq!(total - freeze, (320 + 160 + 80 + 40 + 20) * 1000);
    }
}
