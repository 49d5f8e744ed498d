//! The client population and its movement model (§VI-C).
//!
//! 10 000 clients start uniformly distributed. Over the ~15-minute
//! experiment, clients from the middle rows of the virtual space gradually
//! move toward the up-left and down-right corners (Fig. 5a's arrows) — the
//! entity clustering reported as typical for large-scale environments.

use crate::space::{VirtualSpace, ZONES};
use dvelm_sim::DetRng;

/// Movement-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct MovementConfig {
    /// Fraction of middle-region clients that join the drift.
    pub mover_fraction: f64,
    /// Middle region: rows `middle_rows.0 ..= middle_rows.1` drift.
    pub middle_rows: (usize, usize),
    /// Simulation second at which the drift starts.
    pub start_s: f64,
    /// Simulation second by which movers arrive at their corner region.
    pub arrive_s: f64,
}

impl Default for MovementConfig {
    fn default() -> Self {
        MovementConfig {
            mover_fraction: 0.45,
            middle_rows: (3, 6),
            start_s: 60.0,
            arrive_s: 720.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Client {
    x: f64,
    y: f64,
    /// Drift target, if this client is a mover.
    target: Option<(f64, f64)>,
    start: (f64, f64),
}

/// The population of simulated players.
#[derive(Debug, Clone)]
pub struct ClientPopulation {
    clients: Vec<Client>,
    cfg: MovementConfig,
    jitter: DetRng,
}

impl ClientPopulation {
    /// `n` clients uniformly distributed; movers chosen per the config.
    pub fn new(n: usize, cfg: MovementConfig, seed: u64) -> ClientPopulation {
        let mut rng = DetRng::new(seed);
        let mut clients = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.range_f64(0.0, 10.0);
            let y = rng.range_f64(0.0, 10.0);
            let row = y as usize;
            let in_middle = row >= cfg.middle_rows.0 && row <= cfg.middle_rows.1;
            let target = if in_middle && rng.chance(cfg.mover_fraction) {
                // Upper middle drifts up-left, lower middle down-right.
                let up = y < (cfg.middle_rows.0 + cfg.middle_rows.1 + 1) as f64 / 2.0;
                Some(if up {
                    (rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 2.0))
                } else {
                    (rng.range_f64(7.0, 10.0), rng.range_f64(8.0, 10.0))
                })
            } else {
                None
            };
            clients.push(Client {
                x,
                y,
                target,
                start: (x, y),
            });
        }
        ClientPopulation {
            clients,
            cfg,
            jitter: rng.fork(0x77),
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Advance positions to simulation time `t_s` (idempotent per time; the
    /// drift is interpolated from the start positions, with small random
    /// walk noise for non-movers).
    pub fn advance_to(&mut self, t_s: f64) {
        let MovementConfig {
            start_s, arrive_s, ..
        } = self.cfg;
        let progress = ((t_s - start_s) / (arrive_s - start_s)).clamp(0.0, 1.0);
        for c in &mut self.clients {
            match c.target {
                Some((tx, ty)) => {
                    c.x = c.start.0 + (tx - c.start.0) * progress;
                    c.y = c.start.1 + (ty - c.start.1) * progress;
                }
                None => {
                    c.x = (c.x + self.jitter.range_f64(-0.02, 0.02)).clamp(0.0, 9.999);
                    c.y = (c.y + self.jitter.range_f64(-0.02, 0.02)).clamp(0.0, 9.999);
                }
            }
        }
    }

    /// Clients per zone.
    pub fn zone_counts(&self, space: &VirtualSpace) -> [u32; ZONES] {
        let mut counts = [0u32; ZONES];
        for c in &self.clients {
            counts[space.zone_of(c.x, c.y).0 as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ZoneId, GRID};

    /// Clients per grid row.
    fn row_counts(pop: &ClientPopulation, space: &VirtualSpace) -> [u32; GRID] {
        let mut rows = [0u32; GRID];
        for (z, n) in pop.zone_counts(space).iter().enumerate() {
            rows[ZoneId(z as u32).row()] += n;
        }
        rows
    }

    #[test]
    fn initial_distribution_is_roughly_uniform() {
        let pop = ClientPopulation::new(10_000, MovementConfig::default(), 1);
        let space = VirtualSpace::new();
        let counts = pop.zone_counts(&space);
        let (lo, hi) = counts
            .iter()
            .fold((u32::MAX, 0), |(l, h), c| (l.min(*c), h.max(*c)));
        assert!(
            lo > 50 && hi < 170,
            "zone counts out of uniform band: {lo}..{hi}"
        );
        assert_eq!(counts.iter().sum::<u32>(), 10_000);
    }

    #[test]
    fn drift_concentrates_corners_and_empties_middle() {
        let mut pop = ClientPopulation::new(10_000, MovementConfig::default(), 2);
        let space = VirtualSpace::new();
        let rows_before = row_counts(&pop, &space);
        pop.advance_to(900.0);
        let rows_after = row_counts(&pop, &space);
        // Top two rows (node1's region) and bottom two (node5's) gained.
        let top_before: u32 = rows_before[..2].iter().sum();
        let top_after: u32 = rows_after[..2].iter().sum();
        let mid_before: u32 = rows_before[4..6].iter().sum();
        let mid_after: u32 = rows_after[4..6].iter().sum();
        assert!(
            top_after as f64 > top_before as f64 * 1.3,
            "{top_before} → {top_after}"
        );
        assert!(
            (mid_after as f64) < mid_before as f64 * 0.8,
            "{mid_before} → {mid_after}"
        );
        assert_eq!(rows_after.iter().sum::<u32>(), 10_000, "nobody vanishes");
    }

    #[test]
    fn drift_is_gradual() {
        let mut pop = ClientPopulation::new(5_000, MovementConfig::default(), 3);
        let space = VirtualSpace::new();
        pop.advance_to(300.0);
        let mid_300: u32 = row_counts(&pop, &space)[4..6].iter().sum();
        pop.advance_to(700.0);
        let mid_700: u32 = row_counts(&pop, &space)[4..6].iter().sum();
        assert!(
            mid_700 < mid_300,
            "middle keeps draining: {mid_300} → {mid_700}"
        );
    }

    #[test]
    fn before_start_nothing_moves_far() {
        let mut pop = ClientPopulation::new(1_000, MovementConfig::default(), 4);
        let space = VirtualSpace::new();
        let before = row_counts(&pop, &space);
        pop.advance_to(30.0); // before start_s
        let after = row_counts(&pop, &space);
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((*b as i64 - *a as i64).abs() < 30, "only jitter expected");
        }
    }
}
