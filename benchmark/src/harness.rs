//! One repetition of a workload: build, warm up, drive the measured window
//! slice by slice, settle, check, and collect every outcome.
//!
//! Host time is measured only around the calls into the simulator
//! (`run_until`, `begin_migration`, `enable_load_balancing`); sampling the
//! world between those calls is not charged to any slice.

use crate::trace::Tracer;
use crate::workload::{Action, Scenario, Spec, Traffic, Workload};
use dvelm_cluster::World;
use dvelm_sim::{SimTime, MILLISECOND, SECOND};
use std::collections::BTreeMap;
use std::time::Instant;

/// A node above this CPU share is overloaded (the conductor's critical
/// threshold).
const OVERLOAD_PCT: f64 = 88.0;
/// The cluster is balanced while no node exceeds the mean by more than
/// this (the conductor's imbalance delta).
const IMBALANCE_PCT: f64 = 8.0;
/// The settle loop gives up on migrations still running after this long.
const SETTLE_LIMIT_US: u64 = 60 * SECOND;
/// Untimed drain after the last migration settled.
const DRAIN_US: u64 = 100 * MILLISECOND;
/// Largest share of application messages a run may lose.
const MAX_LOSS: f64 = 0.01;

/// One 1-sim-s slice of the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Application messages delivered in the slice.
    pub msgs: u64,
    /// Host nanoseconds spent inside simulator calls in the slice.
    pub host_ns: u64,
}

/// Load-balancing outcomes, sampled every 100 ms from conductor start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Balance {
    /// Time from conductor start after which every sample was balanced, µs
    /// (the window length if the last sample was not).
    pub balance_us: u64,
    /// Node-time spent above the overload threshold, node·µs.
    pub overload_node_us: u64,
}

/// Conductor counters summed over the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LbCounters {
    pub heartbeats_sent: u64,
    pub requests_sent: u64,
    pub requests_rejected: u64,
    pub migrations_completed: u64,
    pub migrations_failed: u64,
}

/// Everything a repetition measured in simulated terms. Two repetitions of
/// one spec must produce identical values, traced or not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Det {
    /// Events dispatched in the window.
    pub window_events: u64,
    /// Messages sent and received over the whole run (loss ratio).
    pub sent: u64,
    pub received: u64,
    /// Migrations begun (by the script or the conductor).
    pub started: usize,
    pub completed: usize,
    pub aborted: usize,
    /// Scripted migrations `begin_migration` refused.
    pub rejected: usize,
    /// Migrations still running when the settle limit ran out.
    pub unsettled: usize,
    /// Per completed migration, sorted ascending.
    pub freeze_us: Vec<u64>,
    pub total_us: Vec<u64>,
    pub freeze_bytes: Vec<u64>,
    pub freeze_socket_bytes: Vec<u64>,
    /// Precopy iterations summed over completed migrations.
    pub precopy_iterations: u64,
    /// Time in each phase summed over completed migrations, µs, by label.
    pub phase_us: BTreeMap<&'static str, u64>,
    /// Longest gap between consecutive server→client messages at any
    /// client in the window, µs.
    pub client_gap_max_us: u64,
    /// `oa_hotspot_lb` only.
    pub balance: Option<Balance>,
    pub lb: LbCounters,
    /// Frames that reached a host stack in the window.
    pub deliveries: u64,
    /// ... of which no socket matched (broadcast copies for other nodes).
    pub deliveries_no_socket: u64,
    pub rx_captured: u64,
    pub reinjected: u64,
    pub capture_shed: u64,
    pub peak_queued_packets: u64,
    pub violations: usize,
    pub clamped: u64,
    pub route_errors: u64,
}

impl Det {
    /// Completed over started migrations.
    pub fn success_ratio(&self) -> f64 {
        if self.started == 0 {
            return 0.0;
        }
        self.completed as f64 / self.started as f64
    }

    /// Received over sent messages.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.received as f64 / self.sent as f64
    }

    /// The correctness checks; every failure is described in one line.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.violations > 0 {
            out.push(format!("{} invariant violations", self.violations));
        }
        let loss = 1.0 - self.delivery_ratio();
        if loss > MAX_LOSS {
            out.push(format!(
                "message loss {loss:.4} above {MAX_LOSS} ({} of {} received)",
                self.received, self.sent
            ));
        }
        if self.started == 0 {
            out.push("no migration started".into());
        }
        if self.aborted > 0 {
            out.push(format!("{} migrations aborted", self.aborted));
        }
        if self.rejected > 0 {
            out.push(format!("{} scripted migrations refused", self.rejected));
        }
        if self.unsettled > 0 {
            out.push(format!("{} migrations never settled", self.unsettled));
        }
        if self.clamped > 0 {
            out.push(format!("{} past-instant schedules clamped", self.clamped));
        }
        if self.route_errors > 0 {
            out.push(format!("{} route errors", self.route_errors));
        }
        out
    }
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// `World::new` plus topology and process construction, ns.
    pub build_ns: u64,
    /// Warm-up `run_until`, ns.
    pub warmup_ns: u64,
    pub slices: Vec<Slice>,
    /// Host ns of each `begin_migration` call.
    pub begin_ns: Vec<u64>,
    /// Host ns of the final `monitor_sweep`.
    pub sweep_ns: u64,
    pub det: Det,
    /// Present when the window was traced.
    pub tracer: Option<Tracer>,
}

impl Rep {
    /// Build plus warm-up, ns.
    pub fn setup_ns(&self) -> u64 {
        self.build_ns + self.warmup_ns
    }

    /// Host ns of the whole window.
    pub fn window_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.host_ns).sum()
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Build a world and run its warm-up, returning the scenario and the two
/// host times (build ns, warm-up ns).
pub fn set_up(spec: &Spec) -> (Scenario, u64, u64) {
    let t = Instant::now();
    let mut sc = spec.build();
    sc.world.enable_monitor();
    let build_ns = ns_since(t);
    let t = Instant::now();
    sc.world.run_until(spec.window_start());
    (sc, build_ns, ns_since(t))
}

/// Frames that reached any host stack, and those of them no socket matched.
fn stack_totals(w: &World) -> (u64, u64) {
    w.hosts.iter().fold((0, 0), |(rx, none), h| {
        let s = h.stack.stats();
        (rx + s.rx_total, none + s.rx_dropped_no_socket)
    })
}

/// Run one repetition of `spec`, tracing the window when `trace` is set.
pub fn run_rep(spec: &Spec, trace: bool) -> Rep {
    let (sc, build_ns, warmup_ns) = set_up(spec);
    let mut d = Runner {
        spec: *spec,
        sc,
        tracer: trace.then(Tracer::default),
        begin_ns: Vec::new(),
        rejected: 0,
        cpu_samples: Vec::new(),
        swarm_seen: Vec::new(),
        gap_max_us: 0,
    };
    d.init_samplers();
    let events_before = d.sc.world.sched.dispatched();
    let stack_before = stack_totals(&d.sc.world);
    let slices = d.run_window();
    let window_events = d.sc.world.sched.dispatched() - events_before;
    let stack_after = stack_totals(&d.sc.world);
    let unsettled = d.settle();
    let t = Instant::now();
    d.sc.world.monitor_sweep();
    let sweep_ns = ns_since(t);

    let mut det = collect(&d.sc);
    det.window_events = window_events;
    det.deliveries = stack_after.0 - stack_before.0;
    det.deliveries_no_socket = stack_after.1 - stack_before.1;
    det.rejected = d.rejected;
    det.unsettled = unsettled;
    det.client_gap_max_us = match spec.workload {
        Workload::TcpZoneMigration => d.gap_max_us,
        Workload::OaBroadcast | Workload::OaHotspotLb => oa_gap_max_us(&d.sc.traffic, spec),
    };
    if spec.workload == Workload::OaHotspotLb {
        det.balance = Some(balance(&d.cpu_samples, spec.step_us(), spec.window_us()));
    }
    Rep {
        build_ns,
        warmup_ns,
        slices,
        begin_ns: d.begin_ns,
        sweep_ns,
        det,
        tracer: d.tracer,
    }
}

struct Runner {
    spec: Spec,
    sc: Scenario,
    tracer: Option<Tracer>,
    begin_ns: Vec<u64>,
    rejected: usize,
    /// Per 100 ms sample, the CPU share of every server node.
    cpu_samples: Vec<Vec<f64>>,
    /// Per client swarm: (updates seen, instant the count last grew).
    swarm_seen: Vec<(u64, SimTime)>,
    gap_max_us: u64,
}

impl Runner {
    fn init_samplers(&mut self) {
        if let Traffic::Tcp {
            updates_received, ..
        } = &self.sc.traffic
        {
            let now = self.spec.window_start();
            self.swarm_seen = updates_received
                .iter()
                .map(|u| (*u.borrow(), now))
                .collect();
        }
    }

    /// Advance the world to `to`; returns host ns spent.
    fn advance(&mut self, to: SimTime) -> u64 {
        let t = Instant::now();
        match &mut self.tracer {
            None => self.sc.world.run_until(to),
            Some(tr) => tr.step_until(&mut self.sc.world, to),
        }
        ns_since(t)
    }

    /// Perform one scheduled action; returns host ns spent.
    fn act(&mut self, action: Action) -> u64 {
        let strategy = self.sc.world.cfg.strategy;
        let (pid, dst) = match action {
            Action::EnableLoadBalancing => {
                let t = Instant::now();
                self.sc.world.enable_load_balancing();
                let ns = ns_since(t);
                if let Some(tr) = &mut self.tracer {
                    tr.span("lb.enable_load_balancing", ns);
                }
                return ns;
            }
            Action::MigrateTo { server, node } => (self.sc.servers[server], self.sc.nodes[node]),
            Action::MigrateToNext { server } => {
                let pid = self.sc.servers[server];
                let nodes = &self.sc.nodes;
                let at = self
                    .sc
                    .world
                    .host_of(pid)
                    .and_then(|h| nodes.iter().position(|&n| n == h))
                    .unwrap_or(0);
                (pid, nodes[(at + 1) % nodes.len()])
            }
        };
        let t = Instant::now();
        let started = self.sc.world.begin_migration(pid, dst, strategy);
        let ns = ns_since(t);
        if started.is_none() {
            self.rejected += 1;
        }
        self.begin_ns.push(ns);
        if let Some(tr) = &mut self.tracer {
            tr.span("core.begin_migration", ns);
        }
        ns
    }

    /// Untimed observations after each step.
    fn sample(&mut self, now: SimTime) {
        match self.spec.workload {
            Workload::OaBroadcast => {}
            Workload::OaHotspotLb => {
                let w = &self.sc.world;
                self.cpu_samples.push(
                    self.sc
                        .nodes
                        .iter()
                        .map(|&h| w.hosts[h].cpu_pct())
                        .collect(),
                );
            }
            Workload::TcpZoneMigration => {
                let Traffic::Tcp {
                    updates_received, ..
                } = &self.sc.traffic
                else {
                    return;
                };
                for (seen, counter) in self.swarm_seen.iter_mut().zip(updates_received) {
                    let n = *counter.borrow();
                    if n > seen.0 {
                        self.gap_max_us = self.gap_max_us.max(now.saturating_since(seen.1));
                        *seen = (n, now);
                    }
                }
            }
        }
    }

    fn run_window(&mut self) -> Vec<Slice> {
        let start = self.spec.window_start();
        let step = self.spec.step_us();
        let steps = self.spec.window_us() / step;
        let mut actions = self.spec.actions().into_iter().peekable();
        let mut slices = Vec::new();
        let mut slice = Slice::default();
        let mut msgs = self.sc.traffic.delivered();
        for i in 0..steps {
            let at = i * step;
            while let Some(&(_, action)) = actions.peek().filter(|(off, _)| *off <= at) {
                actions.next();
                slice.host_ns += self.act(action);
            }
            let to = start + (at + step);
            slice.host_ns += self.advance(to);
            self.sample(to);
            if (at + step).is_multiple_of(SECOND) {
                let now = self.sc.traffic.delivered();
                slice.msgs = now - msgs;
                msgs = now;
                slices.push(std::mem::take(&mut slice));
            }
        }
        slices
    }

    /// Run (untimed) until no migration is in flight, then drain. Returns
    /// how many migrations were still running at the settle limit.
    fn settle(&mut self) -> usize {
        let w = &mut self.sc.world;
        let limit = w.now() + SETTLE_LIMIT_US;
        while w.active_migrations() > 0 && w.now() < limit {
            w.run_for(DRAIN_US);
        }
        let unsettled = w.active_migrations();
        w.run_for(DRAIN_US);
        unsettled
    }
}

/// The simulated outcomes readable from the world after the run.
fn collect(sc: &Scenario) -> Det {
    let w = &sc.world;
    let mut det = Det::default();
    for r in &w.reports {
        if r.is_aborted() {
            det.aborted += 1;
            continue;
        }
        det.completed += 1;
        det.freeze_us.push(r.freeze_us());
        det.total_us.push(r.total_us());
        det.freeze_bytes.push(r.freeze_bytes);
        det.freeze_socket_bytes.push(r.freeze_socket_bytes);
        det.precopy_iterations += u64::from(r.precopy_iterations);
        // `phase_log` records entry instants; a phase lasts until the next
        // entry, the last one until the process resumed.
        for pair in r.phase_log.windows(2) {
            *det.phase_us.entry(pair[0].0).or_insert(0) += pair[1].1.saturating_since(pair[0].1);
        }
        if let Some(&(name, at)) = r.phase_log.last() {
            *det.phase_us.entry(name).or_insert(0) += r.resumed_at.saturating_since(at);
        }
    }
    det.started = w.reports.len() + w.active_migrations();
    for v in [
        &mut det.freeze_us,
        &mut det.total_us,
        &mut det.freeze_bytes,
        &mut det.freeze_socket_bytes,
    ] {
        v.sort_unstable();
    }
    (det.sent, det.received) = sc.sent_received();
    for h in &w.hosts {
        let s = h.stack.stats();
        det.rx_captured += s.rx_captured;
        det.reinjected += s.reinjected;
        det.capture_shed += s.rx_capture_shed;
        det.peak_queued_packets = det
            .peak_queued_packets
            .max(h.stack.capture.stats().peak_queued_packets);
        if let Some(c) = &h.conductor {
            let s = c.stats();
            det.lb.heartbeats_sent += s.heartbeats_sent;
            det.lb.requests_sent += s.requests_sent;
            det.lb.requests_rejected += s.requests_rejected;
            det.lb.migrations_completed += s.migrations_completed;
            det.lb.migrations_failed += s.migrations_failed;
        }
    }
    det.violations = w.violations().len();
    det.clamped = w.sched.stats().clamped;
    det.route_errors = w.route_errors();
    det
}

/// Longest gap between consecutive snapshot arrivals at any OA client,
/// within the window.
fn oa_gap_max_us(traffic: &Traffic, spec: &Spec) -> u64 {
    let Traffic::Oa { arrivals, .. } = traffic else {
        return 0;
    };
    let start = spec.window_start();
    let end = start + spec.window_us();
    let mut worst = 0;
    for a in arrivals {
        let a = a.borrow();
        let inside = a.iter().filter(|t| **t >= start && **t <= end);
        let mut prev: Option<SimTime> = None;
        for &t in inside {
            if let Some(p) = prev {
                worst = worst.max(t.saturating_since(p));
            }
            prev = Some(t);
        }
    }
    worst
}

/// Balance metrics from per-sample node CPU shares taken every `step_us`
/// from conductor start.
fn balance(samples: &[Vec<f64>], step_us: u64, window_us: u64) -> Balance {
    let mut b = Balance::default();
    let mut last_bad: Option<usize> = None;
    for (i, cpus) in samples.iter().enumerate() {
        let max = cpus.iter().copied().fold(0.0, f64::max);
        let mean = cpus.iter().sum::<f64>() / cpus.len().max(1) as f64;
        let over = cpus.iter().filter(|&&c| c > OVERLOAD_PCT).count() as u64;
        b.overload_node_us += over * step_us;
        if max > OVERLOAD_PCT || max - mean > IMBALANCE_PCT {
            last_bad = Some(i);
        }
    }
    b.balance_us = match last_bad {
        None => 0,
        Some(i) if i + 1 >= samples.len() => window_us,
        // Sample i is taken at (i + 1) steps; balance holds from the next.
        Some(i) => (i as u64 + 2) * step_us,
    };
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_reports_the_last_unbalanced_sample() {
        let ok = vec![50.0, 50.0];
        let hot = vec![95.0, 40.0];
        let b = balance(
            &[hot.clone(), ok.clone(), hot.clone(), ok.clone()],
            100,
            400,
        );
        assert_eq!(b.balance_us, 400);
        assert_eq!(b.overload_node_us, 200);
        let b = balance(&[hot.clone(), hot, ok.clone(), ok.clone(), ok], 100, 500);
        assert_eq!(b.balance_us, 300);
        let b = balance(&[vec![60.0, 40.0]], 100, 100);
        assert_eq!(b.balance_us, 100, "max − mean 10 > 8 on the last sample");
    }
}
