//! The scale-benchmark harness: seeded multi-node/multi-client scenarios
//! with concurrent migrations under load.
//!
//! Unlike the `fig*` binaries (which reproduce the paper's figures), this
//! harness measures the *simulator itself*: wall-clock per simulated
//! second, dispatched events per wall second, peak capture-queue depths
//! and per-phase migration costs at increasing cluster sizes. Its output
//! is machine-readable (see [`scale_json`]) so CI can detect throughput
//! regressions with [`compare_bench`].
//!
//! The simulated world is deterministic for a given [`ScaleConfig`]; only
//! the wall-clock fields vary between runs. [`ScaleCell::det_fingerprint`]
//! captures exactly the deterministic subset.

use crate::json::Json;
use dvelm_cluster::{World, WorldConfig};
use dvelm_migrate::Strategy;
use dvelm_net::{Ip, SockAddr, ZoneId};
use dvelm_openarena::apps::{OaClient, OaServer, OA_PORT};
use dvelm_sim::{SimTime, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One cell of the scale sweep: a cluster of `nodes` game servers with
/// `clients` players spread round-robin across them, running for
/// `run_secs` simulated seconds after a one-second warmup while
/// `migrations` staggered live migrations execute under load.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Server nodes in the cluster (one `OaServer` each, distinct ports).
    pub nodes: usize,
    /// Client hosts, assigned to servers round-robin.
    pub clients: usize,
    /// Migrations started 100 ms apart once the measured window opens.
    pub migrations: usize,
    /// Measured simulated duration (excludes the 1 s warmup).
    pub run_secs: u64,
    /// World RNG seed.
    pub seed: u64,
    /// Interest-managed (AOI) routing: each server's port is mapped to its
    /// own zone, so inbound usercmds reach only the serving node instead of
    /// the full broadcast. AOI rows get an `@aoi`-suffixed cell key; the
    /// broadcast rows keep their historical keys and bytes.
    pub aoi: bool,
}

impl ScaleConfig {
    /// The cell the CI smoke test runs (small enough for debug builds).
    pub fn smoke() -> ScaleConfig {
        ScaleConfig {
            nodes: 4,
            clients: 100,
            migrations: 2,
            run_secs: 2,
            seed: SCALE_SEED,
            aoi: false,
        }
    }
}

/// Seed shared by every default-trajectory cell.
pub const SCALE_SEED: u64 = 0x05CA_1EBC;

/// Socket-migration strategy of every cell's migrations (and the world's
/// conductor ceiling).
const STRATEGY: Strategy = Strategy::IncrementalCollective;

/// Interval between staggered migration starts.
const MIGRATION_STAGGER_US: u64 = 100 * MILLISECOND;

/// Post-run drain window (in-flight packets and reports settle).
const DRAIN_US: u64 = SECOND / 10;

/// Measurements from one [`run_scale`] call.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// The configuration that produced this cell.
    pub cfg: ScaleConfig,
    /// Past-instant `schedule_at` clamps observed by the scheduler over the
    /// whole run. The fault-free trajectory asserts this stays zero — a
    /// non-zero count means some component computed an event instant in the
    /// past, which the scheduler silently snapped to `now`.
    pub sched_clamped: u64,
    /// Simulated microseconds in the measured window (run + drain).
    pub sim_us: u64,
    /// Scheduler events dispatched in the measured window.
    pub events: u64,
    /// Frames delivered to host stacks (`rx_total` deltas summed over the
    /// cluster) in the measured window. Unlike `events`, this count does
    /// not depend on how the scheduler batches work, so it is comparable
    /// across trees that schedule differently.
    pub deliveries: u64,
    /// Usercmds processed by all servers over the whole run.
    pub usercmds: u64,
    /// Typed routing errors surfaced by the broadcast router.
    pub route_errors: u64,
    /// Migrations admitted by [`World::begin_migration`].
    pub migrations_started: usize,
    /// Migrations refused at admission (budget/duplicate/dead node).
    pub migrations_rejected: usize,
    /// Completed migration reports.
    pub migrations_completed: usize,
    /// Aborted migration reports.
    pub migrations_aborted: usize,
    /// Worst freeze time over completed migrations (µs).
    pub freeze_us_max: u64,
    /// Worst start-to-resume time over completed migrations (µs).
    pub total_us_max: u64,
    /// Summed time spent in each migration phase across completed
    /// migrations (µs), keyed by phase name.
    pub phase_us: BTreeMap<&'static str, u64>,
    /// High-water mark of capture-queued packets on any single host.
    pub peak_queued_packets: u64,
    /// High-water mark of capture-queued payload bytes on any single host.
    pub peak_queued_bytes: u64,
    /// UDP datagrams shed under capture-queue pressure (cluster total).
    pub shed_udp: u64,
    /// Wall-clock milliseconds for the measured window.
    pub wall_ms: f64,
    /// Wall-clock milliseconds per simulated second.
    pub wall_ms_per_sim_s: f64,
    /// Dispatched events per wall-clock second.
    pub events_per_sec: f64,
    /// Stack deliveries per wall-clock second (the cross-tree throughput
    /// figure; see `deliveries`).
    pub deliveries_per_sec: f64,
}

impl ScaleCell {
    /// A string over every deterministic field — identical for two runs of
    /// the same config on any machine; wall-clock fields are excluded.
    pub fn det_fingerprint(&self) -> String {
        let phases: Vec<String> = self
            .phase_us
            .iter()
            .map(|(name, us)| format!("{name}={us}"))
            .collect();
        format!(
            "n{} c{} m{} s{} seed{:#x} strat[{}] aoi={}: sim_us={} events={} deliveries={} usercmds={} route_errors={} \
             started={} rejected={} completed={} aborted={} freeze_max={} total_max={} \
             peak_pkts={} peak_bytes={} shed_udp={} clamped={} phases=[{}]",
            self.cfg.nodes,
            self.cfg.clients,
            self.cfg.migrations,
            self.cfg.run_secs,
            self.cfg.seed,
            STRATEGY,
            self.cfg.aoi,
            self.sim_us,
            self.events,
            self.deliveries,
            self.usercmds,
            self.route_errors,
            self.migrations_started,
            self.migrations_rejected,
            self.migrations_completed,
            self.migrations_aborted,
            self.freeze_us_max,
            self.total_us_max,
            self.peak_queued_packets,
            self.peak_queued_bytes,
            self.shed_udp,
            self.sched_clamped,
            phases.join(","),
        )
    }
}

/// Build the cell's world: `nodes` server nodes each running an `OaServer`
/// on its own public port, `clients` client hosts round-robin connected.
fn build_world(cfg: &ScaleConfig) -> (World, Vec<dvelm_proc::Pid>, Vec<usize>, Rc<RefCell<u64>>) {
    let mut w = World::new(WorldConfig {
        seed: cfg.seed,
        strategy: STRATEGY,
        ..WorldConfig::default()
    });
    let usercmds = Rc::new(RefCell::new(0u64));
    let mut node_hosts = Vec::with_capacity(cfg.nodes);
    let mut server_pids = Vec::with_capacity(cfg.nodes);
    let mut server_addrs = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let host = w.add_server_node();
        let pid = w.spawn_process(
            host,
            "oa_server",
            512,
            4096,
            Box::new(OaServer::new(usercmds.clone())),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + i as u16);
        w.app_udp_bind(host, pid, addr);
        if cfg.aoi {
            // Server i is the zone server for zone i; its service port is
            // the zone's identity on the shared public IP.
            w.register_zone_interest(host, pid, addr.port, ZoneId(i as u32));
        }
        node_hosts.push(host);
        server_pids.push(pid);
        server_addrs.push(addr);
    }
    for c in 0..cfg.clients {
        let addr = server_addrs[c % cfg.nodes];
        let ch = w.add_client_host();
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let pid = w.spawn_process(
            ch,
            "oa_client",
            64,
            256,
            Box::new(OaClient::new(addr, arrivals)),
        );
        w.app_udp_socket(ch, pid, Some(addr));
    }
    (w, server_pids, node_hosts, usercmds)
}

/// Run one cell of the sweep.
///
/// Timeline: one simulated second of warmup (clients connect, servers
/// learn them), then the measured window of `run_secs` simulated seconds
/// plus a 100 ms drain. Migrations start 100 ms apart from the top of the
/// measured window: migration *k* moves the server of node `k % nodes` to
/// the node half a ring away.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleCell {
    assert!(
        cfg.nodes >= 2,
        "migrations need a distinct destination node"
    );
    let (mut w, server_pids, node_hosts, usercmds) = build_world(cfg);
    let warmup_end = SimTime::from_secs(1);
    w.run_until(warmup_end);

    let events_before = w.sched.dispatched();
    let rx_before: u64 = w.hosts.iter().map(|h| h.stack.stats().rx_total).sum();
    let started_wall = std::time::Instant::now();

    let mut migrations_started = 0usize;
    let mut migrations_rejected = 0usize;
    // Clamp the stagger so every migration starts inside the measured
    // window even when the cell asks for more migrations than 100 ms slots.
    let stagger = MIGRATION_STAGGER_US.min(cfg.run_secs * SECOND / cfg.migrations.max(1) as u64);
    for k in 0..cfg.migrations {
        w.run_until(warmup_end + k as u64 * stagger);
        let src = k % cfg.nodes;
        let dst = node_hosts[(src + cfg.nodes / 2) % cfg.nodes];
        match w.begin_migration(server_pids[src], dst, STRATEGY) {
            Some(_) => migrations_started += 1,
            None => migrations_rejected += 1,
        }
    }
    w.run_until(warmup_end + cfg.run_secs * SECOND);
    w.run_for(DRAIN_US);

    let wall_ms = started_wall.elapsed().as_secs_f64() * 1000.0;
    let events = w.sched.dispatched() - events_before;
    let deliveries = w
        .hosts
        .iter()
        .map(|h| h.stack.stats().rx_total)
        .sum::<u64>()
        - rx_before;
    let sim_us = cfg.run_secs * SECOND + DRAIN_US;

    let mut freeze_us_max = 0u64;
    let mut total_us_max = 0u64;
    let mut migrations_completed = 0usize;
    let mut migrations_aborted = 0usize;
    let mut phase_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &w.reports {
        if r.is_aborted() {
            migrations_aborted += 1;
            continue;
        }
        migrations_completed += 1;
        freeze_us_max = freeze_us_max.max(r.freeze_us());
        total_us_max = total_us_max.max(r.total_us());
        // `phase_log` records entry instants; a phase lasts until the next
        // entry, the last one until the process resumed.
        for pair in r.phase_log.windows(2) {
            *phase_us.entry(pair[0].0).or_insert(0) += pair[1].1.saturating_since(pair[0].1);
        }
        if let Some(&(name, at)) = r.phase_log.last() {
            *phase_us.entry(name).or_insert(0) += r.resumed_at.saturating_since(at);
        }
    }

    let mut peak_queued_packets = 0u64;
    let mut peak_queued_bytes = 0u64;
    let mut shed_udp = 0u64;
    for h in &w.hosts {
        let s = h.stack.capture.stats();
        peak_queued_packets = peak_queued_packets.max(s.peak_queued_packets);
        peak_queued_bytes = peak_queued_bytes.max(s.peak_queued_bytes);
        shed_udp += s.shed_udp;
    }

    let sched_clamped = w.sched.stats().clamped;
    assert_eq!(
        sched_clamped, 0,
        "fault-free trajectory must not clamp past-instant schedules \
         (cell {}x{}, seed {:#x})",
        cfg.nodes, cfg.clients, cfg.seed
    );

    let sim_secs = sim_us as f64 / SECOND as f64;
    let usercmds = *usercmds.borrow();
    ScaleCell {
        cfg: cfg.clone(),
        sched_clamped,
        sim_us,
        events,
        deliveries,
        usercmds,
        route_errors: w.route_errors(),
        migrations_started,
        migrations_rejected,
        migrations_completed,
        migrations_aborted,
        freeze_us_max,
        total_us_max,
        phase_us,
        peak_queued_packets,
        peak_queued_bytes,
        shed_udp,
        wall_ms,
        wall_ms_per_sim_s: wall_ms / sim_secs,
        events_per_sec: events as f64 / (wall_ms / 1000.0).max(1e-9),
        deliveries_per_sec: deliveries as f64 / (wall_ms / 1000.0).max(1e-9),
    }
}

fn cell_key(cfg: &ScaleConfig) -> String {
    // AOI rows get a distinct key; broadcast rows keep the committed
    // baseline's.
    let mut key = format!("{}x{}", cfg.nodes, cfg.clients);
    if cfg.aoi {
        key.push_str("@aoi");
    }
    key
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Render `BENCH_scale.json`: throughput metrics and deterministic
/// counters per cell.
pub fn scale_json(cells: &[ScaleCell]) -> Json {
    let mut doc = Json::obj();
    doc.set("bench", Json::Str("scale".into()));
    doc.set("schema_version", Json::Num(5.0));
    let mut arr = Vec::with_capacity(cells.len());
    for c in cells {
        let mut o = Json::obj();
        o.set("cell", Json::Str(cell_key(&c.cfg)));
        o.set("nodes", Json::Num(c.cfg.nodes as f64));
        o.set("clients", Json::Num(c.cfg.clients as f64));
        o.set("migrations", Json::Num(c.cfg.migrations as f64));
        o.set("run_secs", Json::Num(c.cfg.run_secs as f64));
        o.set("seed", Json::Num(c.cfg.seed as f64));
        o.set("aoi", Json::Bool(c.cfg.aoi));
        o.set("sched_clamped", Json::Num(c.sched_clamped as f64));
        o.set("sim_us", Json::Num(c.sim_us as f64));
        o.set("events", Json::Num(c.events as f64));
        o.set("events_per_sec", Json::Num(round2(c.events_per_sec)));
        o.set("deliveries", Json::Num(c.deliveries as f64));
        o.set(
            "deliveries_per_sec",
            Json::Num(round2(c.deliveries_per_sec)),
        );
        o.set("wall_ms", Json::Num(round2(c.wall_ms)));
        o.set("wall_ms_per_sim_s", Json::Num(round2(c.wall_ms_per_sim_s)));
        o.set("usercmds", Json::Num(c.usercmds as f64));
        o.set("route_errors", Json::Num(c.route_errors as f64));
        o.set("migrations_started", Json::Num(c.migrations_started as f64));
        o.set(
            "migrations_rejected",
            Json::Num(c.migrations_rejected as f64),
        );
        o.set(
            "migrations_completed",
            Json::Num(c.migrations_completed as f64),
        );
        o.set("migrations_aborted", Json::Num(c.migrations_aborted as f64));
        arr.push(o);
    }
    doc.set("cells", Json::Arr(arr));
    doc
}

/// What [`compare_bench`] found: `problems` fail the gate; `warnings` are
/// schema-skew notes (a metric key absent on one side) that skip the
/// affected comparison without failing the run.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    pub problems: Vec<String>,
    pub warnings: Vec<String>,
}

/// Compare a fresh `BENCH_scale.json` against a committed baseline file.
///
/// Only wall-clock throughput metrics are compared (the deterministic
/// fields are covered by the smoke test); rows match on `cell`, and a row
/// regresses when it is more than `tolerance`× slower than the baseline.
///
/// Schema skew is expected in both directions — an old baseline predating
/// a newly-added metric key, or a fresh file measured by an older harness —
/// so a metric missing from *either* side skips that one comparison with a
/// warning instead of failing the gate. A baseline *row* with no fresh
/// counterpart is still a hard failure: cells only disappear when someone
/// dropped them from the trajectory.
pub fn compare_bench(baseline: &Json, fresh: &Json, tolerance: f64) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    let base_cells = baseline.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_cells = fresh.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    if base_cells.is_empty() {
        out.problems.push("baseline has no cells".into());
    }
    for b in base_cells {
        let key = b.get("cell").and_then(Json::as_str).unwrap_or("?");
        let Some(f) = fresh_cells
            .iter()
            .find(|f| f.get("cell").and_then(Json::as_str) == Some(key))
        else {
            out.problems
                .push(format!("cell {key}: missing from fresh results"));
            continue;
        };
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64);
        match (num(b, "events_per_sec"), num(f, "events_per_sec")) {
            (Some(base), Some(fresh_v)) if fresh_v * tolerance < base => out.problems.push(format!(
                "cell {key}: events_per_sec {fresh_v:.0} is more than {tolerance}x below baseline {base:.0}"
            )),
            (Some(_), Some(_)) => {}
            (base, fresh_v) => out.warnings.push(skew_warning(key, "events_per_sec", base, fresh_v)),
        }
        match (num(b, "wall_ms_per_sim_s"), num(f, "wall_ms_per_sim_s")) {
            (Some(base), Some(fresh_v)) if fresh_v > base * tolerance => out.problems.push(format!(
                "cell {key}: wall_ms_per_sim_s {fresh_v:.1} is more than {tolerance}x above baseline {base:.1}"
            )),
            (Some(_), Some(_)) => {}
            (base, fresh_v) => out.warnings.push(skew_warning(key, "wall_ms_per_sim_s", base, fresh_v)),
        }
    }
    out
}

/// The skip-with-warning message for a metric key absent on one side of a
/// [`compare_bench`] row (schema skew between harness generations).
fn skew_warning(key: &str, metric: &str, base: Option<f64>, fresh: Option<f64>) -> String {
    let side = match (base, fresh) {
        (None, None) => "both files",
        (None, Some(_)) => "baseline",
        _ => "fresh results",
    };
    format!("cell {key}: {metric} missing from {side}; skipping (schema skew)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_cell(nodes: usize, clients: usize, eps: f64, wall_per_s: f64) -> ScaleCell {
        ScaleCell {
            cfg: ScaleConfig {
                nodes,
                clients,
                migrations: 1,
                run_secs: 1,
                seed: 1,
                aoi: false,
            },
            sched_clamped: 0,
            sim_us: SECOND,
            events: 1000,
            deliveries: 900,
            usercmds: 10,
            route_errors: 0,
            migrations_started: 1,
            migrations_rejected: 0,
            migrations_completed: 1,
            migrations_aborted: 0,
            freeze_us_max: 100,
            total_us_max: 500,
            phase_us: BTreeMap::new(),
            peak_queued_packets: 4,
            peak_queued_bytes: 1024,
            shed_udp: 0,
            wall_ms: 1000.0 * wall_per_s / 1000.0,
            wall_ms_per_sim_s: wall_per_s,
            events_per_sec: eps,
            deliveries_per_sec: eps,
        }
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_beyond() {
        let base = scale_json(&[fake_cell(4, 100, 1000.0, 50.0)]);
        let ok = scale_json(&[fake_cell(4, 100, 600.0, 90.0)]);
        assert!(compare_bench(&base, &ok, 2.0).problems.is_empty());
        let slow = scale_json(&[fake_cell(4, 100, 400.0, 90.0)]);
        assert_eq!(compare_bench(&base, &slow, 2.0).problems.len(), 1);
        let crawl = scale_json(&[fake_cell(4, 100, 400.0, 150.0)]);
        assert_eq!(compare_bench(&base, &crawl, 2.0).problems.len(), 2);
    }

    #[test]
    fn compare_flags_missing_cells() {
        let base = scale_json(&[
            fake_cell(4, 100, 1000.0, 50.0),
            fake_cell(16, 1000, 1000.0, 50.0),
        ]);
        let fresh = scale_json(&[fake_cell(4, 100, 1000.0, 50.0)]);
        assert_eq!(compare_bench(&base, &fresh, 2.0).problems.len(), 1);
    }

    /// Strip a metric key from every cell row of a rendered document,
    /// simulating a file written by a harness generation without it.
    fn without_key(doc: &Json, key: &str) -> Json {
        let mut doc = doc.clone();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "cells" {
                    if let Json::Arr(rows) = v {
                        for row in rows {
                            if let Json::Obj(cols) = row {
                                cols.retain(|(c, _)| c != key);
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn compare_skips_missing_metric_keys_with_warning_both_directions() {
        let base = scale_json(&[fake_cell(4, 100, 1000.0, 50.0)]);
        let fresh = scale_json(&[fake_cell(4, 100, 1000.0, 50.0)]);
        // Old baseline predating a newly-added key: skip, warn, pass.
        let old_base = without_key(&base, "wall_ms_per_sim_s");
        let out = compare_bench(&old_base, &fresh, 2.0);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.warnings.len(), 1);
        assert!(out.warnings[0].contains("wall_ms_per_sim_s missing from baseline"));
        // Fresh file from an older harness: same skip, other side named.
        let old_fresh = without_key(&fresh, "wall_ms_per_sim_s");
        let out = compare_bench(&base, &old_fresh, 2.0);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.warnings.len(), 1);
        assert!(out.warnings[0].contains("wall_ms_per_sim_s missing from fresh results"));
        // The still-present metric is still gated: a regression on
        // events_per_sec fails even while the other key skips.
        let slow = scale_json(&[fake_cell(4, 100, 100.0, 50.0)]);
        let out = compare_bench(&old_base, &slow, 2.0);
        assert_eq!(out.problems.len(), 1);
        assert!(out.problems[0].contains("events_per_sec"));
    }

    #[test]
    fn fingerprint_ignores_wall_clock_but_counts_clamps() {
        let a = fake_cell(4, 100, 1000.0, 50.0);
        let b = fake_cell(4, 100, 2000.0, 25.0);
        assert_eq!(a.det_fingerprint(), b.det_fingerprint());
        let mut c = fake_cell(4, 100, 1000.0, 50.0);
        c.sched_clamped = 3;
        assert_ne!(a.det_fingerprint(), c.det_fingerprint());
    }
}
