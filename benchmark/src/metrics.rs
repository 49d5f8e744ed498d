//! The metric catalog (read from `BENCHMARK.json`) and the assembly of a
//! run's end-to-end and per-layer metrics from its repetitions.

use crate::harness::{Det, Rep};
use crate::stats::{median, p50};
use crate::trace::{HostClass, Tracer};
use dvelm_bench::json::Json;
use dvelm_migrate::PhaseId;

/// The benchmark definition, compiled in so that the binary and the file
/// can never disagree about names, units, directions or bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Catalog, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Differences between emitted metrics and a catalog list, both ways.
    pub fn mismatches(defs: &[MetricDef], emitted: &[Metric]) -> Vec<String> {
        let mut out = Vec::new();
        for d in defs {
            match emitted.iter().find(|m| m.name == d.name) {
                None => out.push(format!(
                    "metric {} is in BENCHMARK.json but not emitted",
                    d.name
                )),
                Some(m) if m.unit != d.unit => out.push(format!(
                    "metric {} emitted in {} but BENCHMARK.json says {}",
                    d.name, m.unit, d.unit
                )),
                Some(_) => {}
            }
        }
        for m in emitted {
            if !defs.iter().any(|d| d.name == m.name) {
                out.push(format!(
                    "metric {} is emitted but not in BENCHMARK.json",
                    m.name
                ));
            }
        }
        out
    }
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

const NS_PER_S: f64 = 1e9;

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Application messages per host second, one value per 1-sim-s slice.
fn slice_goodputs(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.msgs as f64 * NS_PER_S / s.host_ns.max(1) as f64)
        .collect()
}

/// The end-to-end metrics of an untraced run. `setups_ns` holds every
/// set-up measured in the run.
pub fn end_to_end(reps: &[Rep], setups_ns: &[u64]) -> Vec<Metric> {
    let det = &reps[0].det;
    let setups: Vec<f64> = setups_ns.iter().map(|&ns| ns as f64 / NS_PER_S).collect();
    vec![
        metric(
            "goodput_msgs_per_host_s",
            median(&slice_goodputs(reps)),
            "msgs/s",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("freeze_ms_p50", p50(&det.freeze_us) as f64 / 1e3, "sim_ms"),
        metric(
            "freeze_ms_max",
            det.freeze_us.last().copied().unwrap_or(0) as f64 / 1e3,
            "sim_ms",
        ),
        metric(
            "client_gap_ms_max",
            det.client_gap_max_us as f64 / 1e3,
            "sim_ms",
        ),
        metric("migration_success_ratio", det.success_ratio(), "ratio"),
        metric("msg_delivery_ratio", det.delivery_ratio(), "ratio"),
    ]
}

/// Phases reported per migration, with their metric suffix.
const PHASES: [(PhaseId, &str); 5] = [
    (PhaseId::PrecopyFull, "precopy_full"),
    (PhaseId::PrecopyIter, "precopy_iter"),
    (PhaseId::FreezeCapture, "freeze_capture"),
    (PhaseId::FreezeDetach, "freeze_detach"),
    (PhaseId::Restore, "restore"),
];

/// Traced event kinds reported as layers: (metric prefix, event kind, host
/// class or any).
const LAYERS: [(&str, &str, Option<HostClass>); 11] = [
    ("net.broadcast_arrival", "BroadcastArrival", None),
    (
        "stack.packet_arrival_client",
        "PacketArrival",
        Some(HostClass::Client),
    ),
    (
        "stack.packet_arrival_server",
        "PacketArrival",
        Some(HostClass::Server),
    ),
    ("stack.sock_timer", "SockTimer", None),
    (
        "cluster.app_tick_server",
        "AppTick",
        Some(HostClass::Server),
    ),
    (
        "cluster.app_tick_client",
        "AppTick",
        Some(HostClass::Client),
    ),
    (
        "cluster.app_read_server",
        "AppRead",
        Some(HostClass::Server),
    ),
    (
        "cluster.app_read_client",
        "AppRead",
        Some(HostClass::Client),
    ),
    ("core.migration_step", "MigrationStep", None),
    ("lb.conductor_tick", "ConductorTick", None),
    ("lb.lb_message", "LbMessage", None),
];

/// The per-layer metrics of a traced run: `untraced` and `traced` are the
/// paired repetitions, `probes` the layer probes.
pub fn per_layer(untraced: &[Rep], traced: &[Rep], probes: &[(&'static str, f64)]) -> Vec<Metric> {
    let det: &Det = &untraced[0].det;
    let mut tracer = Tracer::default();
    for t in traced.iter().filter_map(|r| r.tracer.as_ref()) {
        tracer.merge(t.clone());
    }
    let traced_ns: u64 = traced.iter().map(Rep::window_ns).sum();
    let untraced_ns: u64 = untraced.iter().map(Rep::window_ns).sum();
    // Shares are of the traced window without the tracer's own bookkeeping.
    let sim_ns = traced_ns.saturating_sub(tracer.self_ns);
    let share = |ns: u64| ns as f64 / sim_ns.max(1) as f64;
    let mut out = Vec::new();

    // sim
    out.push(metric("sim.events", det.window_events as f64, "count"));
    out.push(metric(
        "sim.events_per_instant",
        det.window_events as f64 / (tracer.steps() as f64 / traced.len().max(1) as f64).max(1.0),
        "ratio",
    ));
    out.push(metric(
        "sim.peak_pending",
        tracer.peak_pending as f64,
        "count",
    ));

    // Traced layers: count, host ns per step, share of the traced window.
    let mut listed_ns = 0;
    for (prefix, kind, class) in LAYERS {
        let (steps, ns) = tracer.total(kind, class);
        listed_ns += ns;
        let per_rep = steps as f64 / traced.len().max(1) as f64;
        out.push(metric(format!("{prefix}.count"), per_rep, "count"));
        out.push(metric(
            format!("{prefix}.ns_per_event"),
            ns as f64 / steps.max(1) as f64,
            "ns",
        ));
        out.push(metric(format!("{prefix}.share"), share(ns), "ratio"));
    }
    let event_ns: u64 = tracer.buckets.iter().map(|b| b.ns).sum();

    let host_ms_per_sim_s: Vec<f64> = untraced
        .iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.host_ns as f64 / 1e6)
        .collect();
    let secs = |f: fn(&Rep) -> u64| {
        median(
            &untraced
                .iter()
                .map(|r| f(r) as f64 / NS_PER_S)
                .collect::<Vec<_>>(),
        )
    };
    let begins: Vec<f64> = untraced
        .iter()
        .flat_map(|r| &r.begin_ns)
        .map(|&ns| ns as f64)
        .collect();
    let sweeps: Vec<f64> = untraced.iter().map(|r| r.sweep_ns as f64).collect();
    let completed = det.completed.max(1) as f64;
    let (lb, balance) = (det.lb, det.balance.unwrap_or_default());
    let simple = [
        ("net.deliveries", det.deliveries as f64, "count"),
        (
            "net.wasted_delivery_ratio",
            det.deliveries_no_socket as f64 / det.deliveries.max(1) as f64,
            "ratio",
        ),
        ("stack.rx_captured", det.rx_captured as f64, "count"),
        ("stack.reinjected", det.reinjected as f64, "count"),
        ("stack.capture_shed", det.capture_shed as f64, "count"),
        (
            "stack.peak_queued_packets",
            det.peak_queued_packets as f64,
            "count",
        ),
        (
            "cluster.host_ms_per_sim_s",
            median(&host_ms_per_sim_s),
            "ms",
        ),
        ("cluster.build_s", secs(|r| r.build_ns), "s"),
        ("cluster.warmup_s", secs(|r| r.warmup_ns), "s"),
        (
            "ckpt.freeze_bytes_p50",
            p50(&det.freeze_bytes) as f64,
            "bytes",
        ),
        (
            "ckpt.freeze_socket_bytes_p50",
            p50(&det.freeze_socket_bytes) as f64,
            "bytes",
        ),
        ("core.begin_migration_ns", median(&begins), "ns"),
        (
            "core.precopy_iterations_mean",
            det.precopy_iterations as f64 / completed,
            "count",
        ),
    ];
    out.extend(simple.map(|(name, value, unit)| metric(name, value, unit)));
    for (phase, suffix) in PHASES {
        let us = det.phase_us.get(phase.label()).copied().unwrap_or(0);
        out.push(metric(
            format!("core.phase_ms.{suffix}"),
            us as f64 / completed / 1e3,
            "sim_ms",
        ));
    }
    let simple = [
        (
            "core.total_ms_p50",
            p50(&det.total_us) as f64 / 1e3,
            "sim_ms",
        ),
        ("lb.heartbeats_sent", lb.heartbeats_sent as f64, "count"),
        ("lb.requests_sent", lb.requests_sent as f64, "count"),
        ("lb.requests_rejected", lb.requests_rejected as f64, "count"),
        (
            "lb.migrations_completed",
            lb.migrations_completed as f64,
            "count",
        ),
        ("lb.migrations_failed", lb.migrations_failed as f64, "count"),
        ("lb.balance_s", balance.balance_us as f64 / 1e6, "sim_s"),
        (
            "lb.overload_node_s",
            balance.overload_node_us as f64 / 1e6,
            "node_s",
        ),
        ("monitor.violations", det.violations as f64, "count"),
        ("monitor.sweep_ns", median(&sweeps), "ns"),
    ];
    out.extend(simple.map(|(name, value, unit)| metric(name, value, unit)));

    // trace quality
    out.push(metric(
        "trace.attributed_share",
        share(tracer.attributed_ns()),
        "ratio",
    ));
    out.push(metric(
        "trace.other_share",
        share(event_ns - listed_ns),
        "ratio",
    ));
    out.push(metric(
        "trace.self_share",
        tracer.self_ns as f64 / traced_ns.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "trace.overhead_ratio",
        traced_ns as f64 * untraced.len() as f64
            / (untraced_ns.max(1) as f64 * traced.len().max(1) as f64),
        "ratio",
    ));

    for (name, ns) in probes {
        out.push(metric(*name, *ns, "ns"));
    }
    out
}
