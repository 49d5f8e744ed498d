//! Shared experiment-harness code for the `fig*` binaries.
//!
//! Every figure of the paper's evaluation section has a binary that
//! regenerates it (see DESIGN.md §4); the sweep logic lives here so the
//! `all_figures` binary can share results between Fig. 5b and Fig. 5c
//! (they come from the same runs).

pub mod json;
pub mod scale;

use dvelm_dve::{run_flow_sim, FlowSimConfig, FlowSimResult};
use dvelm_dve::{run_freeze_bench, FreezeBenchConfig, FreezeBenchResult};
use dvelm_metrics::{AsciiChart, Table, TimeSeries};
use dvelm_migrate::Strategy;
use dvelm_net::Port;
use dvelm_openarena::{
    fig4_series, migration_delay_us, run_scenario, snapshot_gaps_ms, OaScenario,
};
use dvelm_sim::SimTime;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Where the figure outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DVELM_RESULTS_DIR").unwrap_or_else(|_| {
        format!(
            "{}/EXPERIMENTS-results",
            env!("CARGO_MANIFEST_DIR").replace("/crates/bench", "")
        )
    });
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Print to stdout and persist under the results directory.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = results_dir().join(format!("{name}.txt"));
    std::fs::write(&path, content).expect("write figure output");
    eprintln!("[saved {}]", path.display());
}

// ----------------------------------------------------------------------
// Fig. 4 / §VI-B: OpenArena packet delay
// ----------------------------------------------------------------------

/// Run the OpenArena experiment and render Fig. 4.
///
/// Like the paper's illustrative trace, the run is chosen so the migration
/// freeze lands mid-snapshot-cycle (the worst case for a client): the
/// migration instant is scanned across one 50 ms cycle and the trace with
/// the largest imposed delay is reported.
pub fn fig4(n_clients: usize) -> String {
    let port = Port(dvelm_openarena::apps::OA_PORT);
    let (r, report) = (0..20u64)
        .map(|i| {
            let scenario = OaScenario {
                n_clients,
                migrate_at: SimTime::from_secs(5) + i * 2_500,
                ..OaScenario::default()
            };
            let r = run_scenario(&scenario);
            let report = r.report.clone().expect("migration ran");
            (r, report)
        })
        .max_by_key(|(r, _)| {
            migration_delay_us(&r.packet_log, port, r.src_host, r.dst_host).unwrap_or(0)
        })
        .expect("at least one run");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4 — Packet delay due to migration (OpenArena server, {n_clients} clients)\n"
    );
    let _ = writeln!(
        out,
        "server freeze time: {:.1} ms   (paper: ≈20 ms)",
        report.freeze_us() as f64 / 1000.0
    );
    if let Some(d) = migration_delay_us(&r.packet_log, port, r.src_host, r.dst_host) {
        let _ = writeln!(
            out,
            "gap between last source and first destination packet: {:.1} ms",
            d as f64 / 1000.0
        );
        let extra = d as f64 / 1000.0 - 50.0;
        let _ = writeln!(
            out,
            "imposed delay vs the expected 50 ms cadence: {extra:.1} ms   (paper: ≈25 ms)"
        );
    }
    let gaps = snapshot_gaps_ms(&r.packet_log, port, 10_000);
    let regular = gaps.iter().filter(|g| (**g - 50.0).abs() < 5.0).count();
    let max_gap = gaps.iter().cloned().fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "snapshot cadence: {regular}/{} bursts at 50 ms ± 5 ms; largest gap {max_gap:.1} ms\n",
        gaps.len()
    );

    // The packet-number-vs-time scatter around the migration.
    let center = report.frozen_at;
    let pts = fig4_series(&r.packet_log, port, r.dst_host, center, 150_000);
    let mut src_series = TimeSeries::new("source node");
    let mut dst_series = TimeSeries::new("destination node");
    for p in &pts {
        if p.from_dst {
            dst_series.push_at_secs(p.t_ms, p.packet_no as f64);
        } else {
            src_series.push_at_secs(p.t_ms, p.packet_no as f64);
        }
    }
    let mut chart = AsciiChart::new(
        "packet number vs time elapsed around the migration (ms)",
        72,
        18,
    )
    .labels("time (ms)", "packet number");
    chart.add(src_series);
    chart.add(dst_series);
    let _ = writeln!(out, "{}", chart.render());
    out
}

// ----------------------------------------------------------------------
// Fig. 5b + 5c: freeze time / freeze bytes vs connection count
// ----------------------------------------------------------------------

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    pub connections: usize,
    pub strategy: Strategy,
    pub result: FreezeBenchResult,
}

/// The default Fig. 5b/5c connection-count grid.
pub const DEFAULT_CONNECTIONS: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

/// Freeze-bench repetitions per sweep cell (the figure reports the worst).
const FREEZE_REPETITIONS: usize = 3;

/// Parse a sweep binary's connection-count arguments: none gives
/// [`DEFAULT_CONNECTIONS`]; numbers are kept in order; anything else is
/// refused and returned as the error.
pub fn parse_connections(args: &[String]) -> Result<Vec<usize>, String> {
    if args.is_empty() {
        return Ok(DEFAULT_CONNECTIONS.to_vec());
    }
    args.iter()
        .map(|a| a.parse().map_err(|_| a.clone()))
        .collect()
}

/// [`parse_connections`] over the process arguments; on a bad argument,
/// print a usage line for `bin` and exit with code 2.
pub fn connections_from_args(bin: &str) -> Vec<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_connections(&args).unwrap_or_else(|bad| {
        eprintln!("{bin}: not a connection count: {bad:?}");
        eprintln!("usage: {bin} [connections...]  (default: {DEFAULT_CONNECTIONS:?})");
        std::process::exit(2);
    })
}

/// Run the (connections × strategy) sweep, distributing runs across scoped
/// worker threads, one per available core (each run is an independent
/// deterministic world, and the cells are sorted afterwards, so the worker
/// count cannot change the result).
pub fn freeze_sweep(connections: &[usize]) -> Vec<SweepCell> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut jobs: Vec<(usize, Strategy)> = Vec::new();
    for &c in connections {
        for s in Strategy::ALL {
            jobs.push((c, s));
        }
    }
    let jobs = Mutex::new(jobs);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = jobs.lock().unwrap().pop();
                let Some((connections, strategy)) = job else {
                    break;
                };
                let r = run_freeze_bench(&FreezeBenchConfig {
                    connections,
                    strategy,
                    repetitions: FREEZE_REPETITIONS,
                    seed: 0xF16_5BC,
                    monitored: false,
                });
                results.lock().unwrap().push(SweepCell {
                    connections,
                    strategy,
                    result: r,
                });
            });
        }
    });
    let mut cells = results.into_inner().expect("sweep worker panicked");
    cells.sort_by_key(|c| (c.connections, format!("{}", c.strategy)));
    cells
}

fn strategy_column(cells: &[SweepCell], conns: usize, s: Strategy) -> &SweepCell {
    cells
        .iter()
        .find(|c| c.connections == conns && c.strategy == s)
        .expect("sweep covers the full grid")
}

/// Render Fig. 5b from sweep results.
pub fn fig5b(cells: &[SweepCell], connections: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5b — Worst-case process freeze time (ms) vs TCP connections\n"
    );
    let mut t = Table::new(&[
        "connections",
        "iterative",
        "collective",
        "incremental collective",
    ]);
    for &c in connections {
        let row: Vec<String> = std::iter::once(c.to_string())
            .chain(Strategy::ALL.iter().map(|s| {
                format!(
                    "{:.1}",
                    strategy_column(cells, c, *s).result.worst_freeze_us as f64 / 1000.0
                )
            }))
            .collect();
        t.row(&row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper shape: iterative grows ~linearly to ≈180 ms at 1024; collective ≈65 ms;\n\
         incremental collective stays below 40 ms even beyond 1000 connections."
    );
    out
}

/// Render Fig. 5c from sweep results.
pub fn fig5c(cells: &[SweepCell], connections: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5c — Socket data transferred during the freeze phase vs TCP connections\n"
    );
    let mut t = Table::new(&[
        "connections",
        "iterative/collective (KB)",
        "incremental collective (KB)",
    ]);
    for &c in connections {
        let full = strategy_column(cells, c, Strategy::Collective)
            .result
            .worst_freeze_socket_bytes;
        let inc = strategy_column(cells, c, Strategy::IncrementalCollective)
            .result
            .worst_freeze_socket_bytes;
        t.row(&[
            c.to_string(),
            format!("{:.0}", full as f64 / 1024.0),
            format!("{:.0}", inc as f64 / 1024.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper shape: full records grow to ≈3.5 MB at 1024 connections; the incremental\n\
         tracker ships roughly an order of magnitude less."
    );
    out
}

// ----------------------------------------------------------------------
// Fig. 5d/5e/5f: the 900 s DVE load-balancing experiment
// ----------------------------------------------------------------------

/// Render the Fig. 5a header (initial partitioning) — context for 5d/e/f.
pub fn fig5a_header() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5a — initial partitioning: 10×10 zones, node i hosts rows 2i..2i+1 (20 zone\n\
         servers each); clients from the middle rows drift to the up-left and down-right\n\
         corners over the 15-minute run.\n"
    );
    out
}

fn render_node_chart(title: &str, series: &[TimeSeries], y: (f64, f64), y_label: &str) -> String {
    let mut chart = AsciiChart::new(title, 72, 16).labels("simulation time (s)", y_label);
    chart = chart.y_range(y.0, y.1);
    for s in series {
        chart.add(s.clone());
    }
    chart.render()
}

/// Run the flow-level experiment once.
pub fn run_dve(lb_enabled: bool) -> FlowSimResult {
    run_flow_sim(&FlowSimConfig {
        lb_enabled,
        ..FlowSimConfig::default()
    })
}

/// Render Fig. 5e (no LB) or Fig. 5f (LB) from a run.
pub fn fig5ef(r: &FlowSimResult, lb_enabled: bool) -> String {
    let mut out = String::new();
    let (name, paper) = if lb_enabled {
        (
            "Fig. 5f — CPU consumption per node, load balancing ENABLED",
            "paper shape: all five nodes stay within a narrow band (~75-95%)",
        )
    } else {
        (
            "Fig. 5e — CPU consumption per node, load balancing DISABLED",
            "paper shape: node1/node5 saturate above 95%, node3/node4 fall below 65%",
        )
    };
    let _ = writeln!(out, "{name}\n");
    let _ = writeln!(
        out,
        "{}",
        render_node_chart(name, &r.cpu, (50.0, 100.0), "CPU (%)")
    );
    let mut t = Table::new(&["node", "t=0s", "t=300s", "t=600s", "t=900s"]);
    for s in &r.cpu {
        t.row(&[
            s.name.clone(),
            format!("{:.1}", s.at(1.0).unwrap_or(f64::NAN)),
            format!("{:.1}", s.at(300.0).unwrap_or(f64::NAN)),
            format!("{:.1}", s.at(600.0).unwrap_or(f64::NAN)),
            format!("{:.1}", s.at(899.0).unwrap_or(f64::NAN)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "mean spread over last 300 s: {:.1}% CPU",
        r.mean_spread(600.0, 900.0)
    );
    let _ = writeln!(out, "{paper}");
    out
}

/// Render Fig. 5d (process distribution with LB) from a run.
pub fn fig5d(r: &FlowSimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5d — zone-server process distribution among nodes, load balancing enabled\n"
    );
    out.push_str(&fig5a_header());
    let _ = writeln!(
        out,
        "{}",
        render_node_chart("processes per node", &r.procs, (10.0, 40.0), "zone servers")
    );
    let mut t = Table::new(&["node", "t=0s", "t=450s", "t=900s"]);
    for s in &r.procs {
        t.row(&[
            s.name.clone(),
            format!("{:.0}", s.at(1.0).unwrap_or(f64::NAN)),
            format!("{:.0}", s.at(450.0).unwrap_or(f64::NAN)),
            format!("{:.0}", s.at(899.0).unwrap_or(f64::NAN)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "migrations performed: {}", r.migrations.len());
    for m in r.migrations.iter().take(20) {
        let _ = writeln!(
            out,
            "  t={:>5.0}s  zone({},{})  node{} → node{}",
            m.at_s,
            m.zone.row(),
            m.zone.col(),
            m.from + 1,
            m.to + 1
        );
    }
    if r.migrations.len() > 20 {
        let _ = writeln!(out, "  … {} more", r.migrations.len() - 20);
    }
    let _ = writeln!(
        out,
        "\npaper shape: node1/node5 drop toward ~13-15 processes, node3/node4 rise toward\n\
         ~25-28, starting once the imbalance crosses the transfer-policy threshold."
    );
    out
}

/// The migration-time instant used to centre Fig. 4's window.
pub fn fig4_center(report_frozen_at: SimTime) -> SimTime {
    report_frozen_at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn no_arguments_give_the_default_sweep() {
        assert_eq!(parse_connections(&[]), Ok(DEFAULT_CONNECTIONS.to_vec()));
    }

    #[test]
    fn numeric_arguments_are_kept_in_order() {
        assert_eq!(
            parse_connections(&args(&["256", "16", "64"])),
            Ok(vec![256, 16, 64])
        );
    }

    #[test]
    fn a_non_numeric_argument_is_refused() {
        assert_eq!(parse_connections(&args(&["foo"])), Err("foo".into()));
        assert_eq!(parse_connections(&args(&["16", "6x4"])), Err("6x4".into()));
    }
}
