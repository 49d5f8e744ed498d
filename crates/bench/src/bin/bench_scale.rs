//! The scale-benchmark trajectory: `BENCH_scale.json` + `BENCH_stack.json`.
//!
//! Modes:
//!
//! * no arguments — run the full default trajectory (4 → 256 nodes, then
//!   the `--aoi` rows) and write both JSON files to the repository root
//!   (or `$DVELM_BENCH_DIR`);
//! * `--quick` — the three small cells plus the zoned 256x10000 row (what
//!   CI runs; the cells are identical to the full run's, so the committed
//!   baseline compares like-for-like);
//! * `--strategy` — the 4x100 cell once per migration strategy (all five,
//!   including post-copy and hybrid), recording per-strategy demand-fetch
//!   and write-back counters in strategy-qualified rows;
//! * `--aoi` — the interest-routed sweep (`@aoi` rows): 64x1000 and
//!   256x10000 under zone multicast instead of broadcast, plus the first
//!   1024-node/100k-client cell, which only AOI makes tractable;
//! * `--compare <baseline.json> <fresh.json> [tolerance]` — exit non-zero
//!   when any shared cell regresses by more than the tolerance (default
//!   2x) on a wall-clock throughput metric.

use dvelm_bench::json::Json;
use dvelm_bench::scale::{
    compare_bench, run_scale, scale_json, stack_json, Baseline, ScaleCell, ScaleConfig, SCALE_SEED,
};
use dvelm_migrate::Strategy;

/// The 64-node/1000-client cell measured once on the pre-optimization tree
/// (the parent of the commit introducing this harness; same harness source,
/// release build, idle machine). `BENCH_scale.json`'s `speedup` is the
/// fresh deliveries-per-wall-second over the baseline's, and
/// `sim_throughput_speedup` the wall-clock-per-sim-second ratio —
/// deliveries rather than raw dispatched events, because batching the
/// broadcast fan-out changed how much work one scheduler event carries.
const PRE_OPT_64X1000_EVENTS_PER_SEC: f64 = 1_524_680.0;
const PRE_OPT_64X1000_DELIVERIES_PER_SEC: f64 = 1_467_926.0;
const PRE_OPT_64X1000_WALL_MS_PER_SIM_S: f64 = 874.6;

fn cell(nodes: usize, clients: usize, migrations: usize, run_secs: u64) -> ScaleConfig {
    ScaleConfig {
        nodes,
        clients,
        migrations,
        run_secs,
        seed: SCALE_SEED,
        monitored: false,
        strategy: Strategy::IncrementalCollective,
        aoi: false,
    }
}

/// An interest-routed variant of [`cell`] (`@aoi`-suffixed row key).
fn aoi_cell(nodes: usize, clients: usize, migrations: usize, run_secs: u64) -> ScaleConfig {
    ScaleConfig {
        aoi: true,
        ..cell(nodes, clients, migrations, run_secs)
    }
}

/// The `--aoi` sweep: interest-managed routing at the sizes where the
/// broadcast wall bites. The 256x10000 zoned row is the headline (same
/// world as the broadcast row, O(1) instead of O(nodes) inbound fan-out);
/// 1024x100000 is the first cell past the broadcast-feasible region.
fn aoi_trajectory() -> Vec<ScaleConfig> {
    vec![
        aoi_cell(64, 1000, 8, 2),
        aoi_cell(256, 10_000, 16, 1),
        aoi_cell(1024, 100_000, 8, 1),
    ]
}

/// The `--strategy` sweep: the 4x100 cell once per migration strategy
/// (including the restore-first family), so `BENCH_scale.json` carries one
/// row per strategy with its demand-fetch / write-back traffic counters.
fn strategy_trajectory() -> Vec<ScaleConfig> {
    Strategy::ALL_WITH_RESIDUAL
        .into_iter()
        .map(|strategy| ScaleConfig {
            strategy,
            ..cell(4, 100, 2, 5)
        })
        .collect()
}

/// The full trajectory: one row per cell size, then the `--aoi` rows.
fn full_trajectory() -> Vec<ScaleConfig> {
    let mut cfgs = vec![
        cell(4, 100, 2, 5),
        cell(16, 1000, 4, 2),
        cell(64, 1000, 8, 2),
        cell(256, 10_000, 16, 1),
    ];
    cfgs.extend(aoi_trajectory());
    cfgs
}

/// The CI quick sweep: the three small cells (identical to the full run's,
/// so the committed baseline compares like-for-like) plus the zoned
/// headline row, which CI gates against the committed baseline like any
/// other cell, so a regression in the interest-routing fast path shows up
/// as a wall-clock failure, not just a determinism one.
fn quick_trajectory() -> Vec<ScaleConfig> {
    vec![
        cell(4, 100, 2, 5),
        cell(16, 1000, 4, 2),
        cell(64, 1000, 8, 2),
        aoi_cell(256, 10_000, 16, 1),
    ]
}

/// Where the BENCH_*.json files go: `$DVELM_BENCH_DIR` or the repo root.
fn bench_dir() -> std::path::PathBuf {
    let dir = std::env::var("DVELM_BENCH_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").replace("/crates/bench", ""));
    let p = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create bench output dir");
    p
}

fn run_sweep(cfgs: &[ScaleConfig]) -> Vec<ScaleCell> {
    let mut cells = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        eprintln!(
            "[bench_scale] nodes={} clients={} migrations={} run_secs={} strategy={} ...",
            cfg.nodes, cfg.clients, cfg.migrations, cfg.run_secs, cfg.strategy
        );
        let cell = run_scale(cfg);
        eprintln!(
            "[bench_scale]   {:.0} events/s, {:.1} wall-ms per sim-s, peak queue {} pkts, \
             {} migrations completed ({} aborted, {} rejected)",
            cell.events_per_sec,
            cell.wall_ms_per_sim_s,
            cell.peak_queued_packets,
            cell.migrations_completed,
            cell.migrations_aborted,
            cell.migrations_rejected,
        );
        cells.push(cell);
    }
    cells
}

fn write_outputs(cells: &[ScaleCell]) {
    let baseline = Baseline {
        label: "pre-optimization tree, release build, same harness".into(),
        cell: "64x1000".into(),
        events_per_sec: PRE_OPT_64X1000_EVENTS_PER_SEC,
        deliveries_per_sec: PRE_OPT_64X1000_DELIVERIES_PER_SEC,
        wall_ms_per_sim_s: PRE_OPT_64X1000_WALL_MS_PER_SIM_S,
    };
    let dir = bench_dir();
    let scale_path = dir.join("BENCH_scale.json");
    let stack_path = dir.join("BENCH_stack.json");
    std::fs::write(&scale_path, scale_json(cells, Some(&baseline)).render())
        .expect("write BENCH_scale.json");
    std::fs::write(&stack_path, stack_json(cells).render()).expect("write BENCH_stack.json");
    eprintln!("[saved {}]", scale_path.display());
    eprintln!("[saved {}]", stack_path.display());
}

fn compare_mode(args: &[String]) -> ! {
    let [base_path, fresh_path, rest @ ..] = args else {
        eprintln!("usage: bench_scale --compare <baseline.json> <fresh.json> [tolerance]");
        std::process::exit(2);
    };
    let tolerance: f64 = rest.first().map_or(2.0, |t| {
        t.parse().unwrap_or_else(|_| {
            eprintln!("bad tolerance {t:?}");
            std::process::exit(2);
        })
    });
    let read_json = |path: &String| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read_json(base_path);
    let fresh = read_json(fresh_path);
    let outcome = compare_bench(&baseline, &fresh, tolerance);
    for w in &outcome.warnings {
        eprintln!("WARNING: {w}");
    }
    if outcome.problems.is_empty() {
        println!("bench_scale: no regression beyond {tolerance}x against {base_path}");
        std::process::exit(0);
    }
    for p in &outcome.problems {
        eprintln!("REGRESSION: {p}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--compare") => compare_mode(&args[1..]),
        Some("--quick") => {
            let cells = run_sweep(&quick_trajectory());
            write_outputs(&cells);
        }
        Some("--strategy") => {
            let cells = run_sweep(&strategy_trajectory());
            write_outputs(&cells);
        }
        Some("--aoi") => {
            let cells = run_sweep(&aoi_trajectory());
            write_outputs(&cells);
        }
        None => {
            let cells = run_sweep(&full_trajectory());
            write_outputs(&cells);
        }
        Some(other) => {
            eprintln!(
                "unknown argument {other:?}; use --quick, --strategy, --aoi \
                 or --compare"
            );
            std::process::exit(2);
        }
    }
}
