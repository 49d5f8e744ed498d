//! The scale-benchmark gate behind CI's `bench-regression` job.
//!
//! Modes:
//!
//! * `bench_scale <out.json>` — run the four cells of [`trajectory`] and
//!   write their `BENCH_scale.json` document to `<out.json>`;
//! * `bench_scale --compare <baseline.json> <fresh.json> [tolerance]` —
//!   exit non-zero when any baseline cell regresses by more than the
//!   tolerance (default 2x) on a wall-clock throughput metric.

use dvelm_bench::json::Json;
use dvelm_bench::scale::{compare_bench, run_scale, scale_json, ScaleConfig, SCALE_SEED};

const USAGE: &str = "usage: bench_scale <out.json>\n       \
                     bench_scale --compare <baseline.json> <fresh.json> [tolerance]";

fn cell(nodes: usize, clients: usize, migrations: usize, run_secs: u64, aoi: bool) -> ScaleConfig {
    ScaleConfig {
        nodes,
        clients,
        migrations,
        run_secs,
        seed: SCALE_SEED,
        aoi,
    }
}

/// The gated cells, one row each in `BENCH_baseline.json`: three broadcast
/// cells plus the zoned 256x10000 row, so a regression in the
/// interest-routing path shows up as a wall-clock failure, not just a
/// determinism one.
fn trajectory() -> [ScaleConfig; 4] {
    [
        cell(4, 100, 2, 5, false),
        cell(16, 1000, 4, 2, false),
        cell(64, 1000, 8, 2, false),
        cell(256, 10_000, 16, 1, true),
    ]
}

fn sweep_mode(out_path: &str) {
    let mut cells = Vec::new();
    for cfg in trajectory() {
        eprintln!(
            "[bench_scale] nodes={} clients={} migrations={} run_secs={} aoi={} ...",
            cfg.nodes, cfg.clients, cfg.migrations, cfg.run_secs, cfg.aoi
        );
        let cell = run_scale(&cfg);
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
    std::fs::write(out_path, scale_json(&cells).render())
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[saved {out_path}]");
}

fn compare_mode(args: &[String]) -> ! {
    let [base_path, fresh_path, rest @ ..] = args else {
        eprintln!("{USAGE}");
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
    match args.as_slice() {
        [flag, rest @ ..] if flag == "--compare" => compare_mode(rest),
        [out_path] if !out_path.starts_with('-') => sweep_mode(out_path),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
