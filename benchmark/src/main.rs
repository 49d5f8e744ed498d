//! The benchmark of record: three DVE workloads driven through the
//! simulator's public API from one thread, measured end to end and layer by
//! layer.
//!
//! ```text
//! benchmark [run|trace] --workload W [--seed N] [--seconds S] [--trace 0|1]
//! benchmark probe
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` (the default, `--trace 0`) repeats the workload until `--seconds`
//! host seconds have passed and reports the end-to-end metrics. `trace`
//! (`--trace 1`) pairs each untraced repetition with a traced one and
//! reports the per-layer metrics, probes included. Both print a report line
//! (workload, seed, checks, every metric with its unit) and, last, the
//! summary line `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any check fails.

mod compare;
mod harness;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

use dvelm_bench::json::Json;
use harness::{run_rep, set_up, Rep};
use metrics::{Catalog, Metric};
use std::time::{Duration, Instant};
use workload::{Spec, Workload, DEFAULT_SEED, HOLDOUT_SEED};

/// Set-ups measured per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 9;

/// Parsed `run`/`trace` options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// A seed: decimal, `0x` hex, or one of the names `default` and `holdout`.
fn parse_seed(s: &str) -> Option<u64> {
    match s {
        "default" => return Some(DEFAULT_SEED),
        "holdout" => return Some(HOLDOUT_SEED),
        _ => {}
    }
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_options(args: &[String], trace: bool) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::OaBroadcast,
        seed: DEFAULT_SEED,
        seconds: 5.0,
        trace,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Render a JSON value on one line.
fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        let mut v = Json::obj();
        v.set("value", Json::Num(m.value));
        v.set("unit", Json::Str(m.unit.into()));
        obj.set(&m.name, v);
    }
    obj
}

/// Everything one `run` or `trace` invocation measured.
struct Outcome {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    reps: usize,
    /// Sample counts behind the medians, by name.
    samples: Vec<(&'static str, usize)>,
}

/// Checks that span repetitions: every check of every repetition, and the
/// deterministic outcome of each equal to the first one's.
fn rep_failures(reps: &[&Rep]) -> Vec<String> {
    let mut out = reps[0].det.failures();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.det != reps[0].det {
            out.push(format!(
                "repetition {i} diverged from repetition 0 in simulated outcomes"
            ));
        }
    }
    out
}

fn attempted_failed(reps: &[&Rep]) -> (u64, u64) {
    reps.iter().fold((0, 0), |(a, f), r| {
        let d = &r.det;
        (
            a + (d.started + d.rejected) as u64,
            f + (d.aborted + d.unsettled + d.rejected) as u64,
        )
    })
}

fn measure(opts: &Options, catalog: &Catalog) -> Outcome {
    let spec = Spec::new(opts.workload, opts.seed);
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    if !opts.trace {
        let mut reps = Vec::new();
        loop {
            reps.push(run_rep(&spec, false));
            eprintln!(
                "[benchmark] {} rep {}: window {:.2} host-s, setup {:.3} s",
                opts.workload.name(),
                reps.len(),
                reps.last().map_or(0, Rep::window_ns) as f64 / 1e9,
                reps.last().map_or(0, Rep::setup_ns) as f64 / 1e9,
            );
            if started.elapsed() >= budget {
                break;
            }
        }
        let mut setups: Vec<u64> = reps.iter().map(Rep::setup_ns).collect();
        while setups.len() < MIN_SETUPS {
            let (scenario, build_ns, warmup_ns) = set_up(&spec);
            drop(scenario);
            setups.push(build_ns + warmup_ns);
        }
        let all: Vec<&Rep> = reps.iter().collect();
        let metrics = metrics::end_to_end(&reps, &setups);
        let mut failures = rep_failures(&all);
        failures.extend(Catalog::mismatches(&catalog.end_to_end, &metrics));
        let (attempted, failed) = attempted_failed(&all);
        let samples = vec![
            ("goodput_slices", reps.iter().map(|r| r.slices.len()).sum()),
            ("setups", setups.len()),
            ("migrations", reps[0].det.completed),
        ];
        return Outcome {
            metrics,
            failures,
            attempted,
            failed,
            reps: reps.len(),
            samples,
        };
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        untraced.push(run_rep(&spec, false));
        traced.push(run_rep(&spec, true));
        if started.elapsed() >= budget {
            break;
        }
    }
    let probes = probe::run_all();
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let metrics = metrics::per_layer(&untraced, &traced, &probes);
    let mut failures = rep_failures(&all);
    failures.extend(Catalog::mismatches(&catalog.per_layer, &metrics));
    if let Some(t) = traced.iter().filter_map(|r| r.tracer.as_ref()).next() {
        print_trace_table(opts.workload, t, traced[0].window_ns());
    }
    let (attempted, failed) = attempted_failed(&all);
    let samples = vec![
        ("traced_windows", traced.len()),
        ("migrations", traced[0].det.completed),
    ];
    Outcome {
        metrics,
        failures,
        attempted,
        failed,
        reps: all.len(),
        samples,
    }
}

/// The raw per-(event kind, host class) table of the first traced window,
/// on stderr. Shares are of the window without the tracer's bookkeeping.
fn print_trace_table(workload: Workload, t: &trace::Tracer, window_ns: u64) {
    let sim_ns = window_ns.saturating_sub(t.self_ns).max(1) as f64;
    let mut rows: Vec<(String, u64, u64)> = t
        .buckets
        .iter()
        .map(|b| (format!("{} @{}", b.kind, b.class.name()), b.steps, b.ns))
        .chain(
            t.spans
                .iter()
                .map(|&(name, calls, ns)| (name.to_string(), calls, ns)),
        )
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    eprintln!(
        "[benchmark] {} traced window {:.3} host-s, tracer bookkeeping {:.3} host-s",
        workload.name(),
        window_ns as f64 / 1e9,
        t.self_ns as f64 / 1e9
    );
    eprintln!(
        "{:<34} {:>10} {:>12} {:>8}",
        "event @host / span", "steps", "ns/step", "share"
    );
    for (name, steps, ns) in rows {
        eprintln!(
            "{:<34} {:>10} {:>12.0} {:>7.2}%",
            name,
            steps,
            ns as f64 / steps.max(1) as f64,
            100.0 * ns as f64 / sim_ns
        );
    }
}

fn run_main(args: &[String], trace: bool) -> i32 {
    let opts = match parse_options(args, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark [run|trace] --workload W [--seed N] [--seconds S] [--trace 0|1]");
            return 2;
        }
    };
    let catalog = match Catalog::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Err(e) = Spec::new(opts.workload, opts.seed).check_address_plan() {
        eprintln!("[benchmark] refusing to run: {e}");
        return 1;
    }
    let out = measure(&opts, &catalog);
    let ok = out.failures.is_empty();
    for f in &out.failures {
        eprintln!("[benchmark] CHECK FAILED: {f}");
    }
    let metrics = metrics_json(&out.metrics);
    let mut report = Json::obj();
    report.set("workload", Json::Str(opts.workload.name().into()));
    report.set("seed", Json::Num(opts.seed as f64));
    report.set(
        "mode",
        Json::Str(if opts.trace { "trace" } else { "run" }.into()),
    );
    report.set("ok", Json::Bool(ok));
    report.set(
        "checks_failed",
        Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
    );
    report.set("repetitions", Json::Num(out.reps as f64));
    let mut samples = Json::obj();
    for (name, n) in &out.samples {
        samples.set(name, Json::Num(*n as f64));
    }
    report.set("samples", samples);
    report.set("metrics", metrics.clone());
    println!("{}", one_line(&report));
    let mut summary = Json::obj();
    summary.set("correct", Json::Bool(ok));
    summary.set("attempted", Json::Num(out.attempted as f64));
    summary.set("failed", Json::Num(out.failed as f64));
    summary.set("metrics", metrics);
    println!("{}", one_line(&summary));
    i32::from(!ok)
}

fn probe_main() -> i32 {
    let metrics: Vec<Metric> = probe::run_all()
        .into_iter()
        .map(|(name, ns)| Metric {
            name: name.into(),
            value: ns,
            unit: "ns",
        })
        .collect();
    println!("{}", one_line(&metrics_json(&metrics)));
    0
}

fn main() {
    // The benchmark always runs the sequential event loop, whatever the
    // caller's environment asks for.
    std::env::remove_var("DVELM_SHARDS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("probe") => probe_main(),
        Some("run") => run_main(&args[1..], false),
        Some("trace") => run_main(&args[1..], true),
        _ => run_main(&args, false),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests;
