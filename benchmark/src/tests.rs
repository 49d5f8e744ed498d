//! Every workload at the reduced size (⅛ of the clients, a 2 sim-s
//! window): determinism across repetitions and tracing, seed sensitivity,
//! the checks, and the metric catalog.

use super::*;
use harness::Det;

fn reduced(workload: Workload, seed: u64) -> Spec {
    Spec {
        workload,
        seed,
        reduced: true,
    }
}

fn checked(rep: &Rep, what: &str) -> Det {
    let failures = rep.det.failures();
    assert!(failures.is_empty(), "{what}: {failures:?}");
    rep.det.clone()
}

/// Two untraced runs and a traced run agree; the holdout seed changes the
/// outcome and still passes every check; the emitted metrics match
/// `BENCHMARK.json` in both directions and no end-to-end metric is zero.
fn exercise(workload: Workload) {
    let spec = reduced(workload, DEFAULT_SEED);
    let first = run_rep(&spec, false);
    let again = run_rep(&spec, false);
    let traced = run_rep(&spec, true);
    let holdout = run_rep(&reduced(workload, HOLDOUT_SEED), false);
    let det = checked(&first, "default seed");
    assert_eq!(det, again.det, "repeated run diverged");
    assert_eq!(det, traced.det, "traced run diverged from the untraced one");
    assert_ne!(det, checked(&holdout, "holdout seed"), "seed had no effect");
    assert!(traced.tracer.as_ref().is_some_and(|t| t.steps() > 0));

    let catalog = Catalog::load().expect("BENCHMARK.json parses");
    let e2e = metrics::end_to_end(std::slice::from_ref(&first), &[first.setup_ns()]);
    assert_eq!(
        Catalog::mismatches(&catalog.end_to_end, &e2e),
        Vec::<String>::new()
    );
    let probes: Vec<(&'static str, f64)> = probe::NAMES.iter().map(|&n| (n, 1.0)).collect();
    let layers = metrics::per_layer(
        std::slice::from_ref(&again),
        std::slice::from_ref(&traced),
        &probes,
    );
    assert_eq!(
        Catalog::mismatches(&catalog.per_layer, &layers),
        Vec::<String>::new()
    );
    for m in &e2e {
        assert!(m.value > 0.0, "end-to-end metric {} is zero", m.name);
    }
}

#[test]
fn oa_broadcast_reduced() {
    exercise(Workload::OaBroadcast);
}

#[test]
fn oa_hotspot_lb_reduced() {
    exercise(Workload::OaHotspotLb);
}

#[test]
fn tcp_zone_migration_reduced() {
    exercise(Workload::TcpZoneMigration);
}

#[test]
fn workloads_in_benchmark_json_are_the_ones_implemented() {
    let doc = Json::parse(metrics::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn options_parse_the_flag_form() {
    let args: Vec<String> = [
        "--workload",
        "oa_hotspot_lb",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let o = parse_options(&args, false).expect("valid options");
    assert_eq!(o.workload, Workload::OaHotspotLb);
    assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
    assert_eq!(parse_seed("0x05CA1EBC"), Some(DEFAULT_SEED));
    assert_eq!(parse_seed("holdout"), Some(HOLDOUT_SEED));
    assert!(parse_options(&["--seed".to_string(), "1".to_string()], false).is_err());
    assert!(parse_options(&["--workload".to_string(), "nope".to_string()], false).is_err());
}
