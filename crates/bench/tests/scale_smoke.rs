//! CI smoke test for the scale harness: the small cell runs, its JSON
//! round-trips with the required keys, and two same-seed runs agree on
//! every deterministic metric.

use dvelm_bench::json::Json;
use dvelm_bench::scale::{run_scale, scale_json, ScaleConfig};

/// `ScaleConfig::smoke()`'s deterministic fingerprint on the single event
/// loop.
const SMOKE_FINGERPRINT: &str =
    "n4 c100 m2 s2 seed0x5ca1ebc strat[incremental collective] aoi=false: \
    sim_us=2100000 events=21710 deliveries=21000 usercmds=6168 route_errors=0 \
    started=2 rejected=0 completed=2 aborted=0 freeze_max=24589 total_max=669311 \
    peak_pkts=12 peak_bytes=576 shed_udp=0 clamped=0 \
    phases=[freeze: detach + transfer=47776,freeze: signal + capture setup=684,\
    precopy: full checkpoint=640000,precopy: incremental iteration=647763,\
    restore: rehash + reinject + resume=0]";

#[test]
fn smoke_cell_is_deterministic_and_its_json_roundtrips() {
    let cfg = ScaleConfig::smoke();
    let a = run_scale(&cfg);
    let b = run_scale(&cfg);
    assert_eq!(
        a.det_fingerprint(),
        b.det_fingerprint(),
        "same seed, same world, same metrics"
    );

    // The run did what the config asked for.
    assert_eq!(a.migrations_started, cfg.migrations);
    assert_eq!(
        a.migrations_completed + a.migrations_aborted,
        cfg.migrations
    );
    assert!(a.events > 0 && a.deliveries > 0 && a.usercmds > 0);

    // BENCH_scale.json: parses back, required keys present.
    let cells = [a, b];
    let scale_text = scale_json(&cells).render();
    let doc = Json::parse(&scale_text).expect("BENCH_scale.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("scale"));
    let parsed_cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array");
    assert_eq!(parsed_cells.len(), 2);
    for key in [
        "cell",
        "nodes",
        "clients",
        "sched_clamped",
        "sim_us",
        "events",
        "events_per_sec",
        "deliveries",
        "deliveries_per_sec",
        "wall_ms",
        "wall_ms_per_sim_s",
        "migrations_completed",
    ] {
        assert!(
            parsed_cells[0].get(key).is_some(),
            "BENCH_scale cell missing key {key}"
        );
    }
}

/// The smoke cell's deterministic fingerprint — every metric except
/// wall-clock — matches its golden, and the fault-free cell never clamps a
/// past-instant schedule (also asserted inside `run_scale`; checked here
/// so the field itself is exercised).
#[test]
fn fingerprint_matches_golden() {
    let cell = run_scale(&ScaleConfig::smoke());
    assert_eq!(cell.sched_clamped, 0, "fault-free cell must not clamp");
    assert_eq!(
        cell.det_fingerprint(),
        SMOKE_FINGERPRINT,
        "smoke-cell fingerprint drifted"
    );
}
