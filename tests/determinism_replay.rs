//! Double-run determinism: build the chaos soak's world — same seed, same
//! topology, same fault plan as `tests/chaos_soak.rs` — twice, replay it
//! with effect logging enabled, and require the two rendered effect streams
//! to be byte-identical. This is the machine-checkable form of the repo's
//! determinism contract: if any `HashMap` iteration order, wall-clock read
//! or unseeded RNG leaks into the simulation (the simulation crates'
//! `clippy.toml` bans the first two), the two logs diverge here long before
//! a figure regenerates differently.
//!
//!
//! Double runs catch nondeterminism; they cannot catch a change that moves
//! every run the same way. So the chaos scenario and two broadcast-heavy
//! chatter scenarios (plain and zoned) are also pinned to golden outputs
//! recorded on the single event loop. A refactor that claims
//! byte-identical output must pass them unchanged.

use dvelm::lb::AdmissionConfig;
use dvelm::migrate::OverloadGuard;
use dvelm::openarena::apps::{OaClient, OaServer, OA_PORT};
use dvelm::prelude::*;
use dvelm::stack::{CaptureBudget, StackStats};
use std::cell::RefCell;
use std::rc::Rc;

/// The seed `tests/chaos_soak.rs` soaks under.
const SOAK_SEED: u64 = 0x50a1;
const MIG_CAP: usize = 2;
const CAPTURE_PACKETS: usize = 64;
const CAPTURE_BYTES: usize = 256 * 1024;
/// Long enough to cover every scripted fault through the node crash at 34 s.
const REPLAY_SECS: u64 = 36;

struct Worker {
    share: f64,
    dirty: usize,
}

impl App for Worker {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.set_cpu_share(self.share);
        ctx.touch_memory(self.dirty);
    }
    fn tick_period_us(&self) -> u64 {
        100 * MILLISECOND
    }
}

/// One full replay of the soak scenario: returns the rendered effect log
/// and the final clock.
fn replay() -> (Vec<String>, SimTime) {
    replay_full(false)
}

/// The soak replay with the invariant monitor optionally armed. The monitor
/// observes the run without scheduling events or drawing randomness, so the
/// `monitored == plain` comparison in
/// [`monitor_does_not_perturb_the_stream`] is the zero-cost-when-disabled
/// contract stated as a byte equality.
fn replay_full(monitored: bool) -> (Vec<String>, SimTime) {
    let mut w = World::new(WorldConfig {
        seed: SOAK_SEED,
        admission: AdmissionConfig {
            max_cluster_migrations: MIG_CAP,
            max_node_migrations: 1,
            max_inflight_image_bytes: 256 * 1024 * 1024,
        },
        overload_guard: OverloadGuard {
            deadline_us: Some(10 * SECOND),
            max_stagnant_rounds: Some(8),
        },
        capture_budget: CaptureBudget::bounded(CAPTURE_PACKETS, CAPTURE_BYTES),
        xlate_gc_ttl_us: Some(10 * SECOND),
        ..WorldConfig::default()
    });
    w.enable_effect_log();
    if monitored {
        w.enable_monitor();
    }

    let mut nodes = Vec::new();
    for n in 0..5 {
        let node = w.add_server_node();
        let (count, share) = match n {
            0..=2 => (5, 16.0),
            _ => (1, 6.0),
        };
        for i in 0..count {
            w.spawn_process(
                node,
                &format!("w{n}-{i}"),
                16,
                512,
                Box::new(Worker {
                    share,
                    dirty: 20 + 7 * i,
                }),
            );
        }
        nodes.push(node);
    }

    w.run_for(500 * MILLISECOND);
    w.enable_load_balancing();

    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(3),
            Fault::Overload {
                host: nodes[0],
                factor: 6,
                for_us: 4 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(5),
            Fault::DownlinkLoss {
                host: nodes[1],
                model: dvelm::net::LossModel::Burst { p: 0.02, burst: 6 },
                for_us: 3 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(8),
            Fault::CaptureInstallFail { host: nodes[3] },
        )
        .at(
            SimTime::from_secs(12),
            Fault::CtrlBlackout {
                host: nodes[3],
                dir: CtrlDir::Both,
                for_us: 4 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(16),
            Fault::RestoreFail { host: nodes[4] },
        )
        .at(
            SimTime::from_secs(20),
            Fault::Overload {
                host: nodes[2],
                factor: 10,
                for_us: 5 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(26),
            Fault::Overload {
                host: nodes[3],
                factor: 4,
                for_us: 0,
            },
        )
        .at(SimTime::from_secs(34), Fault::NodeCrash { host: nodes[4] })
        .at(
            SimTime::from_secs(40),
            Fault::Overload {
                host: nodes[3],
                factor: 1,
                for_us: 0,
            },
        );
    w.install_fault_plan(plan);

    w.run_for(REPLAY_SECS * SECOND);
    if monitored {
        w.monitor_sweep();
        assert!(
            w.violations().is_empty(),
            "the fault-free-of-partitions soak run must hold every \
             invariant: {:?}",
            w.violations()
        );
    }
    (w.effect_log().to_vec(), w.now())
}

/// Arming the invariant monitor must not change a single byte of the
/// effect stream: the monitor observes state transitions, it never
/// schedules events or draws from the world RNG. This is the "always-on,
/// zero cost when disabled" contract — figures regenerated with the
/// monitor armed are the same figures.
#[test]
fn monitor_does_not_perturb_the_stream() {
    let (plain, end_plain) = replay_full(false);
    let (monitored, end_monitored) = replay_full(true);
    assert_eq!(
        end_plain, end_monitored,
        "monitored and plain replays must end at the same instant"
    );
    assert_logs_identical("plain", &plain, "monitored", &monitored);
}

/// What a monitored and a plain run of the smoke scenario must agree on.
#[derive(Debug, PartialEq)]
struct SmokeRun {
    log: Vec<String>,
    reports: String,
    stack_stats: Vec<StackStats>,
    route_errors: u64,
    events: u64,
    end: SimTime,
}

/// The scale benchmark's smoke cell on the plain `World` API: 4 `OaServer`
/// nodes on distinct ports, 100 `OaClient`s round-robin across them, one
/// second of warm-up, then two migrations 100 ms apart, each moving a
/// node's server to the node half a ring away, and a run to 3.1 s.
fn smoke_run(monitored: bool) -> SmokeRun {
    const NODES: usize = 4;
    let mut w = World::new(WorldConfig {
        seed: 0x05CA_1EBC,
        ..WorldConfig::default()
    });
    w.enable_effect_log();
    if monitored {
        w.enable_monitor();
    }
    let usercmds = Rc::new(RefCell::new(0u64));
    let mut nodes = Vec::new();
    let mut pids = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..NODES {
        let node = w.add_server_node();
        let pid = w.spawn_process(
            node,
            "oa_server",
            512,
            4096,
            Box::new(OaServer::new(usercmds.clone())),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + i as u16);
        w.app_udp_bind(node, pid, addr);
        nodes.push(node);
        pids.push(pid);
        addrs.push(addr);
    }
    for c in 0..100 {
        let addr = addrs[c % NODES];
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

    let warmup_end = SimTime::from_secs(1);
    for k in 0..2 {
        w.run_until(warmup_end + k as u64 * 100 * MILLISECOND);
        w.begin_migration(
            pids[k],
            nodes[k + NODES / 2],
            Strategy::IncrementalCollective,
        )
        .expect("smoke migration admitted");
    }
    w.run_until(warmup_end + 2 * SECOND);
    w.run_for(100 * MILLISECOND);
    if monitored {
        w.monitor_sweep();
        assert!(
            w.violations().is_empty(),
            "the fault-free smoke run must hold every invariant: {:?}",
            w.violations()
        );
    }
    assert_eq!(w.reports.len(), 2, "both smoke migrations report");
    SmokeRun {
        log: w.effect_log().to_vec(),
        reports: format!("{:?}", w.reports),
        stack_stats: w.hosts.iter().map(|h| h.stack.stats()).collect(),
        route_errors: w.route_errors(),
        events: w.sched.dispatched(),
        end: w.now(),
    }
}

/// The figures stay honest under the monitor: the smoke scenario's effect
/// stream, migration reports, per-host stack counters, route errors,
/// dispatched events and end instant, and the Fig. 5b/5c freeze-bench
/// outputs (worst/mean freeze time, freeze-phase socket bytes, and the full
/// per-run reports including the phase timeline) are byte-identical with
/// the monitor armed. A monitor that scheduled an event or drew from the
/// world RNG would shift a timestamp here.
#[test]
fn monitor_does_not_perturb_figures() {
    use dvelm::dve::{run_freeze_bench, FreezeBenchConfig};

    let plain = smoke_run(false);
    let monitored = smoke_run(true);
    assert!(!plain.log.is_empty(), "the smoke migrations emit effects");
    assert_logs_identical("plain", &plain.log, "monitored", &monitored.log);
    assert_eq!(
        plain, monitored,
        "the smoke run must not depend on the monitor"
    );

    let freeze_cfg = FreezeBenchConfig {
        connections: 48,
        repetitions: 2,
        seed: 21,
        ..FreezeBenchConfig::default()
    };
    let plain = run_freeze_bench(&freeze_cfg);
    let monitored = run_freeze_bench(&FreezeBenchConfig {
        monitored: true,
        ..freeze_cfg
    });
    assert_eq!(plain.worst_freeze_us, monitored.worst_freeze_us);
    assert_eq!(plain.mean_freeze_us, monitored.mean_freeze_us);
    assert_eq!(
        plain.worst_freeze_socket_bytes,
        monitored.worst_freeze_socket_bytes
    );
    assert_eq!(
        format!("{:?}", plain.reports),
        format!("{:?}", monitored.reports),
        "freeze-bench reports (incl. the phase timeline) must be \
         identical with the monitor armed"
    );
}

#[test]
fn chaos_seed_replays_byte_identical() {
    let (log_a, end_a) = replay();
    let (log_b, end_b) = replay();
    assert!(
        !log_a.is_empty(),
        "the soak scenario migrates under load balancing; an empty effect \
         log means the replay never exercised the pipeline"
    );
    assert_eq!(end_a, end_b, "the two replays must end at the same instant");
    assert_eq!(
        log_a.len(),
        log_b.len(),
        "effect streams differ in length: {} vs {}",
        log_a.len(),
        log_b.len()
    );
    // Element-wise first so a divergence points at the exact effect line.
    for (i, (a, b)) in log_a.iter().zip(&log_b).enumerate() {
        assert_eq!(a, b, "effect streams diverge at entry {i}");
    }
}

/// A replay's pinned output: the FNV-1a digest of its rendered effect
/// stream, the stream's length and the instant the replay ended. Any change
/// to event order, timing or RNG draws moves at least one of the three.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    effects: usize,
    end_us: u64,
}

impl Golden {
    fn of(log: &[String], end: SimTime) -> Golden {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in log.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Golden {
            digest: h,
            effects: log.len(),
            end_us: end.as_micros(),
        }
    }
}

/// The chaos scenario ([`replay`]) on the single event loop.
const CHAOS_GOLDEN: Golden = Golden {
    digest: 0x9c84_e926_23ae_d2f0,
    effects: 80,
    end_us: 36_485_709,
};
/// The broadcast chatter scenario of [`chatter_replay_matches_golden`].
const CHATTER_GOLDEN: Golden = Golden {
    digest: 0x4ed9_7832_3c87_55e2,
    effects: 85,
    end_us: 3_999_414,
};
/// The zoned chatter scenario of [`aoi_replay_matches_golden`].
const AOI_GOLDEN: Golden = Golden {
    digest: 0x6941_0ce5_69c1_6dff,
    effects: 78,
    end_us: 3_999_793,
};
/// Diff two effect logs byte-for-byte, pointing at the first divergent
/// entry (with a line of context) rather than dumping both streams.
fn assert_logs_identical(label_a: &str, log_a: &[String], label_b: &str, log_b: &[String]) {
    for (i, (a, b)) in log_a.iter().zip(log_b).enumerate() {
        assert_eq!(
            a, b,
            "effect streams {label_a} vs {label_b} diverge at entry {i}"
        );
    }
    assert_eq!(
        log_a.len(),
        log_b.len(),
        "effect streams {label_a} vs {label_b} differ in length after a \
         common prefix of {} entries",
        log_a.len().min(log_b.len())
    );
}

/// The chaos scenario replays into its golden effect stream: five
/// completed migrations under scripted faults. The soak's processes own no
/// sockets, so its bounded capture budget never sees a packet; the
/// capture-pressure path is pinned by `tests/oneip_golden.rs`.
#[test]
fn chaos_seed_matches_golden() {
    let (log, end) = replay();
    assert!(!log.is_empty(), "the soak scenario must produce effects");
    assert_eq!(Golden::of(&log, end), CHAOS_GOLDEN);
}

/// A broadcast-heavy scenario: UDP chatter from 48 clients to four game
/// servers, conductor heartbeats, and two concurrent live migrations under
/// the default unlimited capture budget. With `zoned`, each server's port
/// is mapped to its own zone, so inbound frames reach only the zone's
/// subscribers and the migrations move those subscriptions through
/// Subscribe/Unsubscribe effects.
fn chatter_replay(seed: u64, zoned: bool) -> (Vec<String>, SimTime) {
    let mut w = World::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    w.enable_effect_log();

    let mut nodes = Vec::new();
    let mut pids = Vec::new();
    let mut addrs = Vec::new();
    let usercmds = Rc::new(RefCell::new(0u64));
    for n in 0..4 {
        let node = w.add_server_node();
        let pid = w.spawn_process(
            node,
            &format!("oa{n}"),
            128,
            1024,
            Box::new(OaServer::new(usercmds.clone())),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + n as u16);
        w.app_udp_bind(node, pid, addr);
        if zoned {
            w.register_zone_interest(node, pid, addr.port, dvelm::net::ZoneId(n as u32));
        }
        nodes.push(node);
        pids.push(pid);
        addrs.push(addr);
    }
    for c in 0..48 {
        let ch = w.add_client_host();
        let addr = addrs[c % addrs.len()];
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let pid = w.spawn_process(ch, "cl", 16, 64, Box::new(OaClient::new(addr, arrivals)));
        w.app_udp_socket(ch, pid, Some(addr));
    }

    // Heartbeat broadcasts join the packet chatter.
    w.enable_load_balancing();
    w.run_for(SECOND);
    w.begin_migration(pids[0], nodes[2], Strategy::IncrementalCollective)
        .expect("migration 0 admitted");
    w.begin_migration(pids[1], nodes[3], Strategy::IncrementalCollective)
        .expect("migration 1 admitted");
    w.run_for(3 * SECOND);
    (w.effect_log().to_vec(), w.now())
}

/// The broadcast chatter scenario replays into its golden effect stream.
#[test]
fn chatter_replay_matches_golden() {
    let (log, end) = chatter_replay(SOAK_SEED ^ 0xbca5, false);
    assert!(
        !log.is_empty(),
        "the chatter scenario migrates under load; effects must flow"
    );
    assert_eq!(Golden::of(&log, end), CHATTER_GOLDEN);
}

/// The zoned chatter scenario replays into its golden effect stream:
/// multicast delivery sets, not just broadcast fan-out, are pinned.
#[test]
fn aoi_replay_matches_golden() {
    let (log, end) = chatter_replay(SOAK_SEED ^ 0xa01, true);
    assert!(
        log.iter().any(|l| l.contains("Subscribe")),
        "the zoned scenario must route subscriptions through the effect stream"
    );
    assert_eq!(Golden::of(&log, end), AOI_GOLDEN);
}
