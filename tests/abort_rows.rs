//! The abort rows, pinned byte for byte: every way a migration can abort,
//! rendered as its full effect stream and compared with
//! `tests/abort_rows.golden`.
//!
//! Each case migrates a zone server that holds a registered zone (so the
//! stream carries `Subscribe`/`Unsubscribe`) and a MySQL session to an
//! in-cluster database (so it carries `SendXlate`/`RevokeXlate`), with a
//! 4-connection TCP swarm behind the WAN router.
//!
//! The engine's progress is one enum (`NotStarted`, `Precopy`, `Captured`,
//! `Detached`, `Finished`), and an abort's compensation follows from the
//! variant it finds. The golden's labels predate that enum and keep their
//! bytes: a label's `phase X` names the step the migration was waiting for.
//! The 18 cases, as (variant, event) pairs:
//!
//! | label | variant | event |
//! |---|---|---|
//! | external, phase Start | `NotStarted` | external abort |
//! | external, phase PrecopyIter | `Precopy` | external abort |
//! | external, phase CaptureRequest | `Precopy`, next step freezes | external abort |
//! | external, phase Detach | `Captured` | external abort |
//! | external, phase Restore | `Detached` | external abort |
//! | source dead after detach | `Detached` | source crash |
//! | destination dead after detach | `Detached` | destination crash |
//! | deadline at the first precopy round | `Precopy` | deadline |
//! | deadline at the capture step | `Precopy`, next step freezes | deadline |
//! | deadline at the detach step | `Captured` | deadline |
//! | deadline at the restore step | `Detached` | deadline |
//! | convergence guard | `Precopy` | guard |
//! | capture install refused | `Captured`, destination not subscribed | capture refusal |
//! | restore refused | `Detached`, restore begun | restore refusal |
//! | source dead at the first precopy round | `Precopy` | source crash |
//! | source dead at the capture step | `Captured` | source crash |
//! | destination dead at the first precopy round | `Precopy` | destination crash |
//! | destination dead at the capture step | `Captured` | destination crash |
//!
//! The next step from each variant is the fault-free reference run below.
//! The pairs not listed cannot occur, or add no row:
//!
//! * the deadline counts from the first step, so it cannot expire in
//!   `NotStarted`;
//! * only a precopy round measures its dirty diff, only the capture step
//!   arms hooks and only the restore step rehashes sockets, so the guard,
//!   a capture refusal and a restore refusal each meet one variant;
//! * a crash in `NotStarted` (between `begin_migration` and the first
//!   step, at the same instant) meets the arm of the external abort, which
//!   holds nothing; its recovery is picked by the source's liveness exactly
//!   as in the two crashes in `Precopy`;
//! * the world drops a migration's task when it finishes, so no event
//!   reaches `Finished`.
//!
//! The instants are read off one fault-free reference run of the same seed
//! (the world is deterministic, so every case replays it up to its fault).
//!
//! After each case the world runs one more second under the invariant
//! monitor, and the test checks what the abort left behind: no capture
//! entry and no translation rule on any live host, the zone subscribed by
//! exactly its owner (by nobody once the process is lost), the surviving
//! process not frozen, and no violation. TCP byte conservation across the
//! abort rows is asserted by `zone_handoff_matrix` and `partition_matrix`.

use dvelm::dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
use dvelm::migrate::{AbortReason, OverloadGuard};
use dvelm::net::ZoneId;
use dvelm::prelude::*;

const SEED: u64 = 0xab07;
const ZONE: ZoneId = ZoneId(3);

/// The world at the instant the migration begins, with the effect log and
/// the invariant monitor on: `(world, n0, n1, zone)`.
fn build(guard: OverloadGuard) -> (World, usize, usize, Pid) {
    let mut w = World::new(WorldConfig {
        seed: SEED,
        strategy: Strategy::Collective,
        overload_guard: guard,
        ..WorldConfig::default()
    });
    w.enable_effect_log();
    w.enable_monitor();
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let db = w.add_database_host();
    let ch = w.add_client_host();

    let mysqld = w.spawn_process(db, "mysqld", 64, 256, Box::new(DbServer::new()));
    let db_addr = SockAddr::new(w.hosts[db].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db, mysqld, db_addr);

    let zone = w.spawn_process(n0, "zone", 64, 1024, Box::new(ZoneServer::new()));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    w.app_tcp_listen(n0, zone, addr);
    w.register_zone_interest(n0, zone, addr.port, ZONE);
    w.app_tcp_connect(n0, zone, db_addr, true);

    let swarm = w.spawn_process(ch, "swarm", 64, 256, Box::new(SwarmClient::new()));
    for _ in 0..4 {
        w.app_tcp_connect(ch, swarm, addr, false);
    }
    w.run_for(SECOND);
    (w, n0, n1, zone)
}

/// Instant of the first (or, with `last`, the final) logged effect
/// containing `needle`.
fn instant(log: &[String], needle: &str, last: bool) -> u64 {
    let mut hits = log.iter().filter(|l| l.contains(needle));
    let line = if last { hits.next_back() } else { hits.next() }
        .unwrap_or_else(|| panic!("reference run never logged {needle}"));
    line.split("us ").next().unwrap().parse().unwrap()
}

/// The phase boundaries of the fault-free reference migration, µs.
struct Reference {
    start: u64,
    first_round: u64,
    last_round: u64,
    capture: u64,
    detach: u64,
    restore: u64,
}

fn reference() -> Reference {
    let (mut w, _, n1, zone) = build(OverloadGuard::DISABLED);
    w.begin_migration(zone, n1, Strategy::Collective).unwrap();
    w.run_for(3 * SECOND);
    assert_eq!(
        w.host_of(zone),
        Some(n1),
        "the reference migration completes"
    );
    let log = w.effect_log();
    Reference {
        start: instant(log, "PhaseEntered(PrecopyFull)", false),
        first_round: instant(log, "PhaseEntered(PrecopyIter)", false),
        last_round: instant(log, "PhaseEntered(PrecopyIter)", true),
        capture: instant(log, "PhaseEntered(FreezeCapture)", false),
        detach: instant(log, "PhaseEntered(FreezeDetach)", false),
        restore: instant(log, "PhaseEntered(Restore)", false),
    }
}

/// What ends a begun migration.
enum Trigger {
    /// `World::abort_migration`, at once or once the world ran to the
    /// instant.
    Abort(Option<u64>),
    /// The source (`true`) or destination host crashes at the instant.
    Crash(u64, bool),
    /// A fault on the source (`true`) or destination host, injected before
    /// the migration begins; the migration then aborts by itself.
    Armed(fn(usize) -> Fault, bool),
    /// Nothing: a guard aborts the migration.
    Run,
}
use Trigger::{Abort, Armed, Crash, Run};

/// Render one case: its label, then every effect of its migration.
fn render(label: &str, guard: OverloadGuard, trigger: Trigger) -> String {
    let (mut w, n0, n1, zone) = build(guard);
    let host = |source: bool| if source { n0 } else { n1 };
    if let Armed(fault, source) = trigger {
        w.inject_fault(fault(host(source)));
    }
    let mig = w.begin_migration(zone, n1, Strategy::Collective).unwrap();
    match trigger {
        Abort(at) => {
            if let Some(at) = at {
                w.run_until(SimTime::from_micros(at));
            }
            assert!(w.abort_migration(mig, AbortReason::TransferStalled));
        }
        Crash(at, source) => {
            w.run_until(SimTime::from_micros(at));
            w.inject_fault(Fault::NodeCrash { host: host(source) });
        }
        Armed(..) | Run => w.run_for(3 * SECOND),
    }
    assert!(
        matches!(
            w.migration_outcome(mig),
            Some(MigrationOutcome::Aborted { .. })
        ),
        "{label}: the migration must abort"
    );
    let tag = format!(" mig={mig} ");
    let mut out = format!("== {label}\n");
    for line in w.effect_log().iter().filter(|l| l.contains(&tag)) {
        out.push_str(line);
        out.push('\n');
    }
    assert_nothing_left_behind(label, &mut w, zone);
    out
}

/// What an abort must leave behind, checked one second after it (so every
/// revoked translation rule has landed): no capture entry and no
/// translation rule on any live host, the zone subscribed by exactly its
/// owner (nobody once the process is lost), the surviving process running,
/// and no invariant violation.
fn assert_nothing_left_behind(label: &str, w: &mut World, zone: Pid) {
    w.run_for(SECOND);
    w.monitor_sweep();
    for (h, host) in w.hosts.iter().enumerate().filter(|(_, h)| h.alive) {
        assert!(
            host.stack.capture.is_empty(),
            "{label}: host {h} keeps a capture entry"
        );
        assert_eq!(
            (host.stack.xlate.len(), host.stack.xlate.self_rule_count()),
            (0, 0),
            "{label}: host {h} keeps translation rules"
        );
    }
    let owner = w.host_of(zone);
    let subscribers: Vec<NodeId> = w
        .router
        .interest()
        .subscribers(ZONE)
        .map(|s| s.iter().copied().collect())
        .unwrap_or_default();
    let expected: Vec<NodeId> = owner.map(|h| w.hosts[h].stack.node).into_iter().collect();
    assert_eq!(subscribers, expected, "{label}: zone subscribers");
    if let Some(h) = owner {
        assert!(
            !w.hosts[h].procs[&zone].process.is_frozen(),
            "{label}: the surviving process stays frozen"
        );
    }
    assert!(w.violations().is_empty(), "{label}: {:?}", w.violations());
}

#[test]
fn fault_abort_rows_match_golden() {
    let r = reference();
    let off = OverloadGuard::DISABLED;
    let deadline = |at: u64| OverloadGuard {
        deadline_us: Some(at - r.start - 1),
        max_stagnant_rounds: None,
    };
    let stagnant = OverloadGuard {
        deadline_us: None,
        max_stagnant_rounds: Some(2),
    };
    let surge = |host| Fault::Overload {
        host,
        factor: 32,
        for_us: 0,
    };
    let refuse_capture = |host| Fault::CaptureInstallFail { host };
    let refuse_restore = |host| Fault::RestoreFail { host };
    let cases = [
        ("external, phase Start", off, Abort(None)),
        (
            "external, phase PrecopyIter",
            off,
            Abort(Some(r.first_round)),
        ),
        (
            "external, phase CaptureRequest",
            off,
            Abort(Some(r.last_round)),
        ),
        ("external, phase Detach", off, Abort(Some(r.capture))),
        ("external, phase Restore", off, Abort(Some(r.detach))),
        ("source dead after detach", off, Crash(r.detach, true)),
        ("destination dead after detach", off, Crash(r.detach, false)),
        (
            "deadline at the first precopy round",
            deadline(r.first_round),
            Run,
        ),
        ("deadline at the capture step", deadline(r.capture), Run),
        ("deadline at the detach step", deadline(r.detach), Run),
        ("deadline at the restore step", deadline(r.restore), Run),
        ("convergence guard", stagnant, Armed(surge, true)),
        ("capture install refused", off, Armed(refuse_capture, false)),
        ("restore refused", off, Armed(refuse_restore, false)),
        (
            "source dead at the first precopy round",
            off,
            Crash(r.first_round, true),
        ),
        (
            "source dead at the capture step",
            off,
            Crash(r.capture, true),
        ),
        (
            "destination dead at the first precopy round",
            off,
            Crash(r.first_round, false),
        ),
        (
            "destination dead at the capture step",
            off,
            Crash(r.capture, false),
        ),
    ];
    let rendered: String = cases
        .into_iter()
        .map(|(label, guard, trigger)| render(label, guard, trigger))
        .collect();
    let golden = include_str!("abort_rows.golden");
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(golden.lines().count()));
        panic!(
            "abort rows drifted from tests/abort_rows.golden at line {}:\n  now:    {:?}\n  golden: {:?}",
            first + 1,
            rendered.lines().nth(first),
            golden.lines().nth(first),
        );
    }
}
