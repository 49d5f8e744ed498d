//! The partition matrix (ISSUE 7): cut the network between sender and
//! receiver at every conductor phase, heal before or after the ownership
//! lease expires, and require the three safety properties the epoch-fenced
//! control plane guarantees:
//!
//! * **exactly one live owner** — after the heal settles, the migrating
//!   process exists on exactly one alive host, never zero, never two;
//! * **zero TCP payload bytes lost** — every update byte the zone server
//!   wrote before the measurement point eventually reaches the clients
//!   (the paper's packet-loss-prevention property, held across partitions);
//! * **a clean invariant monitor** — the always-on `dvelm-monitor`
//!   reconciliation sees no split brain, no lost process, no epoch
//!   regression at any point.
//!
//! The final test removes the fence (`WorldConfig::fence_enabled = false`)
//! and replays the nastiest cell — partition after the detach point, heal
//! after lease expiry — to show the monitor *catches* the split brain the
//! fence otherwise prevents: both sides end up running a copy, and the
//! monitor says so. The fence is not decorative.

use dvelm::dve::apps::UPDATE_BYTES;
use dvelm::dve::{SwarmClient, ZoneServer, ZONE_BASE_PORT};
use dvelm::lb::ConductorPhase;
use dvelm::migrate::AbortReason;
use dvelm::monitor::InvariantViolation;
use dvelm::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Heal delay that beats the 15 s ownership lease.
const HEAL_BEFORE_LEASE: u64 = 5 * SECOND;
/// Heal delay that outlives both the 10 s migration timeout and the lease:
/// the sender force-cancels and the receiver's reservation expires while
/// the cut is still up.
const HEAL_AFTER_LEASE: u64 = 20 * SECOND;

struct Scenario {
    w: World,
    n0: usize,
    n1: usize,
    zone: Pid,
    updates_sent: Rc<RefCell<u64>>,
    bytes_received: Rc<RefCell<u64>>,
}

/// Two server nodes and a client host outside the cut: a hot zone server
/// on `n0` (its CPU share alone trips the imbalance trigger) streaming
/// 20 Hz updates to a 4-connection swarm, so the conductor's chosen
/// migration target is exactly the process whose TCP bytes we audit.
fn build(seed: u64, fence_enabled: bool) -> Scenario {
    let mut w = World::new(WorldConfig {
        seed,
        fence_enabled,
        // Stretch control latency so short-lived phases (AwaitingAccept is
        // one request/accept round trip) are wide enough to partition.
        ctrl_latency_us: 20 * MILLISECOND,
        lb: PolicyConfig {
            // Shortened so a healed destination becomes eligible again —
            // and an aborted migration retried — inside the test window.
            blacklist_us: 5 * SECOND,
            calm_down_us: 3 * SECOND,
            retry_backoff_base_us: SECOND,
            ..PolicyConfig::default()
        },
        ..WorldConfig::default()
    });
    w.enable_monitor();

    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let ch = w.add_client_host();

    let mut server = ZoneServer::new();
    server.cpu_base = 40.0; // the obvious (and only worthwhile) candidate
    let updates_sent = server.updates_sent.clone();
    let zone = w.spawn_process(n0, "zone", 64, 1024, Box::new(server));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT);
    w.app_tcp_listen(n0, zone, addr);

    let client = SwarmClient::new();
    let bytes_received = client.bytes_received.clone();
    let swarm = w.spawn_process(ch, "swarm", 64, 256, Box::new(client));
    for _ in 0..4 {
        w.app_tcp_connect(ch, swarm, addr, false);
    }

    w.run_for(SECOND);
    w.enable_load_balancing();
    Scenario {
        w,
        n0,
        n1,
        zone,
        updates_sent,
        bytes_received,
    }
}

/// Step in 2 ms slices until `host`'s conductor satisfies `pred` (the
/// phase to cut at), failing loudly if 60 s pass without it.
fn run_until_phase(w: &mut World, host: usize, what: &str, pred: impl Fn(&ConductorPhase) -> bool) {
    let give_up = w.now() + 60 * SECOND;
    let mut deadline = w.now();
    loop {
        let phase = w.hosts[host].conductor.as_ref().expect("conductor").phase();
        if pred(&phase) {
            return;
        }
        assert!(
            deadline <= give_up,
            "{what}: conductor never reached the target phase (stuck at {phase:?})"
        );
        deadline += 2 * MILLISECOND;
        w.run_until(deadline);
    }
}

/// The post-heal acceptance shared by every cell: one owner, clean
/// monitor, and not a byte of the update stream missing.
fn assert_cell_safe(s: &mut Scenario, what: &str) {
    // Exactly one live copy of the zone process, anywhere.
    let owners =
        s.w.hosts
            .iter()
            .filter(|h| h.alive && h.procs.contains_key(&s.zone))
            .count();
    assert_eq!(owners, 1, "{what}: expected exactly one live owner");

    // The invariant monitor's reconciliation agrees nothing drifted.
    s.w.monitor_sweep();
    assert!(
        s.w.violations().is_empty(),
        "{what}: invariant violations after heal: {:?}",
        s.w.violations()
    );

    // Zero TCP payload bytes lost: everything the server wrote up to this
    // instant must eventually arrive (TCP + capture re-injection carry it
    // across freeze, abort and partition alike).
    let target = *s.updates_sent.borrow() * UPDATE_BYTES as u64;
    let mut waited = 0u64;
    while *s.bytes_received.borrow() < target {
        assert!(
            waited < 20 * SECOND,
            "{what}: update stream is missing bytes: sent {target}, \
             received {} after 20 s of settling",
            *s.bytes_received.borrow()
        );
        s.w.run_for(100 * MILLISECOND);
        waited += 100 * MILLISECOND;
    }
}

/// One matrix cell: drive to the phase, cut sender from receiver, heal
/// after `heal_us`, settle, and check the safety properties.
fn run_cell(
    seed: u64,
    heal_us: u64,
    what: &str,
    phase_host: impl Fn(&Scenario) -> usize,
    pred: impl Fn(&ConductorPhase) -> bool,
) {
    let mut s = build(seed, true);
    let host = phase_host(&s);
    run_until_phase(&mut s.w, host, what, pred);
    let (a, b) = (s.n0, s.n1);
    s.w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[a]), HostSet::of(&[b])],
        for_us: heal_us,
    });
    // Heal (≤ 20 s) + lease expiry + shortened blacklist/backoff + a full
    // retried transfer all fit comfortably in 40 s.
    s.w.run_for(40 * SECOND);
    assert_cell_safe(&mut s, what);
}

#[test]
fn partition_in_idle() {
    for (i, heal) in [HEAL_BEFORE_LEASE, HEAL_AFTER_LEASE]
        .into_iter()
        .enumerate()
    {
        run_cell(
            0x9a70 + i as u64,
            heal,
            "idle",
            |s| s.n0,
            |p| matches!(p, ConductorPhase::Idle),
        );
    }
}

#[test]
fn partition_in_awaiting_accept() {
    for (i, heal) in [HEAL_BEFORE_LEASE, HEAL_AFTER_LEASE]
        .into_iter()
        .enumerate()
    {
        let mut s = build(0x9a80 + i as u64, true);
        // Conductor messages ride the switch (µs-scale), so AwaitingAccept
        // is normally far narrower than any polling slice. Widen the accept
        // path — everything switched toward the sender — to 10 ms so the
        // 2 ms sampling loop can land inside the phase.
        let sender = NodeId(s.n0 as u32);
        s.w.switch
            .downlink_mut(sender)
            .expect("sender attached")
            .latency_us = 10 * MILLISECOND;
        run_until_phase(&mut s.w, s.n0, "awaiting-accept", |p| {
            matches!(p, ConductorPhase::AwaitingAccept { .. })
        });
        let (a, b) = (s.n0, s.n1);
        s.w.inject_fault(Fault::Partition {
            groups: [HostSet::of(&[a]), HostSet::of(&[b])],
            for_us: heal,
        });
        s.w.run_for(40 * SECOND);
        assert_cell_safe(&mut s, "awaiting-accept");
    }
}

#[test]
fn partition_in_sending() {
    for (i, heal) in [HEAL_BEFORE_LEASE, HEAL_AFTER_LEASE]
        .into_iter()
        .enumerate()
    {
        run_cell(
            0x9a90 + i as u64,
            heal,
            "sending",
            |s| s.n0,
            |p| matches!(p, ConductorPhase::Sending { .. }),
        );
    }
}

#[test]
fn partition_in_receiving() {
    for (i, heal) in [HEAL_BEFORE_LEASE, HEAL_AFTER_LEASE]
        .into_iter()
        .enumerate()
    {
        run_cell(
            0x9aa0 + i as u64,
            heal,
            "receiving",
            |s| s.n1,
            |p| matches!(p, ConductorPhase::Receiving { .. }),
        );
    }
}

#[test]
fn partition_in_calm_down() {
    for (i, heal) in [HEAL_BEFORE_LEASE, HEAL_AFTER_LEASE]
        .into_iter()
        .enumerate()
    {
        run_cell(
            0x9ab0 + i as u64,
            heal,
            "calm-down",
            |s| s.n0,
            |p| matches!(p, ConductorPhase::CalmDown { .. }),
        );
    }
}

/// The nastiest cell with the fence armed: the cut opens *after* the
/// detach point — the destination already holds the complete image — and
/// stays up past lease expiry, so the sender force-cancels and restores
/// on the source. The fence refuses the destination's stale restore, and
/// the world stays single-owner.
#[test]
fn fence_prevents_split_brain_past_detach() {
    let mut s = build(0x9ac0, true);
    run_until_phase(&mut s.w, s.n0, "fenced post-detach", |p| {
        matches!(p, ConductorPhase::Sending { .. })
    });
    let mig = s.w.migration_of(s.zone).expect("transfer in flight");
    let mut deadline = s.w.now();
    while s.w.migration_past_detach(mig) == Some(false) {
        deadline += 200;
        s.w.run_until(deadline);
    }
    assert_eq!(
        s.w.migration_past_detach(mig),
        Some(true),
        "the transfer completed before the cut could open"
    );
    let (a, b) = (s.n0, s.n1);
    s.w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[a]), HostSet::of(&[b])],
        for_us: HEAL_AFTER_LEASE,
    });
    s.w.run_for(40 * SECOND);
    assert_cell_safe(&mut s, "fenced post-detach");
}

/// The abort row for the fence itself: `AbortReason::FencedStaleEpoch` by
/// name, not merely a safe cell. The 20 s heal above never reaches the
/// fence — the sender's force-cancel ticks at ~15 s mid-partition and wins
/// with `TransferStalled`. Here the heal is aimed *into the fence window*:
/// the cut opens past detach and closes 1 µs after the destination's lease
/// expires, before the sender's next 500 ms conductor tick can cancel. The
/// woken transfer steps first, the destination refuses the stale-epoch
/// resume, and the fence is the component that reports the abort.
#[test]
fn fence_reports_stale_epoch_abort_by_name() {
    let mut s = build(0x9ae0, true);
    run_until_phase(&mut s.w, s.n0, "fence window", |p| {
        matches!(p, ConductorPhase::Sending { .. })
    });
    let mig = s.w.migration_of(s.zone).expect("transfer in flight");
    let mut deadline = s.w.now();
    while s.w.migration_past_detach(mig) == Some(false) {
        deadline += 200;
        s.w.run_until(deadline);
    }
    let phase = s.w.hosts[s.n0]
        .conductor
        .as_ref()
        .expect("conductor")
        .phase();
    let ConductorPhase::Sending { lease_until, .. } = phase else {
        panic!("sender must still be mid-transfer, got {phase:?}");
    };
    let (a, b) = (s.n0, s.n1);
    s.w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[a]), HostSet::of(&[b])],
        for_us: lease_until.saturating_since(s.w.now()) + 1,
    });
    s.w.run_for(40 * SECOND);
    match s.w.migration_outcome(mig) {
        Some(MigrationOutcome::Aborted { reason, .. }) => assert_eq!(
            reason,
            AbortReason::FencedStaleEpoch,
            "the fence, not the stall timeout, must be what stopped the resume"
        ),
        other => panic!("fenced transfer must abort at the fence, got {other:?}"),
    }
    assert_cell_safe(&mut s, "fence window");
}

/// The same scenario with the fence *disabled* is the control experiment:
/// the destination commits the image it already holds while the source
/// restores its own copy — a split brain — and the invariant monitor is
/// the component that catches it. This is the demonstration that the
/// epoch fence is load-bearing and the monitor is sharp enough to see
/// the failure the fence exists to prevent.
#[test]
fn monitor_catches_split_brain_when_fence_disabled() {
    let mut s = build(0x9ad0, false);
    run_until_phase(&mut s.w, s.n0, "unfenced post-detach", |p| {
        matches!(p, ConductorPhase::Sending { .. })
    });
    let mig = s.w.migration_of(s.zone).expect("transfer in flight");
    let mut deadline = s.w.now();
    while s.w.migration_past_detach(mig) == Some(false) {
        deadline += 200;
        s.w.run_until(deadline);
    }
    let (a, b) = (s.n0, s.n1);
    s.w.inject_fault(Fault::Partition {
        groups: [HostSet::of(&[a]), HostSet::of(&[b])],
        for_us: HEAL_AFTER_LEASE,
    });
    // Long enough for the sender's cancel (15 s: migration timeout and
    // lease both expired) to abort the stalled transfer mid-partition.
    s.w.run_for(18 * SECOND);

    let owners =
        s.w.hosts
            .iter()
            .filter(|h| h.alive && h.procs.contains_key(&s.zone))
            .count();
    assert_eq!(
        owners, 2,
        "without the fence, both sides must end up holding a copy"
    );
    let split = s.w.violations().iter().any(|v| {
        matches!(
            v,
            InvariantViolation::SplitBrain { pid, .. } if *pid == s.zone
        )
    });
    assert!(
        split,
        "the monitor must flag the duplicated process: {:?}",
        s.w.violations()
    );
}
