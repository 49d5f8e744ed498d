//! Chaos soak: a seeded, deterministic long run mixing every fault the
//! cluster knows — crashes, loss bursts, kernel refusals, control
//! blackouts and traffic surges — on top of live load balancing, with all
//! overload protections armed (ISSUE 3).
//!
//! The soak's value is its per-tick invariants, checked a few thousand
//! times across the run:
//!
//! * **no process is lost unless its host died** — every spawned pid is on
//!   exactly one alive host, in transit, or accounted for by a crash (or
//!   survives only as a captured image in `World::lost_images`);
//! * **budgets hold** — active migrations never exceed the admission cap,
//!   the admission ledger agrees with the task table, and no capture queue
//!   ever exceeded its per-entry budget;
//! * **the world keeps running** — the clock advances and apps keep
//!   ticking through every injected disaster.

use dvelm::lb::AdmissionConfig;
use dvelm::migrate::OverloadGuard;
use dvelm::prelude::*;
use dvelm::stack::CaptureBudget;
use std::collections::HashSet;

const SOAK_SEED: u64 = 0x50a1;
const MIG_CAP: usize = 2;
const CAPTURE_PACKETS: usize = 64;
const CAPTURE_BYTES: usize = 256 * 1024;

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

#[test]
fn chaos_soak_holds_invariants() {
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
    w.enable_monitor();

    // Five server nodes: three overloaded, two light. The doomed node (n4)
    // hosts sacrificial processes and dies mid-run.
    let mut nodes = Vec::new();
    let mut pids = Vec::new();
    for n in 0..5 {
        let node = w.add_server_node();
        let (count, share) = match n {
            0..=2 => (5, 16.0),
            _ => (1, 6.0),
        };
        for i in 0..count {
            pids.push(w.spawn_process(
                node,
                &format!("w{n}-{i}"),
                16,
                512,
                Box::new(Worker {
                    share,
                    dirty: 20 + 7 * i,
                }),
            ));
        }
        nodes.push(node);
    }
    let doomed = nodes[4];

    w.run_for(500 * MILLISECOND);
    w.enable_load_balancing();

    // The disaster schedule, relative to t=0 (the world is ~0.5 s old when
    // balancing starts). Every fault family appears at least once.
    let crash_at = SimTime::from_secs(34);
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
        .at(crash_at, Fault::NodeCrash { host: doomed })
        .at(
            SimTime::from_secs(40),
            Fault::Overload {
                host: nodes[3],
                factor: 1,
                for_us: 0,
            },
        );
    w.install_fault_plan(plan);

    // 60 s of simulated time in 10 ms steps, invariants checked each step.
    let mut dead_ok: HashSet<Pid> = HashSet::new();
    let mut crash_handled = false;
    let mut deadline = w.now();
    let mut last_now = w.now();
    for step in 0..6_000 {
        deadline += 10 * MILLISECOND;
        w.run_until(deadline);

        // The clock must keep moving (no wedged event loop).
        let now = w.now();
        assert!(now >= last_now, "time went backwards at step {step}");
        last_now = now;

        // Track who lives on the doomed node; at the crash instant that
        // snapshot freezes into the set of excusable casualties.
        if w.hosts[doomed].alive {
            dead_ok = w.hosts[doomed].procs.keys().copied().collect();
        } else if !crash_handled {
            assert!(now >= crash_at, "the crash cannot fire early");
            crash_handled = true;
        }

        // Invariant 1: every process is on an alive host, in transit, or
        // accounted for by the crash.
        for pid in &pids {
            let placed = w.host_of(*pid).is_some()
                || w.migration_of(*pid).is_some()
                || (crash_handled && dead_ok.contains(pid))
                || w.lost_images.iter().any(|p| p.pid == *pid);
            assert!(placed, "process {pid:?} vanished at step {step} ({now:?})");
        }

        // Invariant 2: budgets hold.
        let usage = w.resource_usage();
        assert!(
            usage.active_migrations <= MIG_CAP,
            "admission cap violated at step {step}: {usage:?}"
        );
        for h in &w.hosts {
            if !h.alive {
                continue;
            }
            let stats = h.stack.capture.stats();
            assert!(
                stats.peak_queued_packets <= CAPTURE_PACKETS as u64,
                "capture packet budget exceeded at step {step}: {stats:?}"
            );
            assert!(
                stats.peak_queued_bytes <= CAPTURE_BYTES as u64,
                "capture byte budget exceeded at step {step}: {stats:?}"
            );
        }

        // Invariant 3: the always-on monitor's view agrees — exactly one
        // owner per pid, nothing lost on an alive host, budgets respected.
        w.monitor_sweep();
        assert!(
            w.violations().is_empty(),
            "invariant monitor flagged the soak at step {step}: {:?}",
            w.violations()
        );
    }

    // The run saw real action: the crash fired, processes survived on the
    // remaining nodes, and the cluster still balanced load throughout.
    assert!(crash_handled, "the scripted crash was reached");
    let placed = pids.iter().filter(|p| w.host_of(**p).is_some()).count();
    let in_transit = pids
        .iter()
        .filter(|p| w.host_of(**p).is_none() && w.migration_of(**p).is_some())
        .count();
    let excused = pids
        .iter()
        .filter(|p| w.host_of(**p).is_none() && w.migration_of(**p).is_none())
        .count();
    assert_eq!(
        placed + in_transit + excused,
        pids.len(),
        "process accounting must close"
    );
    assert!(
        excused <= dead_ok.len(),
        "only the doomed node's residents may be gone: {excused} missing, \
         {} excusable",
        dead_ok.len()
    );
    assert!(
        !w.reports.is_empty(),
        "the conductors migrated something during the soak"
    );
    // Per-world determinism: the same seed must reproduce the same world.
    assert_eq!(w.now(), last_now);
}

/// The partition-family soak (ISSUE 7): network partitions plus unreliable
/// control delivery — loss, duplication, reordering — on top of live load
/// balancing, with the epoch fence armed and the invariant monitor checked
/// every 10 ms. No process may be lost or duplicated no matter how the
/// control plane misbehaves, because no host dies in this run.
#[test]
fn partition_soak_holds_invariants() {
    let mut w = World::new(WorldConfig {
        seed: SOAK_SEED ^ 0x9a27,
        admission: AdmissionConfig {
            max_cluster_migrations: MIG_CAP,
            max_node_migrations: 1,
            max_inflight_image_bytes: 256 * 1024 * 1024,
        },
        capture_budget: CaptureBudget::bounded(CAPTURE_PACKETS, CAPTURE_BYTES),
        ..WorldConfig::default()
    });
    w.enable_monitor();

    let mut nodes = Vec::new();
    let mut pids = Vec::new();
    for n in 0..5 {
        let node = w.add_server_node();
        let (count, share) = match n {
            0..=2 => (5, 16.0),
            _ => (1, 6.0),
        };
        for i in 0..count {
            pids.push(w.spawn_process(
                node,
                &format!("w{n}-{i}"),
                16,
                512,
                Box::new(Worker {
                    share,
                    dirty: 20 + 7 * i,
                }),
            ));
        }
        nodes.push(node);
    }

    w.run_for(500 * MILLISECOND);
    w.enable_load_balancing();

    // Control-plane chaos from the start, partitions opening and healing
    // while migrations are in flight. The second partition overlaps the
    // first's heal, and a lossy+duplicating+reordering window spans both.
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(2),
            Fault::CtrlLoss {
                pct: 15,
                for_us: 20 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(2),
            Fault::CtrlDup {
                pct: 20,
                for_us: 25 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(2),
            Fault::CtrlReorder {
                pct: 20,
                max_extra_us: 150_000,
                for_us: 25 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(5),
            Fault::Partition {
                groups: [
                    HostSet::of(&[nodes[0], nodes[1]]),
                    HostSet::of(&[nodes[2], nodes[3], nodes[4]]),
                ],
                for_us: 8 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(11),
            Fault::Partition {
                groups: [HostSet::of(&[nodes[0], nodes[2]]), HostSet::of(&[nodes[4]])],
                for_us: 6 * SECOND,
            },
        )
        .at(
            SimTime::from_secs(22),
            Fault::Partition {
                groups: [
                    HostSet::of(&[nodes[0]]),
                    HostSet::of(&[nodes[1], nodes[2], nodes[3], nodes[4]]),
                ],
                for_us: 5 * SECOND,
            },
        );
    w.install_fault_plan(plan);

    // 40 s in 10 ms steps, monitor reconciled each step. Every pid must
    // stay placed (or in transit) the whole way — there is no crash to
    // excuse a loss here.
    let mut deadline = w.now();
    for step in 0..4_000 {
        deadline += 10 * MILLISECOND;
        w.run_until(deadline);

        for pid in &pids {
            let placed = w.host_of(*pid).is_some() || w.migration_of(*pid).is_some();
            assert!(placed, "process {pid:?} vanished at step {step}");
        }
        let usage = w.resource_usage();
        assert!(
            usage.active_migrations <= MIG_CAP,
            "admission cap violated at step {step}: {usage:?}"
        );

        w.monitor_sweep();
        assert!(
            w.violations().is_empty(),
            "invariant monitor flagged the partition soak at step {step}: {:?}",
            w.violations()
        );
    }

    assert!(
        !w.reports.is_empty(),
        "the conductors migrated something during the partition soak"
    );
    // Time healed every partition; the cluster is whole again and still
    // balancing (heartbeats resumed flowing across the former cut).
    assert!(w.now() >= SimTime::from_secs(40));
}
