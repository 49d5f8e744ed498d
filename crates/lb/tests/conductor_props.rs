//! Property tests of the conductor protocol: whatever sequence of load
//! changes and message deliveries occurs, the two-phase commit must keep its
//! invariants.

use dvelm_lb::{Conductor, ConductorPhase, LbEffect, LbMsg, LoadInfo, PolicyConfig};
use dvelm_net::NodeId;
use dvelm_proc::Pid;
use dvelm_sim::{DetRng, SimTime};
use proptest::prelude::*;

/// A randomized cluster of conductors with an instantaneous bus.
struct Cluster {
    conds: Vec<Conductor>,
    loads: Vec<f64>,
    now: SimTime,
    /// Receivers currently reserved (phase == Receiving) — at most one
    /// migration may target each at any time.
    active_migrations: Vec<(usize, usize)>, // (sender, receiver)
}

impl Cluster {
    fn new(n: usize, loads: Vec<f64>) -> Cluster {
        let conds = (0..n)
            .map(|i| Conductor::new(NodeId(i as u32), PolicyConfig::default()))
            .collect();
        let mut c = Cluster {
            conds,
            loads,
            now: SimTime::from_secs(1),
            active_migrations: Vec::new(),
        };
        // Discovery.
        for i in 0..n {
            let li = c.local(i);
            let effects = c.conds[i].on_start(li);
            c.dispatch(i, effects);
        }
        c
    }

    fn local(&self, i: usize) -> LoadInfo {
        LoadInfo::new(NodeId(i as u32), self.loads[i], 20, self.now)
    }

    fn dispatch(&mut self, from: usize, effects: Vec<LbEffect>) {
        let mut queue: Vec<(usize, LbEffect)> = effects.into_iter().map(|a| (from, a)).collect();
        while let Some((src, action)) = queue.pop() {
            match action {
                LbEffect::Broadcast(msg) => {
                    for i in 0..self.conds.len() {
                        if i != src {
                            let li = self.local(i);
                            let out = self.conds[i].on_msg(self.now, NodeId(src as u32), msg, li);
                            queue.extend(out.into_iter().map(|a| (i, a)));
                        }
                    }
                }
                LbEffect::Send(to, msg) => {
                    let i = to.0 as usize;
                    let li = self.local(i);
                    let out = self.conds[i].on_msg(self.now, NodeId(src as u32), msg, li);
                    queue.extend(out.into_iter().map(|a| (i, a)));
                }
                LbEffect::StartMigration { dest, .. } => {
                    self.active_migrations.push((src, dest.0 as usize));
                }
                LbEffect::CancelMigration { .. } => {
                    // The sender gave up (migration timeout + lease expiry):
                    // the daemon aborts and reports failure.
                    if let Some(idx) = self.active_migrations.iter().position(|(s, _)| *s == src) {
                        self.active_migrations.swap_remove(idx);
                    }
                    let out = self.conds[src].on_migration_finished(self.now, false);
                    queue.extend(out.into_iter().map(|a| (src, a)));
                }
            }
        }
    }

    fn tick(&mut self, i: usize) {
        let li = self.local(i);
        let procs: Vec<(Pid, f64)> = (0..20)
            .map(|k| (Pid((i * 100 + k) as u64), self.loads[i] / 20.0))
            .collect();
        let effects = self.conds[i].on_tick(self.now, li, &procs);
        self.dispatch(i, effects);
    }

    fn finish_migration(&mut self, idx: usize, rng: &mut DetRng) {
        let (sender, receiver) = self.active_migrations.swap_remove(idx);
        // Move ~the excess load.
        let delta = (self.loads[sender] - self.loads[receiver]).max(0.0) / 2.0;
        self.loads[sender] -= delta;
        self.loads[receiver] += delta;
        let success = rng.chance(0.9);
        let effects = self.conds[sender].on_migration_finished(self.now, success);
        self.dispatch(sender, effects);
    }

    fn check_invariants(&self) {
        // At most one in-flight migration per receiver and per sender.
        let mut receivers = std::collections::HashSet::new();
        let mut senders = std::collections::HashSet::new();
        for (s, r) in &self.active_migrations {
            assert!(
                senders.insert(*s),
                "sender {s} started two concurrent migrations"
            );
            assert!(receivers.insert(*r), "receiver {r} reserved twice");
            assert_ne!(s, r, "self-migration");
        }
        // Phase consistency: every active migration's endpoints are in the
        // matching phases.
        for (s, r) in &self.active_migrations {
            assert!(
                matches!(self.conds[*s].phase(), ConductorPhase::Sending { .. }),
                "sender {s} not in Sending"
            );
            assert!(
                matches!(self.conds[*r].phase(), ConductorPhase::Receiving { .. }),
                "receiver {r} not in Receiving"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of ticks, load swings and migration completions
    /// never violate the 2-phase-commit invariants, and the cluster never
    /// deadlocks (ticks keep being answerable).
    #[test]
    fn two_phase_commit_invariants(
        seed in 0u64..10_000,
        steps in proptest::collection::vec((0usize..5, 0u8..4), 10..120),
    ) {
        let mut rng = DetRng::new(seed);
        let loads: Vec<f64> = (0..5).map(|_| rng.range_f64(40.0, 98.0)).collect();
        let mut cluster = Cluster::new(5, loads);
        for (node, op) in steps {
            cluster.now += 300_000; // 0.3 s per step
            match op {
                // Tick one conductor.
                0 | 1 => cluster.tick(node),
                // Load swing.
                2 => {
                    let delta = rng.range_f64(-15.0, 15.0);
                    cluster.loads[node] = (cluster.loads[node] + delta).clamp(5.0, 100.0);
                }
                // Finish an in-flight migration, if any.
                _ => {
                    if !cluster.active_migrations.is_empty() {
                        let idx = rng.index(cluster.active_migrations.len());
                        cluster.finish_migration(idx, &mut rng);
                    }
                }
            }
            cluster.check_invariants();
        }
        // Drain: finish everything; all conductors settle into a
        // non-reserved phase.
        let mut rng2 = DetRng::new(seed ^ 0xABCD);
        while !cluster.active_migrations.is_empty() {
            cluster.finish_migration(0, &mut rng2);
        }
        cluster.check_invariants();
        for c in &cluster.conds {
            prop_assert!(
                !matches!(c.phase(), ConductorPhase::Sending { .. } | ConductorPhase::Receiving { .. }),
                "stuck in {:?}",
                c.phase()
            );
        }
    }

    /// Heartbeats alone (no load imbalance) never trigger migrations.
    #[test]
    fn balanced_loads_stay_quiet(seed in 0u64..10_000, ticks in 5usize..50) {
        let mut rng = DetRng::new(seed);
        let base = rng.range_f64(40.0, 80.0);
        let loads: Vec<f64> = (0..4).map(|_| base + rng.range_f64(-2.0, 2.0)).collect();
        let mut cluster = Cluster::new(4, loads);
        for t in 0..ticks {
            cluster.now += 400_000;
            cluster.tick(t % 4);
        }
        prop_assert!(cluster.active_migrations.is_empty());
    }

    /// A lone overloaded node with at least one light peer always initiates
    /// within two full tick rounds.
    #[test]
    fn overload_is_always_acted_on(seed in 0u64..10_000) {
        let mut rng = DetRng::new(seed);
        let mut loads = vec![97.0];
        loads.extend((0..3).map(|_| rng.range_f64(20.0, 60.0)));
        let mut cluster = Cluster::new(4, loads);
        for round in 0..2 {
            for i in 0..4 {
                cluster.now += 300_000;
                cluster.tick(i);
            }
            if cluster.active_migrations.iter().any(|(s, _)| *s == 0) {
                break;
            }
            prop_assert!(round == 0, "no migration after two rounds");
        }
        // The hot node is among the senders (other nodes above avg+delta may
        // legitimately initiate too).
        prop_assert!(
            cluster.active_migrations.iter().any(|(s, _)| *s == 0),
            "the overloaded node never initiated: {:?}",
            cluster.active_migrations
        );
    }
}

/// A recorded, valid control trace addressed to one conductor (node 2):
/// discovery, gossip, a full migration it receives, and a competing request
/// it turns down.
fn valid_trace() -> Vec<(NodeId, LbMsg)> {
    let t = SimTime::from_secs(1);
    let li = |n: u32, cpu: f64| LoadInfo::new(NodeId(n), cpu, 20, t);
    vec![
        (NodeId(0), LbMsg::Hello(li(0, 95.0))),
        (NodeId(1), LbMsg::Hello(li(1, 90.0))),
        (NodeId(0), LbMsg::Heartbeat(li(0, 96.0))),
        (NodeId(1), LbMsg::Heartbeat(li(1, 91.0))),
        (
            NodeId(0),
            LbMsg::MigRequest {
                pid: Pid(100),
                epoch: 1,
                share: 10.0,
                sender_load: 96.0,
            },
        ),
        (
            NodeId(0),
            LbMsg::MigDone {
                pid: Pid(100),
                epoch: 1,
                success: true,
            },
        ),
        (
            NodeId(1),
            LbMsg::MigRequest {
                pid: Pid(200),
                epoch: 1,
                share: 9.0,
                sender_load: 91.0,
            },
        ),
        (NodeId(1), LbMsg::Heartbeat(li(1, 88.0))),
    ]
}

/// Messages whose relative order the shuffle must preserve: the migration
/// protocol itself plus discovery (a Hello feeds the admission decision's
/// cluster average — learning a peer only after its request arrives is a
/// genuinely different world, not an equivalent reordering). Heartbeats
/// float freely: newest-wins peer samples keep the decision stable.
fn is_ordered(msg: &LbMsg) -> bool {
    !matches!(msg, LbMsg::Heartbeat(_))
}

/// Deliver a trace to a fresh conductor (node 2, lightly loaded) at a fixed
/// instant; return its final phase and stats.
fn replay(trace: &[(NodeId, LbMsg)]) -> (ConductorPhase, dvelm_lb::LbStats) {
    let mut c = Conductor::new(NodeId(2), PolicyConfig::default());
    let t = SimTime::from_secs(1);
    for (from, msg) in trace {
        let li = LoadInfo::new(NodeId(2), 40.0, 20, t);
        c.on_msg(t, *from, *msg, li);
    }
    (c.phase(), c.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: duplicating any message and reordering gossip around the
    /// migration protocol never changes where the conductor ends up.
    /// Protocol and membership messages keep their relative order (the
    /// protocol fences stale *epochs*, not arbitrary causality inversions
    /// within one negotiation), but heartbeats float freely between them and
    /// every message may be delivered again at any later point.
    #[test]
    fn duplicated_reordered_trace_converges(
        keys in proptest::collection::vec(0u64..1_000_000, 8),
        dups in proptest::collection::vec((0usize..8, 0usize..20), 0..8),
    ) {
        let trace = valid_trace();
        let baseline = replay(&trace);

        // Permute by random key, stable so equal keys keep input order.
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        // Restore the relative order of the ordered class: its slots stay
        // where the shuffle put them, but the messages flow into those slots
        // in original order.
        let slots: Vec<usize> = (0..order.len())
            .filter(|&s| is_ordered(&trace[order[s]].1))
            .collect();
        let mut msgs: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| is_ordered(&trace[i].1))
            .collect();
        msgs.sort_unstable();
        for (slot, msg) in slots.into_iter().zip(msgs) {
            order[slot] = msg;
        }
        let mut shuffled: Vec<(NodeId, LbMsg)> = order.iter().map(|&i| trace[i]).collect();

        // Duplicate messages at arbitrary delivery points after (a copy of)
        // the original.
        for (orig, offset) in dups {
            let pos = shuffled.iter().position(|m| *m == trace[orig]).unwrap();
            let at = (pos + 1 + offset).min(shuffled.len());
            shuffled.insert(at, trace[orig]);
        }

        prop_assert_eq!(replay(&shuffled), baseline);
    }
}

#[test]
fn spanning_tree_heartbeats_reach_everyone_with_bounded_fanout() {
    use dvelm_lb::Dissemination;

    // 9 conductors in tree mode, full peer knowledge (post-discovery).
    let n = 9;
    let mut conds: Vec<Conductor> = (0..n)
        .map(|i| {
            let mut c = Conductor::new(NodeId(i as u32), PolicyConfig::default());
            c.dissemination = Dissemination::SpanningTree;
            c
        })
        .collect();
    let t = SimTime::from_secs(1);
    for (i, cond) in conds.iter_mut().enumerate() {
        for j in 0..n {
            if i != j {
                cond.peers
                    .update(LoadInfo::new(NodeId(j as u32), 50.0, 20, t));
            }
        }
    }

    // Node 4 heartbeats; relay messages until quiescent, tracking per-node
    // transmit counts and who has node 4's fresh sample.
    let t2 = SimTime::from_secs(2);
    let li4 = LoadInfo::new(NodeId(4), 77.0, 20, t2);
    let origin_actions = conds[4].on_tick(t2, li4, &[]);
    let mut sends = vec![0usize; n];
    let mut received = std::collections::HashSet::new();
    let mut queue: Vec<(usize, LbEffect)> =
        origin_actions.into_iter().map(|a| (4usize, a)).collect();
    while let Some((src, action)) = queue.pop() {
        match action {
            LbEffect::Send(to, msg @ LbMsg::Heartbeat(_)) => {
                sends[src] += 1;
                assert!(received.insert(to), "{to} received twice");
                let i = to.0 as usize;
                let li = LoadInfo::new(to, 50.0, 20, t2);
                let out = conds[i].on_msg(t2, NodeId(src as u32), msg, li);
                queue.extend(out.into_iter().map(|a| (i, a)));
            }
            LbEffect::Broadcast(_) => panic!("tree mode must not flat-broadcast"),
            _ => {}
        }
    }
    assert_eq!(received.len(), n - 1, "everyone got the heartbeat");
    assert!(
        sends.iter().all(|s| *s <= 2),
        "fan-out bounded by 2: {sends:?}"
    );
    // Every conductor now has node 4's fresh sample.
    for (i, c) in conds.iter().enumerate() {
        if i != 4 {
            assert_eq!(c.peers.get(NodeId(4)).unwrap().cpu_pct, 77.0, "node {i}");
        }
    }
}
