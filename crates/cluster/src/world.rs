//! The event-driven cluster world.

use crate::app::{App, AppCtx};
use crate::event::Event;
use crate::host::{Host, HostKind, ProcEntry};
use dvelm_faults::{CtrlDir, Fault, FaultPlan, HostSet};
use dvelm_lb::{
    AdmissionConfig, AdmissionControl, Conductor, LbEffect, LbMsg, LoadInfo, PolicyConfig,
    StrategyPreference,
};
use dvelm_metrics::TraceRecorder;
use dvelm_migrate::{
    AbortIo, AbortReason, AbortRecovery, CostModel, Effect, EffectBuf, MigrationAborted,
    MigrationEngine, OverloadGuard, PhaseId, Side, StepIo, Strategy,
};
use dvelm_monitor::{InvariantMonitor, InvariantViolation};
use dvelm_net::{
    BroadcastRouter, ClusterSwitch, Fanout, Ip, LossModel, NodeId, Port, RouteError, SockAddr,
    ZoneId,
};
use dvelm_proc::{Fd, FdEntry, Pid, Process, PAGE_SIZE};
use dvelm_sim::{DetRng, DispatchKey, Scheduler, SimTime};
use dvelm_stack::{
    CaptureBudget, CaptureKey, ClaimChanges, HostStack, PressureKind, RxGroup, Segment, SockId,
    StackEffect, TimerFire, XlateRule,
};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// A migration task identifier.
pub type MigId = u64;

/// World-level tunables.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub seed: u64,
    pub cost: CostModel,
    pub lb: PolicyConfig,
    /// Socket-migration strategy used by conductor-initiated migrations.
    pub strategy: Strategy,
    /// One-way latency of control messages (xlate requests, lb messages), µs.
    pub ctrl_latency_us: u64,
    /// Cluster-wide migration admission budgets (default: unlimited — the
    /// paper-prototype behaviour).
    pub admission: AdmissionConfig,
    /// Per-migration overload guard (deadline + precopy convergence);
    /// default disabled.
    pub overload_guard: OverloadGuard,
    /// Capture-queue budget installed on every host stack; default
    /// unlimited.
    pub capture_budget: CaptureBudget,
    /// When set, translation rules unused for this long are periodically
    /// evicted (default `None`: rules live until revoked).
    pub xlate_gc_ttl_us: Option<u64>,
    /// Epoch fencing of migration restores (default on). When enabled, a
    /// destination refuses to commit a restore whose (pid, epoch) no longer
    /// matches a live reservation lease — the guarantee that a partition
    /// heal can never yield two running copies of one process. Disabling it
    /// reproduces the unfenced protocol so tests can demonstrate the
    /// invariant monitor catching the resulting split-brain.
    pub fence_enabled: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0xd0e5,
            cost: CostModel::default(),
            lb: PolicyConfig::default(),
            strategy: Strategy::IncrementalCollective,
            ctrl_latency_us: 75,
            admission: AdmissionConfig::UNLIMITED,
            overload_guard: OverloadGuard::DISABLED,
            capture_budget: CaptureBudget::UNLIMITED,
            xlate_gc_ttl_us: None,
            fence_enabled: true,
        }
    }
}

struct MigTask {
    engine: MigrationEngine,
    src: usize,
    dst: usize,
    pid: Pid,
    /// The checkpoint-image bytes admission budgeted for this migration.
    image_bytes: u64,
    /// Folds the engine's effect stream into the migration's report and
    /// phase timeline (the trace spine).
    recorder: TraceRecorder,
}

/// How the process of an aborted migration fared — the payload-free mirror
/// of [`AbortRecovery`] (which carries the surviving [`Process`] image),
/// suitable for querying after the fact via
/// [`World::migration_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Precopy abort: the source copy never stopped running.
    SourceKeptRunning,
    /// Freeze-phase abort before detach: the frozen source copy resumed.
    ResumedOnSource,
    /// Post-detach abort: sockets reinstalled and process restored on the
    /// source from the captured image; captured packets drained into it.
    RestoredOnSource,
    /// The source died too: only the captured image survived (kept in
    /// [`World::lost_images`], cold-restartable elsewhere).
    ImageOnly,
    /// Nothing survives.
    Lost,
}

impl From<&AbortRecovery> for Recovery {
    fn from(r: &AbortRecovery) -> Recovery {
        match r {
            AbortRecovery::SourceKeptRunning => Recovery::SourceKeptRunning,
            AbortRecovery::ResumedOnSource => Recovery::ResumedOnSource,
            AbortRecovery::RestoredOnSource(_) => Recovery::RestoredOnSource,
            AbortRecovery::ImageOnly(_) => Recovery::ImageOnly,
            AbortRecovery::Lost => Recovery::Lost,
        }
    }
}

/// Terminal state of a migration, kept per [`MigId`] after the task is
/// gone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationOutcome {
    /// The migration completed; its report is `World::reports[report]`.
    Completed { report: usize },
    /// The migration aborted in `phase` because of `reason`; its report
    /// (with [`is_aborted`](dvelm_migrate::MigrationReport::is_aborted) set)
    /// is also in `World::reports`.
    Aborted {
        phase: PhaseId,
        reason: AbortReason,
        recovery: Recovery,
    },
}

impl MigrationOutcome {
    /// Whether the migration completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, MigrationOutcome::Completed { .. })
    }
}

/// Snapshot of the resources bounded by the overload machinery (see
/// [`World::resource_usage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Migrations currently admitted and in flight.
    pub active_migrations: usize,
    /// Checkpoint-image bytes in flight, summed over all destinations.
    pub inflight_image_bytes: u64,
    /// Packets parked in capture queues, cluster-wide.
    pub queued_capture_packets: u64,
    /// Bytes parked in capture queues, cluster-wide.
    pub queued_capture_bytes: u64,
    /// Hosts currently under a [`Fault::Overload`] surge.
    pub surged_hosts: usize,
}

/// Conductor tick period, µs.
const CONDUCTOR_TICK_US: u64 = 500_000;

/// Delay between data becoming readable and the app consuming it, µs.
const APP_READ_DELAY_US: u64 = 100;

/// Freelist cap for the pooled effect/arrival buffers: enough for any
/// realistic re-entrancy depth while keeping the idle memory bounded (some
/// callers hand the pool vectors the stack allocated itself).
const FX_POOL_CAP: usize = 32;

/// One transmitted-frame record (the tcpdump of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketLogEntry {
    pub at: SimTime,
    pub from_host: usize,
    pub src: SockAddr,
    pub dst: SockAddr,
    pub bytes: u64,
}

/// The simulated cluster.
pub struct World {
    pub cfg: WorldConfig,
    pub sched: Scheduler<Event>,
    pub hosts: Vec<Host>,
    pub router: BroadcastRouter,
    pub switch: ClusterSwitch,
    pub rng: DetRng,
    migrations: BTreeMap<MigId, MigTask>,
    /// The in-flight migration of each migrating pid (kept in sync with
    /// `migrations`): the duplicate check in
    /// [`begin_migration`](World::begin_migration) and
    /// [`migration_of`](World::migration_of) both read it.
    migrating: BTreeMap<Pid, MigId>,
    next_mig: MigId,
    next_pid: u64,
    /// Terminal state of every finished migration, by id.
    outcomes: BTreeMap<MigId, MigrationOutcome>,
    /// Process images orphaned by aborts whose source host died (sockets
    /// lost, BLCR semantics); cold-restart fodder.
    pub lost_images: Vec<Process>,
    /// Hosts whose conductor is dark on control messages until the instant,
    /// in the recorded direction ([`Fault::CtrlBlackout`]).
    ctrl_dark_until: BTreeMap<usize, (CtrlDir, SimTime)>,
    /// Active network partitions ([`Fault::Partition`]), by installation
    /// generation. Overlapping partitions compose: a frame is dropped if
    /// *any* active partition separates its endpoints, and each heals on
    /// its own [`Event::PartitionHeal`].
    partitions: BTreeMap<u64, [HostSet; 2]>,
    next_partition_gen: u64,
    /// Migrations parked because their endpoints are partitioned. No
    /// polling: [`on_migration_step`](World::on_migration_step) parks a
    /// step that finds the path cut, and the heal event re-schedules it —
    /// a fault-free run never touches this set.
    stalled_migs: BTreeSet<MigId>,
    /// Unreliable control delivery windows ([`Fault::CtrlLoss`] /
    /// [`Fault::CtrlDup`] / [`Fault::CtrlReorder`]): `(pct, until)` and,
    /// for reorder, the max extra delay. The RNG is only consulted while a
    /// window is open, so fault-free runs draw nothing and stay
    /// byte-identical.
    ctrl_loss: Option<(u32, SimTime)>,
    ctrl_dup: Option<(u32, SimTime)>,
    ctrl_reorder: Option<(u32, u64, SimTime)>,
    /// The always-on invariant monitor (`None` until
    /// [`enable_monitor`](World::enable_monitor); every hook site is one
    /// `if let` on this option, so a disabled monitor costs nothing and an
    /// enabled one never schedules events or draws RNG).
    monitor: Option<InvariantMonitor>,
    /// The migration admission gate (semaphores + image-byte budgets),
    /// checked against `migrations` in
    /// [`begin_migration`](World::begin_migration).
    admission: AdmissionControl,
    /// Hosts under a traffic surge ([`Fault::Overload`]): tick-rate
    /// multiplier per host index.
    surge: BTreeMap<usize, u32>,
    /// Generation of the surge currently installed per host; a scheduled
    /// [`Event::SurgeRestore`] only clears the surge if its generation
    /// still matches (a newer surge invalidates older timed restores).
    surge_gen: BTreeMap<usize, u64>,
    next_surge_gen: u64,
    /// Monotonic stamp for `Event::AppTick` chains (see
    /// [`Event::AppTick`]).
    next_tick_gen: u64,
    /// Completed migration reports, derived from each task's recorder.
    pub reports: Vec<dvelm_migrate::MigrationReport>,
    /// Transmit log (when a filter is enabled).
    pub packet_log: Vec<PacketLogEntry>,
    log_port: Option<Port>,
    /// Rendered migration effect stream (when enabled): one line per effect.
    effect_log: Option<Vec<String>>,
    /// Frames the router could not route (unknown client/node — a crashed
    /// or departed endpoint raced an in-flight frame). Each one also lands
    /// in the effect log when enabled.
    route_errors: u64,
    /// Outbound frames dropped because their client host departed
    /// gracefully while the frame was in flight. A benign race, counted
    /// separately so tests can assert `route_errors == 0` under churn.
    benign_route_races: u64,
    /// Zone interest per process: pid → (inbound port, zone) pairs, one
    /// per zone the process serves. Source of truth for which zones follow
    /// a pid through a migration ([`begin_migration`](World::begin_migration)
    /// copies them into the engine) and for the monitor's
    /// subscription-leak sweep.
    zone_interest: BTreeMap<Pid, Vec<(Port, ZoneId)>>,
    /// Owning pid per zone (a zone is served by exactly one process).
    zone_owner: BTreeMap<ZoneId, Pid>,
    /// Which migration installed each capture entry, by (dst host, key).
    /// Two concurrent migrations into one host can share a capture key —
    /// `CaptureTable::enable` is idempotent — so pressure events must be
    /// attributed by this index, not by scanning for any migration whose
    /// key set contains the key (the first-match scan charged siblings).
    capture_owner: BTreeMap<(usize, CaptureKey), MigId>,
    /// Client hosts that departed gracefully ([`detach_client_host`]
    /// (World::detach_client_host)); outbound frames to them are dropped as
    /// benign races instead of router errors.
    departed_clients: BTreeSet<usize>,
    /// Reusable broadcast fan-out buffer: one inbound frame produces one
    /// arrival per node, every tick — pooling the vector keeps the
    /// per-packet hot path allocation-free.
    arrival_buf: Vec<(NodeId, SimTime)>,
    /// Pooled per-step migration effect buffers (engine steps and aborts
    /// can re-enter through effect dispatch, hence a pool, not one slot).
    mig_fx_pool: Vec<Vec<(SimTime, Effect)>>,
    /// Pooled stack-effect vectors for application callbacks (same
    /// re-entrancy argument).
    stack_fx_pool: Vec<Vec<StackEffect>>,
    /// The server hosts the router fans inbound frames out to, in node
    /// order. A uniform broadcast (every member hears it at one instant)
    /// carries this very snapshot as its [`Event::BroadcastArrival`] host
    /// list; a node attaching or leaving replaces it, so a frame scheduled
    /// before then no longer matches and takes the per-host path.
    members: Rc<[usize]>,
    /// The members' shared receive state: their port-claim transitions and
    /// the uniform frames they drop unclaimed.
    rx_group: RxGroup,
    /// The members claiming each port, ascending: the hosts a uniform
    /// broadcast to that port is handed to. Exact once
    /// [`sync_claimants`](World::sync_claimants) has read the group's
    /// changes.
    claimants: BTreeMap<Port, Vec<usize>>,
}

impl World {
    /// An empty world.
    pub fn new(cfg: WorldConfig) -> World {
        let rng = DetRng::new(cfg.seed);
        let mut sched = Scheduler::new();
        if let Some(ttl) = cfg.xlate_gc_ttl_us {
            sched.schedule_after(ttl.max(1), Event::XlateGc);
        }
        let admission = AdmissionControl::new(cfg.admission);
        World {
            cfg,
            sched,
            hosts: Vec::new(),
            router: BroadcastRouter::default_testbed(),
            switch: ClusterSwitch::gige(),
            rng,
            migrations: BTreeMap::new(),
            migrating: BTreeMap::new(),
            next_mig: 1,
            next_pid: 1,
            outcomes: BTreeMap::new(),
            lost_images: Vec::new(),
            ctrl_dark_until: BTreeMap::new(),
            partitions: BTreeMap::new(),
            next_partition_gen: 0,
            stalled_migs: BTreeSet::new(),
            ctrl_loss: None,
            ctrl_dup: None,
            ctrl_reorder: None,
            monitor: None,
            admission,
            surge: BTreeMap::new(),
            surge_gen: BTreeMap::new(),
            next_surge_gen: 0,
            next_tick_gen: 0,
            reports: Vec::new(),
            packet_log: Vec::new(),
            log_port: None,
            effect_log: None,
            route_errors: 0,
            benign_route_races: 0,
            zone_interest: BTreeMap::new(),
            zone_owner: BTreeMap::new(),
            capture_owner: BTreeMap::new(),
            departed_clients: BTreeSet::new(),
            arrival_buf: Vec::new(),
            mig_fx_pool: Vec::new(),
            stack_fx_pool: Vec::new(),
            members: Rc::from([]),
            rx_group: RxGroup::new(),
            claimants: BTreeMap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Record every transmitted frame touching this port (Fig. 4 tcpdump).
    pub fn enable_packet_log(&mut self, port: Port) {
        self.log_port = Some(port);
    }

    /// Record every migration effect as a rendered line (diagnostics and
    /// determinism checks; memory grows with traffic, so test-sized runs
    /// only).
    pub fn enable_effect_log(&mut self) {
        self.effect_log = Some(Vec::new());
    }

    /// The rendered migration effect stream (empty unless
    /// [`enable_effect_log`](World::enable_effect_log) was called).
    pub fn effect_log(&self) -> &[String] {
        self.effect_log.as_deref().unwrap_or(&[])
    }

    /// Frames the router refused to route (unknown client or node). Nonzero
    /// counts are expected when hosts crash with traffic in flight; steady
    /// growth without faults indicates a topology bug.
    pub fn route_errors(&self) -> u64 {
        self.route_errors
    }

    /// Turn on the invariant monitor, seeding its ownership model with
    /// every process currently alive. From here on the world feeds it
    /// ownership events as they happen; call
    /// [`monitor_sweep`](World::monitor_sweep) periodically for the
    /// reconciliation and budget checks, and read the findings via
    /// [`violations`](World::violations). The monitor is passive — it never
    /// schedules events or draws from the RNG, so enabling it leaves every
    /// deterministic output byte-identical.
    pub fn enable_monitor(&mut self) {
        let now = self.now();
        let mut m = InvariantMonitor::new();
        for (h, host) in self.hosts.iter().enumerate() {
            if host.alive {
                for pid in host.procs.keys() {
                    m.on_spawn(now, *pid, h);
                }
            }
        }
        self.monitor = Some(m);
    }

    /// Invariant violations observed so far (empty while the monitor is
    /// disabled).
    pub fn violations(&self) -> &[InvariantViolation] {
        self.monitor.as_ref().map(|m| m.violations()).unwrap_or(&[])
    }

    /// One reconciliation pass of the invariant monitor against world
    /// reality: the live process placement (split brains and lost processes
    /// in either direction of drift) and every live host's capture-queue
    /// peaks against the configured budget. No-op while the monitor is
    /// disabled.
    pub fn monitor_sweep(&mut self) {
        let Some(mut m) = self.monitor.take() else {
            return;
        };
        let now = self.now();
        let mut live: Vec<(Pid, usize)> = Vec::new();
        for (h, host) in self.hosts.iter().enumerate() {
            if host.alive {
                live.extend(host.procs.keys().map(|pid| (*pid, h)));
            }
        }
        let alive: Vec<bool> = self.hosts.iter().map(|h| h.alive).collect();
        m.reconcile(now, &live, |h| alive.get(h).copied().unwrap_or(false));
        if !self.cfg.capture_budget.is_unlimited() {
            for host in &self.hosts {
                if !host.alive {
                    continue;
                }
                let stats = host.stack.capture.stats();
                m.check_capture(
                    now,
                    stats.peak_queued_packets,
                    self.cfg.capture_budget.max_packets as u64,
                    stats.peak_queued_bytes,
                    self.cfg.capture_budget.max_bytes as u64,
                );
            }
        }
        // Interest-table audit: every subscription must point at the host
        // owning the zone's serving process. Pids mid-migration are
        // exempt — the destination subscribes during the capture window by
        // design — as is a subscription whose node no longer maps to any
        // host (the fabric already dropped it).
        for (zone, subs) in self.router.interest().iter() {
            let Some(&pid) = self.zone_owner.get(&zone) else {
                continue; // zone mapped but ownerless: dark, not leaked
            };
            if self.migrating.contains_key(&pid) {
                continue;
            }
            for &node in subs {
                if let Some(h) = self.host_by_node(node) {
                    m.check_subscription(now, pid, zone.0, h);
                }
            }
        }
        self.monitor = Some(m);
    }

    // ------------------------------------------------------------------
    // topology construction
    // ------------------------------------------------------------------

    fn next_node(&self) -> NodeId {
        NodeId(self.hosts.len() as u32)
    }

    /// Add a DVE server node (public + local interface, router + switch).
    pub fn add_server_node(&mut self) -> usize {
        let node = self.next_node();
        let jiffies_base = self.rng.fork(node.0 as u64 ^ 0x1ff).next_u64() % 100_000_000;
        let mut stack = HostStack::server_node(node, jiffies_base, self.cfg.seed ^ node.0 as u64);
        stack.capture.set_budget(self.cfg.capture_budget);
        self.switch.attach(node);
        self.hosts.push(Host::new(HostKind::Server, stack));
        let host = self.hosts.len() - 1;
        self.join_fabric(host);
        host
    }

    /// Attach a server host's public interface to the router and make its
    /// stack a member of the broadcast group.
    fn join_fabric(&mut self, host: usize) {
        self.router.attach_node(self.hosts[host].stack.node);
        self.hosts[host].stack.join_group(&self.rx_group);
        self.sync_claimants();
        self.index_claims(host);
        self.members = self.router.nodes().map(|n| n.0 as usize).collect();
    }

    /// Detach a server host's public interface from the router and take
    /// its stack out of the broadcast group.
    fn leave_fabric(&mut self, host: usize) {
        self.sync_claimants();
        self.router.detach_node(self.hosts[host].stack.node);
        self.hosts[host].stack.leave_group();
        self.claimants.retain(|_, hosts| {
            hosts.retain(|&h| h != host);
            !hosts.is_empty()
        });
        self.members = self.router.nodes().map(|n| n.0 as usize).collect();
    }

    /// Bring the claimant index up to date with the members' port-claim
    /// transitions since the last call.
    fn sync_claimants(&mut self) {
        if !self.rx_group.has_changes() {
            return;
        }
        match self.rx_group.take_changes() {
            ClaimChanges::Listed(changes) => {
                for (node, port) in changes {
                    self.update_claimant(node.0 as usize, port);
                }
            }
            ClaimChanges::All => {
                self.claimants.clear();
                for m in Rc::clone(&self.members).iter() {
                    self.index_claims(*m);
                }
            }
        }
    }

    /// Enter every port member `host` claims in the claimant index.
    fn index_claims(&mut self, host: usize) {
        for port in self.hosts[host].stack.claimed_ports() {
            let claimants = self.claimants.entry(port).or_default();
            if let Err(i) = claimants.binary_search(&host) {
                claimants.insert(i, host);
            }
        }
    }

    /// Re-read whether member `host` claims `port`.
    fn update_claimant(&mut self, host: usize, port: Port) {
        let claims = self.hosts[host].stack.claims_port(port);
        let claimants = self.claimants.entry(port).or_default();
        match (claimants.binary_search(&host), claims) {
            (Err(i), true) => claimants.insert(i, host),
            (Ok(i), false) => {
                claimants.remove(i);
            }
            _ => {}
        }
        if claimants.is_empty() {
            self.claimants.remove(&port);
        }
    }

    /// Add a client host on the WAN side.
    pub fn add_client_host(&mut self) -> usize {
        let node = self.next_node();
        let jiffies_base = self.rng.fork(node.0 as u64 ^ 0x2ff).next_u64() % 100_000_000;
        let mut stack = HostStack::client_host(node, jiffies_base, self.cfg.seed ^ node.0 as u64);
        stack.capture.set_budget(self.cfg.capture_budget);
        self.router.attach_client(node);
        self.hosts.push(Host::new(HostKind::Client, stack));
        self.hosts.len() - 1
    }

    /// Add a database host (local network only).
    pub fn add_database_host(&mut self) -> usize {
        let node = self.next_node();
        let jiffies_base = self.rng.fork(node.0 as u64 ^ 0x3ff).next_u64() % 100_000_000;
        let local = Ip::local_of(node);
        let mut stack = HostStack::new(
            node,
            local,
            local,
            jiffies_base,
            self.cfg.seed ^ node.0 as u64,
        );
        stack.capture.set_budget(self.cfg.capture_budget);
        self.switch.attach(node);
        self.hosts.push(Host::new(HostKind::Database, stack));
        self.hosts.len() - 1
    }

    /// Enable the load-balancing middleware on every server node: create
    /// conductors, run discovery and schedule their periodic ticks.
    pub fn enable_load_balancing(&mut self) {
        let now = self.now();
        for h in 0..self.hosts.len() {
            if self.hosts[h].kind != HostKind::Server {
                continue;
            }
            let node = self.hosts[h].stack.node;
            let mut cond = Conductor::new(node, self.cfg.lb);
            let local = self.local_load(h, now);
            let effects = cond.on_start(local);
            self.hosts[h].conductor = Some(cond);
            self.apply_lb_effects(h, effects);
            // Stagger ticks a little so nodes do not broadcast in lockstep.
            let offset = self.rng.range_u64(0, 50_000);
            self.sched
                .schedule_after(offset + 1_000, Event::ConductorTick { host: h });
        }
    }

    // ------------------------------------------------------------------
    // processes and sockets
    // ------------------------------------------------------------------

    /// Spawn a process running `app` on a host.
    pub fn spawn_process(
        &mut self,
        host: usize,
        name: &str,
        text_pages: usize,
        data_pages: usize,
        app: Box<dyn App>,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let process = Process::new(pid, name, text_pages, data_pages);
        let period = app.tick_period_us();
        let gen = self.fresh_tick_gen();
        self.hosts[host].procs.insert(
            pid,
            ProcEntry {
                process,
                app,
                tick_period_us: period,
                tick_gen: gen,
            },
        );
        let offset = self.rng.range_u64(0, period.max(1));
        self.sched
            .schedule_after(offset, Event::AppTick { host, pid, gen });
        if let Some(m) = &mut self.monitor {
            m.on_spawn(self.sched.now(), pid, host);
        }
        pid
    }

    /// A stamp for a new tick chain; every chain gets its own so events of
    /// a replaced chain are recognizably stale.
    fn fresh_tick_gen(&mut self) -> u64 {
        self.next_tick_gen += 1;
        self.next_tick_gen
    }

    /// Start a fresh real-time-loop chain for `pid` (after restore, resume
    /// or restart), invalidating any still-scheduled ticks of older chains.
    fn restart_ticks(&mut self, host: usize, pid: Pid) {
        let gen = self.fresh_tick_gen();
        let Some(entry) = self.hosts[host].procs.get_mut(&pid) else {
            return;
        };
        entry.tick_gen = gen;
        self.sched
            .schedule_after(0, Event::AppTick { host, pid, gen });
    }

    /// Schedule reads draining whatever queued on `pid`'s sockets (after a
    /// freeze ends, queued-up data does not announce itself again).
    fn drain_proc_sockets(&mut self, host: usize, pid: Pid) {
        let Some(entry) = self.hosts[host].procs.get(&pid) else {
            return;
        };
        let socks: Vec<SockId> = entry.process.fds.sockets().map(|(_, s)| s).collect();
        for sock in socks {
            self.sched
                .schedule_after(APP_READ_DELAY_US, Event::AppRead { host, pid, sock });
        }
    }

    /// Which host currently runs `pid`.
    pub fn host_of(&self, pid: Pid) -> Option<usize> {
        self.hosts.iter().position(|h| h.procs.contains_key(&pid))
    }

    /// Create a TCP listener owned by a process.
    pub fn app_tcp_listen(&mut self, host: usize, pid: Pid, addr: SockAddr) -> Fd {
        let sid = self.hosts[host]
            .stack
            .tcp_listen(addr)
            .expect("listen address free");
        self.attach_fd(host, pid, sid)
    }

    /// Bind a UDP socket owned by a process.
    pub fn app_udp_bind(&mut self, host: usize, pid: Pid, addr: SockAddr) -> Fd {
        let sid = self.hosts[host]
            .stack
            .udp_bind(addr)
            .expect("bind address free");
        self.attach_fd(host, pid, sid)
    }

    /// Bind an ephemeral UDP socket owned by a process, optionally with a
    /// default peer.
    pub fn app_udp_socket(&mut self, host: usize, pid: Pid, peer: Option<SockAddr>) -> Fd {
        let sid = self.hosts[host].stack.udp_bind_ephemeral();
        if let Some(p) = peer {
            self.hosts[host].stack.udp_connect(sid, p);
        }
        self.attach_fd(host, pid, sid)
    }

    /// Actively open a TCP connection owned by a process. `via_local`
    /// selects the in-cluster interface (zone server → database); otherwise
    /// the public/WAN interface is used (clients → cluster).
    pub fn app_tcp_connect(
        &mut self,
        host: usize,
        pid: Pid,
        remote: SockAddr,
        via_local: bool,
    ) -> Fd {
        let now = self.now();
        let (sid, fx) = if via_local {
            self.hosts[host].stack.tcp_connect_local(remote, now)
        } else {
            self.hosts[host].stack.tcp_connect_public(remote, now)
        };
        let fd = self.attach_fd(host, pid, sid);
        self.apply_effects(host, fx);
        fd
    }

    fn attach_fd(&mut self, host: usize, pid: Pid, sid: SockId) -> Fd {
        let h = &mut self.hosts[host];
        let entry = h.procs.get_mut(&pid).expect("process exists on host");
        let fd = entry.process.fds.insert(FdEntry::Socket(sid));
        h.register_sock(sid, pid, fd);
        fd
    }

    // ------------------------------------------------------------------
    // interest management (AOI)
    // ------------------------------------------------------------------

    /// Declare `pid` (running on `host`) the zone server for `zone`,
    /// reachable on inbound `port`. Maps the port to the zone in the
    /// router's interest table and subscribes the host's node. A zone has
    /// exactly one serving process; re-registering a zone under a second
    /// pid is a caller bug.
    pub fn register_zone_interest(&mut self, host: usize, pid: Pid, port: Port, zone: ZoneId) {
        assert!(
            self.hosts[host].procs.contains_key(&pid),
            "register_zone_interest: {pid:?} not on host {host}"
        );
        let prev = self.zone_owner.insert(zone, pid);
        assert!(
            prev.is_none() || prev == Some(pid),
            "zone {zone} already owned by {prev:?}"
        );
        self.zone_interest
            .entry(pid)
            .or_default()
            .push((port, zone));
        let node = self.hosts[host].stack.node;
        let interest = self.router.interest_mut();
        interest.map_port(port, zone);
        interest.subscribe(zone, node);
    }

    /// The zones a process serves (empty slice for non-zoned pids).
    pub fn zones_of(&self, pid: Pid) -> Vec<ZoneId> {
        self.zone_interest
            .get(&pid)
            .map(|pairs| pairs.iter().map(|&(_, z)| z).collect())
            .unwrap_or_default()
    }

    /// Current subscriber nodes of a zone (snapshot, for tests).
    pub fn zone_subscribers(&self, zone: ZoneId) -> Vec<NodeId> {
        self.router
            .interest()
            .subscribers(zone)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drop a pid's zone registrations: unsubscribe its host, unmap the
    /// ports and forget the ownership rows. Called when the process exits
    /// or its image is lost for good.
    fn forget_zone_interest(&mut self, pid: Pid) {
        let Some(pairs) = self.zone_interest.remove(&pid) else {
            return;
        };
        for (port, zone) in pairs {
            let interest = self.router.interest_mut();
            interest.unmap_port(port);
            // Clear every subscriber, not just the owner's host: the pid
            // may die mid-migration with both ends subscribed.
            if let Some(subs) = interest.subscribers(zone) {
                let subs: Vec<NodeId> = subs.iter().copied().collect();
                for node in subs {
                    self.router.interest_mut().unsubscribe(zone, node);
                }
            }
            self.zone_owner.remove(&zone);
        }
    }

    /// Outbound frames dropped as benign departed-client races (never
    /// counted in `route_errors`).
    pub fn benign_route_races(&self) -> u64 {
        self.benign_route_races
    }

    // ------------------------------------------------------------------
    // migration
    // ------------------------------------------------------------------

    /// Begin migrating `pid` to the server node at `dst_host`. Returns the
    /// migration id, or `None` if the pid is unknown or already migrating.
    pub fn begin_migration(
        &mut self,
        pid: Pid,
        dst_host: usize,
        strategy: Strategy,
    ) -> Option<MigId> {
        let src_host = self.host_of(pid)?;
        if src_host == dst_host {
            return None;
        }
        if !self.hosts[src_host].alive || !self.hosts[dst_host].alive {
            return None;
        }
        // One migration per process at a time; the pid index answers
        // without a scan of the tasks in flight.
        if self.migrating.contains_key(&pid) {
            return None;
        }
        // Admission control: the budgets bound cluster/per-node concurrency
        // and the in-flight image bytes a destination must hold, over the
        // migrations in flight. Budgets against the full address space —
        // the worst case the receiver pays.
        let image_bytes = self.hosts[src_host]
            .procs
            .get(&pid)
            .map(|e| e.process.addr_space.total_pages() as u64 * PAGE_SIZE)
            .unwrap_or(0);
        let src_node = self.hosts[src_host].stack.node;
        let dst_node = self.hosts[dst_host].stack.node;
        let in_flight = self
            .migrations
            .values()
            .map(|t| (t.engine.src, t.engine.dst, t.image_bytes));
        if self
            .admission
            .admit(in_flight, src_node, dst_node, image_bytes)
            .is_err()
        {
            return None;
        }
        let mut engine = MigrationEngine::new(pid, src_node, dst_node, strategy, self.cfg.cost);
        engine.guard = self.cfg.overload_guard;
        // Zone subscriptions travel with the sockets: the engine emits
        // Subscribe/Unsubscribe effects at the same phase boundaries that
        // move the capture hooks, so the interest table stays consistent on
        // every abort row. Empty for non-zoned pids — zero new effects.
        if let Some(pairs) = self.zone_interest.get(&pid) {
            engine.zones = pairs.iter().map(|&(_, z)| z).collect();
        }
        let mig = self.next_mig;
        self.next_mig += 1;
        self.migrating.insert(pid, mig);
        self.migrations.insert(
            mig,
            MigTask {
                engine,
                src: src_host,
                dst: dst_host,
                pid,
                image_bytes,
                recorder: TraceRecorder::new(pid, strategy, self.now()),
            },
        );
        self.sched.schedule_after(0, Event::MigrationStep { mig });
        Some(mig)
    }

    /// Number of migrations in progress.
    pub fn active_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// The admission gate (budgets and denial counters).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// A consistent snapshot of the resources the overload machinery
    /// budgets, for invariant checks in tests.
    pub fn resource_usage(&self) -> ResourceUsage {
        let mut queued_capture_packets = 0u64;
        let mut queued_capture_bytes = 0u64;
        for h in &self.hosts {
            if h.alive {
                queued_capture_packets += h.stack.capture.total_queued_packets() as u64;
                queued_capture_bytes += h.stack.capture.total_queued_bytes() as u64;
            }
        }
        ResourceUsage {
            active_migrations: self.migrations.len(),
            inflight_image_bytes: self.migrations.values().map(|t| t.image_bytes).sum(),
            queued_capture_packets,
            queued_capture_bytes,
            surged_hosts: self.surge.len(),
        }
    }

    /// Gracefully drain a server node ("machines may join and leave at any
    /// time", §IV): live-migrate every process away, spreading them over the
    /// least-loaded other server nodes. Returns the migration ids; once they
    /// complete the node holds nothing and can be detached.
    pub fn drain_node(&mut self, host: usize, strategy: Strategy) -> Vec<MigId> {
        assert_eq!(
            self.hosts[host].kind,
            HostKind::Server,
            "only server nodes drain"
        );
        let pids = self.hosts[host].pids();
        let mut migs = Vec::new();
        // Loads only change once migrations complete, so weight each
        // candidate by what has already been planned onto it.
        let mut planned: BTreeMap<usize, usize> = BTreeMap::new();
        for pid in pids {
            let share = self.hosts[host].procs[&pid].process.cpu_share.max(1.0);
            let dest = self
                .hosts
                .iter()
                .enumerate()
                .filter(|(i, h)| *i != host && h.kind == HostKind::Server)
                .min_by(|(i, a), (j, b)| {
                    let la = a.cpu_pct() + share * *planned.get(i).unwrap_or(&0) as f64;
                    let lb = b.cpu_pct() + share * *planned.get(j).unwrap_or(&0) as f64;
                    la.partial_cmp(&lb).expect("loads are finite")
                })
                .map(|(i, _)| i);
            let Some(dest) = dest else {
                break; // nowhere to go
            };
            if let Some(m) = self.begin_migration(pid, dest, strategy) {
                *planned.entry(dest).or_insert(0) += 1;
                migs.push(m);
            }
        }
        migs
    }

    /// Detach an empty server node from the fabric (it stops receiving
    /// broadcast copies and leaves the switch). Migrations still targeting
    /// the node are aborted first (their processes return to their
    /// sources). Panics if it still hosts processes — drain first.
    pub fn detach_node(&mut self, host: usize) {
        let mut migs: Vec<MigId> = self
            .migrations
            .iter()
            .filter(|(_, t)| t.src == host || t.dst == host)
            .map(|(m, _)| *m)
            .collect();
        migs.sort_unstable();
        for m in migs {
            self.abort_migration(m, AbortReason::NodeDetached);
        }
        assert!(
            self.hosts[host].procs.is_empty(),
            "detach of a non-empty node; drain_node first"
        );
        self.leave_fabric(host);
        self.switch.detach(self.hosts[host].stack.node);
        self.hosts[host].conductor = None;
    }

    /// A client host leaves gracefully (the player logs off): its
    /// processes exit, its WAN links are released, and the host goes dark.
    /// Frames already scheduled toward it — outbound unicasts in flight,
    /// or its membership in an already-batched broadcast — die silently:
    /// membership was snapshotted when the frame was scheduled, and a
    /// departure racing those deliveries is expected churn, counted in
    /// [`benign_route_races`](World::benign_route_races), never in the
    /// route-error tally.
    pub fn detach_client_host(&mut self, host: usize) {
        assert_eq!(self.hosts[host].kind, HostKind::Client, "not a client host");
        if !self.hosts[host].alive {
            return;
        }
        let now = self.now();
        let pids: Vec<Pid> = self.hosts[host].procs.keys().copied().collect();
        if let Some(m) = &mut self.monitor {
            for &pid in &pids {
                m.on_exit(now, pid, host);
            }
        }
        self.hosts[host].procs.clear();
        self.hosts[host].sock_owner.clear();
        self.hosts[host].alive = false;
        self.departed_clients.insert(host);
        let node = self.hosts[host].stack.node;
        self.router.detach_client(node);
    }

    // ------------------------------------------------------------------
    // fault injection and abort
    // ------------------------------------------------------------------

    /// Crash a process: the process and all its sockets vanish from its
    /// host (peers see silence, then retransmission timeouts). A migration
    /// in flight for the pid is aborted first, so engine-held state
    /// (captures, in-flight sockets, peer rules) is cleaned up rather than
    /// leaked.
    pub fn kill_process(&mut self, pid: Pid) -> bool {
        if let Some(mig) = self.migration_of(pid) {
            self.abort_migration(mig, AbortReason::ProcessKilled);
        }
        let Some(h) = self.host_of(pid) else {
            return false;
        };
        if let Some(m) = &mut self.monitor {
            m.on_exit(self.sched.now(), pid, h);
        }
        let entry = self.hosts[h]
            .procs
            .remove(&pid)
            .expect("host_of said it is here");
        let socks: Vec<SockId> = entry.process.fds.sockets().map(|(_, s)| s).collect();
        for s in socks {
            self.hosts[h].stack.release(s);
        }
        self.hosts[h].unindex_proc_sockets(pid);
        // A dead zone server serves nobody: its zones go dark (delivered to
        // no subscriber) until a new process registers them.
        self.forget_zone_interest(pid);
        true
    }

    /// The in-flight migration of `pid`, if any.
    pub fn migration_of(&self, pid: Pid) -> Option<MigId> {
        self.migrating.get(&pid).copied()
    }

    /// Whether an in-flight migration is past its detach point (the point
    /// of no free return: an abort now restores from the captured image
    /// instead of resuming the still-hashed source copy). `None` once the
    /// migration finished or if the id is unknown.
    pub fn migration_past_detach(&self, mig: MigId) -> Option<bool> {
        self.migrations.get(&mig).map(|t| t.engine.past_detach())
    }

    /// Terminal state of a finished migration (`None` while still in
    /// flight or for unknown ids).
    pub fn migration_outcome(&self, mig: MigId) -> Option<MigrationOutcome> {
        self.outcomes.get(&mig).copied()
    }

    /// Schedule every entry of a fault plan as a world event.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for (at, fault) in plan.into_entries() {
            self.sched.schedule_at(at, Event::Fault { fault });
        }
    }

    /// Apply one fault right now (scheduled faults route here too).
    pub fn inject_fault(&mut self, fault: Fault) {
        let now = self.now();
        match fault {
            Fault::NodeCrash { host } => self.crash_node(host),
            Fault::DownlinkLoss {
                host,
                model,
                for_us,
            } => {
                let node = self.hosts[host].stack.node;
                if self.hosts[host].kind == HostKind::Client {
                    // Clients sit behind the shared WAN access network; the
                    // router models its loss on every client link.
                    self.router.set_client_loss(model);
                } else if let Some(link) = self.router.node_downlink_mut(node) {
                    link.set_loss(model);
                } else if let Some(link) = self.switch.downlink_mut(node) {
                    link.set_loss(model);
                }
                if for_us > 0 && model != LossModel::None {
                    self.sched.schedule_after(
                        for_us,
                        Event::Fault {
                            fault: Fault::DownlinkLoss {
                                host,
                                model: LossModel::None,
                                for_us: 0,
                            },
                        },
                    );
                }
            }
            Fault::TransferStall { pid } => {
                if let Some(mig) = self.migration_of(pid) {
                    self.abort_migration(mig, AbortReason::TransferStalled);
                }
            }
            Fault::CaptureInstallFail { host } => {
                self.hosts[host].stack.capture.arm_enable_failures(1);
            }
            Fault::RestoreFail { host } => {
                self.hosts[host].stack.arm_install_failures(1);
            }
            Fault::CtrlBlackout { host, dir, for_us } => {
                self.ctrl_dark_until.insert(host, (dir, now + for_us));
            }
            Fault::Partition { groups, for_us } => {
                let gen = self.next_partition_gen;
                self.next_partition_gen += 1;
                self.partitions.insert(gen, groups);
                if for_us > 0 {
                    self.sched
                        .schedule_after(for_us, Event::PartitionHeal { gen });
                }
                // In-flight migrations crossing the cut park themselves at
                // their next step; nothing to do here.
            }
            Fault::CtrlLoss { pct, for_us } => {
                self.ctrl_loss = Some((pct, chaos_until(now, for_us)));
            }
            Fault::CtrlDup { pct, for_us } => {
                self.ctrl_dup = Some((pct, chaos_until(now, for_us)));
            }
            Fault::CtrlReorder {
                pct,
                max_extra_us,
                for_us,
            } => {
                self.ctrl_reorder = Some((pct, max_extra_us, chaos_until(now, for_us)));
            }
            Fault::Overload {
                host,
                factor,
                for_us,
            } => {
                if !self.hosts[host].alive {
                    return;
                }
                if factor <= 1 {
                    self.surge.remove(&host);
                    self.surge_gen.remove(&host);
                } else {
                    let gen = self.next_surge_gen;
                    self.next_surge_gen += 1;
                    self.surge.insert(host, factor);
                    self.surge_gen.insert(host, gen);
                    if for_us > 0 {
                        // Self-scheduled restore, like DownlinkLoss — but
                        // generation-tagged, so a newer surge installed
                        // before this one expires is not cut short by the
                        // stale restore.
                        self.sched
                            .schedule_after(for_us, Event::SurgeRestore { host, gen });
                    }
                }
                self.restart_host_ticks(host);
            }
        }
    }

    /// Restart every running process's tick chain on `host` so a changed
    /// surge factor takes effect now rather than after the currently
    /// scheduled tick.
    fn restart_host_ticks(&mut self, host: usize) {
        let pids: Vec<Pid> = self.hosts[host].procs.keys().copied().collect();
        for pid in pids {
            if self.hosts[host]
                .procs
                .get(&pid)
                .is_some_and(|e| !e.process.is_frozen())
            {
                self.restart_ticks(host, pid);
            }
        }
    }

    /// A host dies abruptly: every migration touching it aborts with the
    /// phase-appropriate recovery, its processes and conductor vanish, and
    /// it leaves the fabric. Events already queued for it are discarded on
    /// delivery.
    pub fn crash_node(&mut self, host: usize) {
        if !self.hosts[host].alive {
            return;
        }
        // Dead before the aborts run, so the engine sees its stack as gone.
        self.hosts[host].alive = false;
        // Its residents die with it — casualties, not violations.
        if let Some(m) = &mut self.monitor {
            m.on_host_down(host);
        }
        let mut migs: Vec<(MigId, AbortReason)> = self
            .migrations
            .iter()
            .filter(|(_, t)| t.src == host || t.dst == host)
            .map(|(m, t)| {
                let reason = if t.src == host {
                    AbortReason::SourceCrashed
                } else {
                    AbortReason::DestinationCrashed
                };
                (*m, reason)
            })
            .collect();
        migs.sort_unstable_by_key(|(m, _)| *m);
        for (m, reason) in migs {
            self.abort_migration(m, reason);
        }
        // Zone registrations of the casualties die with them; capture
        // entries installed on the dead host can no longer fire pressure.
        let dead_pids: Vec<Pid> = self.hosts[host].procs.keys().copied().collect();
        for pid in dead_pids {
            self.forget_zone_interest(pid);
        }
        self.capture_owner.retain(|(h, _), _| *h != host);
        self.hosts[host].procs.clear();
        self.hosts[host].sock_owner.clear();
        self.hosts[host].conductor = None;
        self.surge.remove(&host);
        self.surge_gen.remove(&host);
        let node = self.hosts[host].stack.node;
        match self.hosts[host].kind {
            HostKind::Server => {
                self.leave_fabric(host);
                self.switch.detach(node);
            }
            HostKind::Database => self.switch.detach(node),
            // Release the client's WAN access links so they stop leaking:
            // frames toward the dead client now surface as route errors at
            // the router instead of serializing onto an unread downlink.
            HostKind::Client => self.router.detach_client(node),
        }
    }

    /// Abort an in-flight migration: the engine emits its compensating
    /// effects (rollback, resume or restore-on-source, see the engine's
    /// module docs) and the terminal [`Effect::Aborted`], which routes
    /// through the same dispatch path as every other effect. Returns false
    /// for unknown/finished ids.
    pub fn abort_migration(&mut self, mig: MigId, reason: AbortReason) -> bool {
        let now = self.now();
        let Some(task) = self.migrations.get_mut(&mig) else {
            return false;
        };
        let (src, dst, pid) = (task.src, task.dst, task.pid);
        // Effect buffers are pooled, not a single slot: dispatching an
        // effect can re-enter this path (abort chains), so each activation
        // takes its own buffer off the freelist.
        let mut buf = EffectBuf::with_storage(self.mig_fx_pool.pop().unwrap_or_default());
        let (src_host, dst_host) = host_pair(&mut self.hosts, src, dst);
        task.engine.abort(
            reason,
            AbortIo {
                now,
                src_stack: src_host.alive.then_some(&mut src_host.stack),
                dst_stack: dst_host.alive.then_some(&mut dst_host.stack),
            },
            &mut buf,
        );
        self.dispatch_mig_effects(mig, src, dst, pid, buf.take());
        true
    }

    /// Terminal bookkeeping of an abort, driven by [`Effect::Aborted`]
    /// (always the migration's last effect).
    fn finish_abort(&mut self, mig: MigId, src: usize, pid: Pid, aborted: MigrationAborted) {
        let MigrationAborted {
            phase,
            reason,
            recovery,
        } = aborted;
        let task = self
            .migrations
            .remove(&mig)
            .expect("aborting an active migration");
        self.stalled_migs.remove(&mig);
        self.migrating.remove(&pid);
        self.capture_owner.retain(|_, m| *m != mig);
        let dst = task.dst;
        let now = self.now();
        let recovery_tag = Recovery::from(&recovery);
        match recovery {
            // The source copy never stopped (precopy abort) or was resumed
            // via Effect::ResumeApp (which already restarted its ticks).
            AbortRecovery::SourceKeptRunning | AbortRecovery::ResumedOnSource => {}
            AbortRecovery::RestoredOnSource(process) => {
                // With fencing off, a restore-phase abort across an active
                // partition is exactly the split-brain window: the
                // destination holds the complete image, cannot hear the
                // cancel, and commits its copy while the source restores
                // its own. Model the second copy so the invariant monitor
                // can catch what the epoch fence would have prevented.
                // `PhaseId::FreezeDetach` is the abort-report id of an
                // internal post-detach (restore-phase) abort — the only
                // point where the destination holds the complete image.
                if !self.cfg.fence_enabled
                    && phase == PhaseId::FreezeDetach
                    && self.hosts[dst].alive
                    && self.partitioned(src, dst)
                {
                    let gen = self.fresh_tick_gen();
                    self.hosts[dst].procs.insert(
                        pid,
                        ProcEntry {
                            process: process.clone(),
                            app: Box::new(OrphanApp),
                            tick_period_us: 0,
                            tick_gen: gen,
                        },
                    );
                    if let Some(m) = &mut self.monitor {
                        m.on_adopt(now, pid, dst);
                    }
                }
                // The rebuilt process: its fd table names the sockets the
                // engine reinstalled on the source stack.
                if let Some(entry) = self.hosts[src].procs.get_mut(&pid) {
                    entry.process = process;
                }
                self.hosts[src].unindex_proc_sockets(pid);
                self.hosts[src].reindex_proc_sockets(pid);
                self.restart_ticks(src, pid);
                self.drain_proc_sockets(src, pid);
            }
            AbortRecovery::ImageOnly(process) => {
                if let Some(m) = &mut self.monitor {
                    m.on_lost(now, pid, self.hosts[src].alive);
                }
                self.lost_images.push(process);
                // No live copy remains: the pid's zones go dark rather
                // than point at a host that no longer runs it.
                self.forget_zone_interest(pid);
            }
            AbortRecovery::Lost => {
                if let Some(m) = &mut self.monitor {
                    m.on_lost(now, pid, self.hosts[src].alive);
                }
                self.forget_zone_interest(pid);
            }
        }
        self.reports.push(task.recorder.into_report());
        self.outcomes.insert(
            mig,
            MigrationOutcome::Aborted {
                phase,
                reason,
                recovery: recovery_tag,
            },
        );
        // The sender-side conductor learns of the failure (blacklists the
        // destination, schedules the retry with backoff).
        if self.hosts[src].alive {
            if let Some(c) = self.hosts[src].conductor.as_mut() {
                let effects = c.on_migration_finished(now, false);
                self.apply_lb_effects(src, effects);
            }
        }
    }

    // ------------------------------------------------------------------
    // running
    // ------------------------------------------------------------------

    /// Run the event loop until `deadline` (events at the deadline are
    /// processed).
    ///
    /// The clock stops at the last event dispatched, not at `deadline`:
    /// [`now`](Self::now) reads that event's instant afterwards, so an
    /// action taken between two calls (a migration begun, a fault injected)
    /// and a following `run_for` both start from it. Which events exist
    /// therefore matters even when they do nothing: a fire that pops for
    /// nothing can be the last event before the deadline.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.sched.peek_time().is_some_and(|at| at <= deadline) {
            let (_, event) = self.sched.pop_next().expect("peeked event exists");
            self.dispatch(event);
        }
    }

    /// Run for `us` microseconds of simulated time, counted from
    /// [`now`](Self::now): the last event dispatched, which may lie before
    /// the previous call's deadline (see [`run_until`](Self::run_until)).
    pub fn run_for(&mut self, us: u64) {
        let deadline = self.now() + us;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, event: Event) {
        // Events addressed to a crashed host die at its doorstep.
        let target_host = match &event {
            // Broadcast batches carry several hosts; liveness is checked
            // per host at delivery.
            Event::BroadcastArrival { .. } => None,
            Event::PacketArrival { host, .. }
            | Event::SockTimer { host, .. }
            | Event::AppTick { host, .. }
            | Event::AppRead { host, .. }
            | Event::ConductorTick { host }
            | Event::LbMessage { host, .. }
            | Event::InstallXlate { host, .. }
            | Event::RemoveXlate { host, .. } => Some(*host),
            Event::MigrationStep { .. }
            | Event::Fault { .. }
            | Event::SurgeRestore { .. }
            | Event::PartitionHeal { .. }
            | Event::XlateGc => None,
        };
        if let Some(h) = target_host {
            if !self.hosts[h].alive {
                return;
            }
        }
        match event {
            Event::PacketArrival { host, seg } => {
                let now = self.now();
                let fx = self.hosts[host].stack.on_rx(seg, now);
                if !fx.is_empty() {
                    self.apply_effects(host, fx);
                }
            }
            Event::BroadcastArrival { hosts, seg } => {
                if Rc::ptr_eq(&hosts, &self.members) {
                    self.deliver_uniform(&seg);
                    return;
                }
                let now = self.now();
                for &host in hosts.iter() {
                    // A host may have crashed after the frame was scheduled
                    // (or mid-batch, through an effect of an earlier
                    // delivery): the frame dies at its doorstep.
                    if !self.hosts[host].alive {
                        continue;
                    }
                    // Most copies are dropped by their receiver and leave
                    // no effect: those cost one emptiness check.
                    let fx = self.hosts[host].stack.on_rx_ref(&seg, now);
                    if !fx.is_empty() {
                        self.apply_effects(host, fx);
                    }
                }
            }
            Event::SockTimer { host, sock, seq } => {
                let now = self.now();
                match self.hosts[host]
                    .timers
                    .fire(sock, DispatchKey { at: now, seq })
                {
                    TimerFire::Stale => {}
                    TimerFire::Due(gen) => {
                        let fx = self.hosts[host].stack.on_timer(sock, gen, now);
                        self.apply_effects(host, fx);
                    }
                    TimerFire::Requeue(key) => self.push_timer_fire(host, sock, key),
                }
            }
            Event::AppTick { host, pid, gen } => self.on_app_tick(host, pid, gen),
            Event::AppRead { host, pid, sock } => self.on_app_read(host, pid, sock),
            Event::ConductorTick { host } => self.on_conductor_tick(host),
            Event::LbMessage { host, from, msg } => self.on_lb_message(host, from, msg),
            Event::MigrationStep { mig } => self.on_migration_step(mig),
            Event::InstallXlate { host, rule } => {
                let now = self.now();
                self.hosts[host].stack.xlate.install_at(rule, now);
            }
            Event::RemoveXlate { host, rule } => {
                self.hosts[host].stack.xlate.remove(
                    rule.peer_local,
                    rule.old_remote_ip,
                    rule.remote_port,
                );
            }
            Event::Fault { fault } => self.inject_fault(fault),
            Event::SurgeRestore { host, gen } => {
                if self.surge_gen.get(&host) != Some(&gen) {
                    return; // a newer surge superseded this restore
                }
                self.surge.remove(&host);
                self.surge_gen.remove(&host);
                if self.hosts[host].alive {
                    self.restart_host_ticks(host);
                }
            }
            Event::PartitionHeal { gen } => {
                if self.partitions.remove(&gen).is_none() {
                    return; // already healed (manual heal raced the timer)
                }
                // Wake the parked migrations whose path is whole again;
                // ones an overlapping partition still cuts stay parked.
                let stalled: Vec<MigId> = self.stalled_migs.iter().copied().collect();
                for mig in stalled {
                    let Some(task) = self.migrations.get(&mig) else {
                        self.stalled_migs.remove(&mig);
                        continue;
                    };
                    if !self.partitioned(task.src, task.dst) {
                        self.stalled_migs.remove(&mig);
                        self.sched.schedule_after(0, Event::MigrationStep { mig });
                    }
                }
            }
            Event::XlateGc => {
                let Some(ttl) = self.cfg.xlate_gc_ttl_us else {
                    return;
                };
                let now = self.now();
                for h in &mut self.hosts {
                    if h.alive {
                        h.stack.xlate.gc(now, ttl);
                    }
                }
                self.sched.schedule_after(ttl.max(1), Event::XlateGc);
            }
        }
    }

    // ------------------------------------------------------------------
    // application callbacks
    // ------------------------------------------------------------------

    fn with_app<R>(
        &mut self,
        host: usize,
        pid: Pid,
        f: impl FnOnce(&mut dyn App, &mut AppCtx<'_>) -> R,
    ) -> Option<R> {
        let now = self.now();
        // App callbacks run once per tick per process — the stack-effect
        // buffer comes from a freelist (callbacks can nest through effect
        // dispatch, so a single reusable slot would not be re-entrant).
        let mut effects = self.stack_fx_pool.pop().unwrap_or_default();
        let h = &mut self.hosts[host];
        let r = match h.procs.get_mut(&pid) {
            Some(entry) if !entry.process.is_frozen() => {
                let mut ctx = AppCtx {
                    now,
                    pid,
                    rng: &mut self.rng,
                    proc: &mut entry.process,
                    stack: &mut h.stack,
                    effects: &mut effects,
                };
                Some(f(entry.app.as_mut(), &mut ctx))
            }
            _ => None,
        };
        if r.is_some() {
            self.apply_effects(host, effects);
        } else {
            self.recycle_fx(effects);
        }
        r
    }

    fn on_app_tick(&mut self, host: usize, pid: Pid, gen: u64) {
        let Some(entry) = self.hosts[host].procs.get(&pid) else {
            return; // process moved away or exited; its new host rescheduled
        };
        if entry.tick_gen != gen {
            return; // stale chain: the process was resumed/restarted since
        }
        if entry.process.is_frozen() {
            return; // frozen: the tick chain resumes after restore
        }
        // A surged host ([`Fault::Overload`]) ticks `factor`× faster: the
        // same app logic runs more often, multiplying send and dirty rates.
        let factor = self.surge.get(&host).copied().unwrap_or(1).max(1) as u64;
        let period = (entry.tick_period_us / factor).max(1);
        self.with_app(host, pid, |app, ctx| app.on_tick(ctx));
        self.sched
            .schedule_after(period, Event::AppTick { host, pid, gen });
    }

    fn on_app_read(&mut self, host: usize, pid: Pid, sock: SockId) {
        // The socket may have moved or closed since the event was scheduled.
        let Some(&(owner_pid, fd)) = self.hosts[host].sock_owner.get(sock) else {
            return;
        };
        if owner_pid != pid {
            return;
        }
        let now = self.now();
        let is_tcp = match self.hosts[host].stack.sock(sock) {
            Some(s) => s.is_tcp(),
            None => return,
        };
        if is_tcp {
            let data = self.hosts[host].stack.read_tcp(sock, now);
            if !data.is_empty() {
                self.with_app(host, pid, |app, ctx| app.on_tcp_data(ctx, fd, &data));
            }
        } else {
            let dgrams = self.hosts[host].stack.read_udp(sock);
            if !dgrams.is_empty() {
                self.with_app(host, pid, |app, ctx| app.on_udp_data(ctx, fd, &dgrams));
            }
        }
    }

    // ------------------------------------------------------------------
    // conductor wiring
    // ------------------------------------------------------------------

    /// Latest smoothed load indicator for a host (raw CPU if no sample yet).
    fn local_load(&self, host: usize, now: SimTime) -> LoadInfo {
        let h = &self.hosts[host];
        let cpu = h.load_monitor.current().unwrap_or_else(|| h.cpu_pct());
        LoadInfo::new(h.stack.node, cpu, h.procs.len() as u32, now)
    }

    fn on_conductor_tick(&mut self, host: usize) {
        let now = self.now();
        if self.hosts[host].conductor.is_none() {
            return;
        }
        // Sample the atop-style monitor at every tick.
        let raw = self.hosts[host].cpu_pct();
        self.hosts[host].load_monitor.sample(raw);
        let local = self.local_load(host, now);
        let procs = self.hosts[host].proc_loads();
        let effects = self.hosts[host]
            .conductor
            .as_mut()
            .expect("checked above")
            .on_tick(now, local, &procs);
        self.apply_lb_effects(host, effects);
        self.sched
            .schedule_after(CONDUCTOR_TICK_US, Event::ConductorTick { host });
    }

    fn on_lb_message(&mut self, host: usize, from: NodeId, msg: LbMsg) {
        let now = self.now();
        if self.hosts[host].conductor.is_none() {
            return;
        }
        // An inbound-blocking control blackout (Fault::CtrlBlackout)
        // swallows the message at the receiver's door.
        if self
            .ctrl_dark_until
            .get(&host)
            .is_some_and(|&(dir, u)| now < u && dir.blocks_inbound())
        {
            return;
        }
        // A partition between sender and receiver drops it on the wire.
        // The check runs at delivery, so a frame in flight when the
        // partition lands is cut too, and one sent just before a heal only
        // arrives if the cut is gone by then.
        if self
            .host_by_node(from)
            .is_some_and(|f| self.partitioned(f, host))
        {
            return;
        }
        let local = self.local_load(host, now);
        let effects = self.hosts[host]
            .conductor
            .as_mut()
            .expect("checked above")
            .on_msg(now, from, msg, local);
        self.apply_lb_effects(host, effects);
    }

    fn apply_lb_effects(&mut self, host: usize, effects: Vec<LbEffect>) {
        let now = self.now();
        let node = self.hosts[host].stack.node;
        // An outbound-blocking control blackout swallows this conductor's
        // own sends at the source (its daemon-local effects still run).
        let dark_out = self
            .ctrl_dark_until
            .get(&host)
            .is_some_and(|&(dir, u)| now < u && dir.blocks_outbound());
        for action in effects {
            match action {
                LbEffect::Broadcast(msg) => {
                    if dark_out {
                        continue;
                    }
                    let arrivals =
                        self.switch
                            .broadcast(now, node, msg.wire_bytes(), &mut self.rng);
                    for (dest, at) in arrivals {
                        if let Some(h) = self.host_by_node(dest) {
                            if self.hosts[h].conductor.is_some() {
                                self.schedule_lb_message(at, h, node, msg);
                            }
                        }
                    }
                }
                LbEffect::Send(dest, msg) => {
                    if dark_out {
                        continue;
                    }
                    // The destination may have crashed or left (e.g. MigDone
                    // toward a dead receiver): the frame goes dark.
                    if !self.switch.is_attached(dest) {
                        continue;
                    }
                    if let Some(at) =
                        self.switch
                            .unicast(now, node, dest, msg.wire_bytes(), &mut self.rng)
                    {
                        if let Some(h) = self.host_by_node(dest) {
                            self.schedule_lb_message(at, h, node, msg);
                        }
                    }
                }
                LbEffect::StartMigration {
                    pid,
                    dest,
                    prefer,
                    epoch,
                } => {
                    let Some(dst_host) = self.host_by_node(dest) else {
                        continue;
                    };
                    // Map the conductor's preference onto the configured
                    // strategy, never exceeding it: retries degrade toward
                    // per-socket iteration.
                    let strategy = match prefer {
                        StrategyPreference::Incremental => self.cfg.strategy,
                        StrategyPreference::Collective => {
                            if self.cfg.strategy == Strategy::Iterative {
                                Strategy::Iterative
                            } else {
                                Strategy::Collective
                            }
                        }
                        StrategyPreference::Iterative => Strategy::Iterative,
                    };
                    match self.begin_migration(pid, dst_host, strategy) {
                        Some(mig) => {
                            // Conductor-initiated migrations carry the
                            // negotiated epoch: the destination's fenced
                            // restore checks it against the live lease.
                            self.migrations
                                .get_mut(&mig)
                                .expect("just created")
                                .engine
                                .epoch = epoch;
                            if let Some(m) = &mut self.monitor {
                                m.on_epoch(now, pid, epoch);
                            }
                        }
                        None => {
                            // Could not start (pid vanished): release both
                            // sides.
                            if let Some(c) = self.hosts[host].conductor.as_mut() {
                                let effects = c.on_migration_finished(now, false);
                                self.apply_lb_effects(host, effects);
                            }
                        }
                    }
                }
                LbEffect::CancelMigration { pid, epoch } => {
                    // The sender's force-cancel (migration timeout AND lease
                    // both expired): abort the matching in-flight migration.
                    // `finish_abort` reports back to the conductor, which
                    // leaves Sending through the normal failure path.
                    let matching = self.migration_of(pid).filter(|m| {
                        self.migrations
                            .get(m)
                            .is_some_and(|t| t.engine.epoch == epoch)
                    });
                    match matching {
                        Some(mig) => {
                            self.abort_migration(mig, AbortReason::TransferStalled);
                        }
                        None => {
                            // No such migration (it just finished, or the
                            // daemon never started it): release the
                            // conductor directly so it cannot wedge in
                            // Sending.
                            if let Some(c) = self.hosts[host].conductor.as_mut() {
                                let effects = c.on_migration_finished(now, false);
                                self.apply_lb_effects(host, effects);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Schedule one control-message delivery, applying the unreliable-
    /// delivery faults. The RNG is consulted only while a fault window is
    /// open, so fault-free effect streams are byte-identical with this path
    /// compiled in.
    fn schedule_lb_message(&mut self, mut at: SimTime, host: usize, from: NodeId, msg: LbMsg) {
        let now = self.now();
        if let Some((pct, until)) = self.ctrl_loss {
            if now < until && self.rng.range_u64(0, 100) < pct as u64 {
                return; // dropped on the wire
            }
        }
        if let Some((pct, max_extra_us, until)) = self.ctrl_reorder {
            if now < until && self.rng.range_u64(0, 100) < pct as u64 {
                // Extra delay pushes the frame behind later sends.
                at += self.rng.range_u64(1, max_extra_us.max(1));
            }
        }
        self.sched
            .schedule_at(at, Event::LbMessage { host, from, msg });
        if let Some((pct, until)) = self.ctrl_dup {
            if now < until && self.rng.range_u64(0, 100) < pct as u64 {
                let extra = self.rng.range_u64(1, 2_000);
                self.sched
                    .schedule_at(at + extra, Event::LbMessage { host, from, msg });
            }
        }
    }

    /// Whether any active partition separates hosts `a` and `b` (traffic
    /// within a group, or touching hosts in neither group, is unaffected).
    fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions.values().any(|[g0, g1]| {
            (g0.contains(a) && g1.contains(b)) || (g1.contains(a) && g0.contains(b))
        })
    }

    fn host_by_node(&self, node: NodeId) -> Option<usize> {
        // Node ids are assigned as `NodeId(hosts.len())` at creation and
        // hosts are never removed from the vector (crashes only mark them
        // dead), so the id doubles as the index. Release builds trust that
        // and touch no `Host`: the router's fan-out maps every recipient
        // through here. Debug builds check it.
        let idx = node.0 as usize;
        let host = self.hosts.get(idx)?;
        debug_assert_eq!(host.stack.node, node, "node ids index the host table");
        Some(idx)
    }

    /// The host a translation rule for `peer` goes to (install and revoke
    /// alike). The peer endpoint may itself have migrated since the
    /// connection was created, so this is whichever host currently runs its
    /// socket, falling back to the host its address names.
    fn xlate_target(&self, peer: NodeId, rule: &XlateRule) -> Option<usize> {
        self.hosts
            .iter()
            .position(|h| {
                h.stack.has_established(
                    rule.peer_local,
                    SockAddr {
                        ip: rule.old_remote_ip,
                        port: rule.remote_port,
                    },
                )
            })
            .or_else(|| self.host_by_node(peer))
    }

    // ------------------------------------------------------------------
    // migration stepping
    // ------------------------------------------------------------------

    fn on_migration_step(&mut self, mig: MigId) {
        let now = self.now();
        let Some(task) = self.migrations.get_mut(&mig) else {
            return;
        };
        let (src, dst, pid) = (task.src, task.dst, task.pid);
        let (epoch, past_detach) = (task.engine.epoch, task.engine.past_detach());

        // A partition between the endpoints stalls the transfer: park the
        // migration (no polling — the heal event resumes it). The sender's
        // conductor force-cancels it if the partition outlives both the
        // migration timeout and the destination lease.
        if self.partitioned(src, dst) {
            self.stalled_migs.insert(mig);
            return;
        }

        // Fenced restore: past the detach point the destination commits the
        // process, which it may only do under a live epoch-matching
        // reservation. A stale epoch (the receiver re-leased to a newer
        // negotiation) or an expired lease (the receiver gave up while a
        // partition stalled the transfer) refuses the resume — this is the
        // single-ownership guarantee under partition heal.
        if self.cfg.fence_enabled && epoch > 0 && past_detach {
            let allowed = self.hosts[dst]
                .conductor
                .as_ref()
                .is_some_and(|c| c.restore_allowed(pid, epoch, now));
            if !allowed {
                self.abort_migration(mig, AbortReason::FencedStaleEpoch);
                return;
            }
        }

        // Split the borrows: engine lives in self.migrations, stacks and the
        // process in self.hosts. The step's side effects land in `buf`, a
        // pooled buffer (steps run at 10 ms cadence per migration; pooling
        // keeps the per-step cost allocation-free, and a freelist — not a
        // single slot — because effect dispatch can re-enter stepping).
        let mut buf = EffectBuf::with_storage(self.mig_fx_pool.pop().unwrap_or_default());
        let task = self
            .migrations
            .get_mut(&mig)
            .expect("checked above, not removed since");
        let (src_host, dst_host) = host_pair(&mut self.hosts, src, dst);
        let entry = src_host
            .procs
            .get_mut(&pid)
            .expect("migrating process on source");
        let plan = task.engine.step(
            StepIo {
                now,
                src_stack: &mut src_host.stack,
                dst_stack: &mut dst_host.stack,
                proc: &mut entry.process,
            },
            &mut buf,
        );
        self.dispatch_mig_effects(mig, src, dst, pid, buf.take());
        if let Some(after) = plan.next_step_after_us {
            self.sched
                .schedule_after(after, Event::MigrationStep { mig });
        }
    }

    /// Fold one migration effect into the migration's trace spine and, when
    /// enabled, the effect log.
    fn record_effect(&mut self, mig: MigId, at: SimTime, effect: &Effect) {
        if let Some(task) = self.migrations.get_mut(&mig) {
            task.recorder.observe(at, effect);
        }
        if let Some(log) = &mut self.effect_log {
            log.push(render_effect(mig, at, effect));
        }
    }

    /// Record a step's or an abort's effects, then dispatch each in
    /// emission order and return the buffer to the pool. A `Complete` or
    /// `Aborted` effect (always last) consumes the task — hence the two
    /// passes.
    fn dispatch_mig_effects(
        &mut self,
        mig: MigId,
        src: usize,
        dst: usize,
        pid: Pid,
        mut effects: Vec<(SimTime, Effect)>,
    ) {
        for (at, effect) in &effects {
            self.record_effect(mig, *at, effect);
        }
        for (_, effect) in effects.drain(..) {
            self.apply_effect(mig, src, dst, pid, effect);
        }
        if self.mig_fx_pool.len() < FX_POOL_CAP {
            self.mig_fx_pool.push(effects);
        }
    }

    /// Route one migration effect — the single dispatch path that replaces
    /// the per-`Vec` plumbing (`suspend_app` flag, `xlate_requests`,
    /// `src_effects`/`dst_effects`, `complete` slot) of the old `StepPlan`.
    fn apply_effect(&mut self, mig: MigId, src: usize, dst: usize, pid: Pid, effect: Effect) {
        match effect {
            Effect::SendXlate { peer, rule } => {
                if let Some(h) = self.xlate_target(peer, &rule) {
                    self.sched.schedule_after(
                        self.cfg.ctrl_latency_us,
                        Event::InstallXlate { host: h, rule },
                    );
                }
            }
            Effect::Stack { side, effect } => {
                let host = match side {
                    Side::Src => src,
                    Side::Dst => dst,
                };
                self.apply_stack_effect(host, effect);
            }
            Effect::ResumeApp => {
                if let Some(entry) = self.hosts[src].procs.get_mut(&pid) {
                    entry.process.resume_all();
                }
                // The old tick chain died at suspension; start a new one and
                // drain whatever queued on the sockets during the freeze.
                self.restart_ticks(src, pid);
                self.drain_proc_sockets(src, pid);
            }
            Effect::RevokeXlate { peer, rule } => {
                // Mirror of SendXlate: recall the rule from whichever host
                // got it. One extra microsecond on top of the control
                // latency guarantees the revoke lands after a simultaneous
                // install of the same rule.
                if let Some(h) = self.xlate_target(peer, &rule) {
                    self.sched.schedule_after(
                        self.cfg.ctrl_latency_us + 1,
                        Event::RemoveXlate { host: h, rule },
                    );
                }
            }
            Effect::Complete(complete) => self.finish_migration(mig, complete.process),
            Effect::Aborted(aborted) => self.finish_abort(mig, src, pid, aborted),
            // Interest handoff: subscriptions move with the sockets. The
            // engine emits these at the same phase boundaries as the
            // capture hooks, so the destination hears the zone's traffic
            // for the whole capture window and every abort row compensates
            // back to exactly one subscriber.
            Effect::Subscribe { zone, side } => {
                let host = if side == Side::Src { src } else { dst };
                let node = self.hosts[host].stack.node;
                self.router.interest_mut().subscribe(zone, node);
            }
            Effect::Unsubscribe { zone, side } => {
                let host = if side == Side::Src { src } else { dst };
                let node = self.hosts[host].stack.node;
                self.router.interest_mut().unsubscribe(zone, node);
            }
            // Capture entries are installed/removed by the engine directly
            // (it owns the destination stack during a step); the world only
            // indexes which migration did it, so pressure events can be
            // attributed exactly. `or_insert` mirrors the table's idempotent
            // `enable`: when two migrations share a key, the first installer
            // owns the entry until it removes it.
            Effect::InstallCapture { key } => {
                self.capture_owner.entry((dst, key)).or_insert(mig);
            }
            Effect::RemoveCapture { key } => {
                if self.capture_owner.get(&(dst, key)) == Some(&mig) {
                    self.capture_owner.remove(&(dst, key));
                }
            }
            // Trace-only effects: the recorder already folded them. (The
            // engine froze the threads itself when it emitted SuspendApp.)
            Effect::SuspendApp
            | Effect::PhaseEntered(_)
            | Effect::SocketDetached { .. }
            | Effect::Shipped { .. }
            | Effect::QueuePressure { .. }
            | Effect::PacketReinjected => {}
        }
    }

    fn finish_migration(&mut self, mig: MigId, process: Process) {
        let task = self
            .migrations
            .remove(&mig)
            .expect("finishing an active migration");
        let MigTask {
            src,
            dst,
            pid,
            recorder,
            ..
        } = task;
        self.migrating.remove(&pid);
        self.stalled_migs.remove(&mig);
        self.capture_owner.retain(|_, m| *m != mig);
        if let Some(m) = &mut self.monitor {
            m.on_transfer(self.sched.now(), pid, src, dst);
        }

        // Move the application object; replace the process with the restored
        // one. The source keeps nothing (no residual dependencies).
        let old = self.hosts[src]
            .procs
            .remove(&pid)
            .expect("process on source");
        self.hosts[src].unindex_proc_sockets(pid);
        let tick_period_us = old.tick_period_us;
        self.hosts[dst].procs.insert(
            pid,
            ProcEntry {
                process,
                app: old.app,
                tick_period_us,
                tick_gen: old.tick_gen,
            },
        );
        self.hosts[dst].reindex_proc_sockets(pid);
        self.reports.push(recorder.into_report());
        self.outcomes.insert(
            mig,
            MigrationOutcome::Completed {
                report: self.reports.len() - 1,
            },
        );

        // Resume the real-time loop on the destination and drain anything
        // that queued up during the freeze.
        self.restart_ticks(dst, pid);
        self.drain_proc_sockets(dst, pid);

        // Tell the sender-side conductor (which releases the receiver via
        // MigDone).
        let now = self.now();
        if let Some(c) = self.hosts[src].conductor.as_mut() {
            let effects = c.on_migration_finished(now, true);
            self.apply_lb_effects(src, effects);
        }
    }

    // ------------------------------------------------------------------
    // effect routing
    // ------------------------------------------------------------------

    fn apply_effects(&mut self, host: usize, mut fx: Vec<StackEffect>) {
        for effect in fx.drain(..) {
            self.apply_stack_effect(host, effect);
        }
        self.recycle_fx(fx);
    }

    /// Return an emptied effect vector to the pool so the next app callback
    /// starts with a warm buffer. Most stack calls hand back an unallocated
    /// `Vec::new()`; pooling one of those would only defer the allocation to
    /// the callback's first push, so only buffers with capacity are kept.
    /// Callers also hand in vectors the stack allocated itself, so the pool
    /// is capped to stay bounded.
    fn recycle_fx(&mut self, fx: Vec<StackEffect>) {
        debug_assert!(fx.is_empty());
        if fx.capacity() > 0 && self.stack_fx_pool.len() < FX_POOL_CAP {
            self.stack_fx_pool.push(fx);
        }
    }

    /// Push a socket's one pending retransmission fire at a reserved key.
    fn push_timer_fire(&mut self, host: usize, sock: SockId, key: DispatchKey) {
        let seq = key.seq;
        self.sched
            .schedule_reserved(key, Event::SockTimer { host, sock, seq });
    }

    fn apply_stack_effect(&mut self, host: usize, effect: StackEffect) {
        match effect {
            StackEffect::Tx { seg, route } => self.transmit(host, seg, route),
            StackEffect::DataReadable { sock } => {
                if let Some(&(pid, _)) = self.hosts[host].sock_owner.get(sock) {
                    let frozen = self.hosts[host]
                        .procs
                        .get(&pid)
                        .is_none_or(|e| e.process.is_frozen());
                    if !frozen {
                        self.sched
                            .schedule_after(APP_READ_DELAY_US, Event::AppRead { host, pid, sock });
                    }
                }
            }
            StackEffect::ArmTimer { sock, gen, at } => {
                // The key is taken now, so the fire that reaches this arm
                // dispatches where a push per arm would have put it.
                let key = self.sched.reserve_at(at);
                if self.hosts[host].timers.arm(sock, gen, key) {
                    self.push_timer_fire(host, sock, key);
                }
            }
            StackEffect::Established { sock } => {
                if let Some(&(pid, fd)) = self.hosts[host].sock_owner.get(sock) {
                    self.with_app(host, pid, |app, ctx| app.on_connected(ctx, fd));
                }
            }
            StackEffect::NewConnection { listener, child } => {
                if let Some(&(pid, lfd)) = self.hosts[host].sock_owner.get(listener) {
                    let cfd = {
                        let h = &mut self.hosts[host];
                        let entry = h.procs.get_mut(&pid).expect("listener owner exists");
                        let cfd = entry.process.fds.insert(FdEntry::Socket(child));
                        h.register_sock(child, pid, cfd);
                        cfd
                    };
                    self.with_app(host, pid, |app, ctx| app.on_new_connection(ctx, lfd, cfd));
                }
            }
            StackEffect::PeerFin { sock } => {
                if let Some(&(pid, fd)) = self.hosts[host].sock_owner.get(sock) {
                    self.with_app(host, pid, |app, ctx| app.on_conn_closed(ctx, fd));
                }
            }
            StackEffect::SockClosed { sock } => {
                self.hosts[host].sock_owner.remove(sock);
            }
            StackEffect::CapturePressure(ev) => {
                // The owning migration is the one that *installed* this
                // event's capture entry on the destination stack, per the
                // `capture_owner` index maintained from InstallCapture /
                // RemoveCapture effects. Two concurrent migrations into one
                // host can carry the same capture key
                // (`CaptureTable::enable` is idempotent, so they silently
                // share one entry); scanning for any engine whose key set
                // contains the key picked whichever sorted first and could
                // charge — and HardFail-abort — the wrong sibling.
                let owner = self.capture_owner.get(&(host, ev.key)).copied();
                // No migration owns the key: record the pressure on the
                // earliest migration into this host for observability, but
                // never abort a migration that does not own the queue.
                let mig = owner.or_else(|| {
                    self.migrations
                        .iter()
                        .filter(|(_, t)| t.dst == host)
                        .map(|(m, _)| *m)
                        .min()
                });
                let Some(mig) = mig else {
                    return; // hook outlived its migration; nothing to charge
                };
                let effect = Effect::QueuePressure {
                    key: ev.key,
                    queued_packets: ev.queued_packets,
                    queued_bytes: ev.queued_bytes,
                    shed_packets: ev.shed_packets,
                };
                self.record_effect(mig, self.now(), &effect);
                if ev.kind == PressureKind::HardFail && owner == Some(mig) {
                    self.abort_migration(mig, AbortReason::Overloaded);
                }
            }
        }
    }

    fn transmit(&mut self, host: usize, seg: Segment, route: Ip) {
        let now = self.now();
        let from = self.hosts[host].stack.node;
        if let Some(port) = self.log_port {
            if seg.src.port == port || seg.dst.port == port {
                self.packet_log.push(PacketLogEntry {
                    at: now,
                    from_host: host,
                    src: seg.src,
                    dst: seg.dst,
                    bytes: seg.wire_size(),
                });
            }
        }
        let bytes = seg.wire_size();
        if route == Ip::CLUSTER_PUBLIC {
            // Client → cluster. The router broadcasts to every node, except
            // that a frame for a zone-mapped port fans out only to that
            // zone's subscribers (a world that registers no zones is the
            // paper's pure broadcast). The arrival buffer is pooled, so the
            // fan-out allocates nothing per frame.
            let mut arrivals = std::mem::take(&mut self.arrival_buf);
            match self
                .router
                .inbound(now, from, bytes, seg.dst.port, &mut self.rng, &mut arrivals)
            {
                // Every member hears the frame at one instant, nothing cuts
                // the fan-out and every member's claims on the port are
                // what decides who keeps it: one event for the whole
                // cluster, carrying the member snapshot.
                Ok(Fanout::Every(at))
                    if self.partitions.is_empty() && seg.dst.ip == Ip::CLUSTER_PUBLIC =>
                {
                    match *self.members {
                        [] => {}
                        [host] => self
                            .sched
                            .schedule_at(at, Event::PacketArrival { host, seg }),
                        _ => {
                            let hosts = Rc::clone(&self.members);
                            self.sched
                                .schedule_at(at, Event::BroadcastArrival { hosts, seg });
                        }
                    }
                }
                Ok(fanout) => {
                    if let Fanout::Every(at) = fanout {
                        arrivals.extend(self.members.iter().map(|&h| (NodeId(h as u32), at)));
                    }
                    // A partition cuts the fan-out at the cut: recipients on
                    // the far side never hear the frame (TCP retransmits
                    // carry the data across once the partition heals).
                    if !self.partitions.is_empty() {
                        arrivals.retain(|&(node, _)| {
                            self.host_by_node(node)
                                .is_none_or(|h| !self.partitioned(host, h))
                        });
                    }
                    self.schedule_broadcast(&arrivals, seg);
                }
                Err(e) => self.note_route_error(now, e),
            }
            self.arrival_buf = arrivals;
        } else if let Some(client) = route.client_host() {
            // Server → client, unicast through the router.
            if let Some(h) = self.host_by_node(client) {
                if self.partitioned(host, h) {
                    return;
                }
                // A gracefully departed client racing an in-flight frame is
                // expected churn, not a routing fault: drop the frame as a
                // benign race instead of counting a route error against the
                // run.
                if self.departed_clients.contains(&h) {
                    self.benign_route_races += 1;
                    return;
                }
            }
            match self
                .router
                .outbound(now, from, client, bytes, &mut self.rng)
            {
                Ok(Some(at)) => {
                    if let Some(h) = self.host_by_node(client) {
                        self.sched
                            .schedule_at(at, Event::PacketArrival { host: h, seg });
                    }
                }
                Ok(None) => {} // loss model dropped the frame
                Err(e) => self.note_route_error(now, e),
            }
        } else if route.is_local() {
            if let Some(dest) = route.local_host() {
                let cut = self
                    .host_by_node(dest)
                    .is_some_and(|h| self.partitioned(host, h));
                if !cut && self.switch.is_attached(dest) {
                    if let Some(at) = self.switch.unicast(now, from, dest, bytes, &mut self.rng) {
                        if let Some(h) = self.host_by_node(dest) {
                            self.sched
                                .schedule_at(at, Event::PacketArrival { host: h, seg });
                        }
                    }
                }
            }
        }
        // Anything else (unknown destination) vanishes, like a frame to a
        // dark address.
    }

    /// Schedule a listed inbound fan-out as batched
    /// [`Event::BroadcastArrival`]s: one event per distinct arrival instant
    /// instead of one per node, each delivered host by host. Dispatch order
    /// is that of one event per node — at an equal instant they carried
    /// consecutive sequence numbers, so they ran in node order, which is
    /// the order each batch delivers, and groups at distinct instants sort
    /// by time exactly as the individual events did.
    fn schedule_broadcast(&mut self, arrivals: &[(NodeId, SimTime)], seg: Segment) {
        let Some(&(_, t0)) = arrivals.first() else {
            return; // uplink loss: nobody receives
        };
        // Common case: every recipient hears the frame at one instant.
        if arrivals.iter().all(|&(_, t)| t == t0) {
            self.schedule_group(t0, arrivals, seg);
            return;
        }
        // Rare case (per-node queueing or loss skewed the instants): group
        // by instant. The sort is stable, so node order survives within a
        // group.
        let mut sorted = arrivals.to_vec();
        sorted.sort_by_key(|&(_, t)| t);
        for group in sorted.chunk_by(|a, b| a.1 == b.1) {
            self.schedule_group(group[0].1, group, seg.clone());
        }
    }

    /// Schedule one broadcast group, degrading to a plain
    /// [`Event::PacketArrival`] for a single receiver.
    fn schedule_group(&mut self, at: SimTime, group: &[(NodeId, SimTime)], seg: Segment) {
        let hosts: Vec<usize> = group
            .iter()
            .filter_map(|&(node, _)| self.host_by_node(node))
            .collect();
        match hosts[..] {
            [] => {}
            [host] => self
                .sched
                .schedule_at(at, Event::PacketArrival { host, seg }),
            _ => {
                let hosts = hosts.into();
                self.sched
                    .schedule_at(at, Event::BroadcastArrival { hosts, seg });
            }
        }
    }

    /// Deliver a uniform broadcast: the group counts the frame once as
    /// dropped by every member, and only the members that claim its port
    /// run the receive path, in node order. A delivery's effects can change
    /// what the members claim, so the index is brought up to date before
    /// each lookup; a member it skips is one the per-host path would have
    /// found holding no claim at that point, and debug builds check each
    /// one with its own stack.
    fn deliver_uniform(&mut self, seg: &Segment) {
        let now = self.now();
        self.rx_group.count_unclaimed(seg.checksum_ok);
        let mut next = 0;
        loop {
            self.sync_claimants();
            let claimant = self.claimants.get(&seg.dst.port).and_then(|hosts| {
                let i = hosts.partition_point(|&h| h < next);
                hosts.get(i).copied()
            });
            if cfg!(debug_assertions) {
                self.audit_skipped(seg, next, claimant.unwrap_or(usize::MAX));
            }
            let Some(host) = claimant else {
                return;
            };
            let fx = self.hosts[host].stack.on_rx_claimed(seg, now);
            if !fx.is_empty() {
                self.apply_effects(host, fx);
            }
            next = host + 1;
        }
    }

    /// Debug builds: every member in `from..to` was skipped by a uniform
    /// delivery, so its own stack must find no claim on the frame.
    fn audit_skipped(&self, seg: &Segment, from: usize, to: usize) {
        for &m in self.members.iter().filter(|&&m| (from..to).contains(&m)) {
            debug_assert!(self.hosts[m].alive, "member {m} is dead");
            self.hosts[m].stack.audit_skipped(seg);
        }
    }

    /// Account a frame the router refused to route (unknown endpoint —
    /// normally a crashed or departed host racing an in-flight frame). The
    /// error rides the same observability rails as migration effects: a
    /// counter plus a rendered line in the effect log when enabled.
    fn note_route_error(&mut self, now: SimTime, err: RouteError) {
        self.route_errors += 1;
        if let Some(log) = &mut self.effect_log {
            log.push(format!("{}us route-error {}", now.as_micros(), err));
        }
    }
}

/// The source and destination hosts of a migration, borrowed together
/// (`src != dst`): the engine drives both stacks in one call.
fn host_pair(hosts: &mut [Host], src: usize, dst: usize) -> (&mut Host, &mut Host) {
    let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
    let (left, right) = hosts.split_at_mut(hi);
    if src < dst {
        (&mut left[lo], &mut right[0])
    } else {
        (&mut right[0], &mut left[lo])
    }
}

/// When a timed chaos window closes: `for_us == 0` means "until further
/// notice" (the window never expires on its own), mirroring the permanent
/// form of [`Fault::Partition`].
fn chaos_until(now: SimTime, for_us: u64) -> SimTime {
    if for_us == 0 {
        SimTime(u64::MAX)
    } else {
        now + for_us
    }
}

/// The inert stand-in app installed on a destination that commits a stale
/// copy during a fence-disabled split-brain window (see
/// [`World::finish_abort`]'s `RestoredOnSource` arm). It never ticks — the
/// duplicate exists so ownership accounting (and the invariant monitor) can
/// see it, not so it can do work.
struct OrphanApp;

impl App for OrphanApp {
    fn on_tick(&mut self, _ctx: &mut AppCtx<'_>) {}
}

/// Compact one-line rendering of a migration effect for the optional effect
/// log (see [`World::enable_effect_log`]). `Complete` is rendered without its
/// payload — the carried process image is large and its address-space debug
/// output is not what determinism checks want to compare.
fn render_effect(mig: MigId, at: SimTime, effect: &Effect) -> String {
    match effect {
        Effect::Complete(_) => format!("{}us mig={} Complete", at.as_micros(), mig),
        Effect::Aborted(a) => format!(
            "{}us mig={} Aborted {{ phase: {:?}, reason: {}, recovery: {} }}",
            at.as_micros(),
            mig,
            a.phase,
            a.reason.label(),
            a.recovery.label(),
        ),
        e => format!("{}us mig={} {:?}", at.as_micros(), mig, e),
    }
}
