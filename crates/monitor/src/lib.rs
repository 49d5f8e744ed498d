//! Always-on invariant monitor for the cluster simulation.
//!
//! The partition-tolerant control plane makes claims that are easy to state
//! and easy to silently break: at any instant each process has exactly one
//! live copy, a process only vanishes when the host holding it died, capture
//! traffic stays within its budget, and the epoch a process migrates under
//! never goes backwards. This crate is the referee: the world feeds it
//! ownership events as they happen, and it records a typed
//! [`InvariantViolation`] the moment reality diverges from the model —
//! instead of a test failing three hundred simulated seconds later with a
//! mysterious counter mismatch.
//!
//! Design constraints:
//!
//! - **Passive.** The monitor never schedules events, never draws from the
//!   simulation RNG, and never mutates the world. Enabling it cannot change
//!   a single byte of the deterministic effect stream (asserted by the
//!   determinism-replay suite).
//! - **Zero cost when disabled.** The world holds an
//!   `Option<InvariantMonitor>`; every hook site is a single `if let` on
//!   that option.
//! - **Typed, deduplicated findings.** Violations are data, not panics, so
//!   chaos soaks can run to completion and report everything they saw; a
//!   condition that persists across sweeps is recorded once.

use dvelm_proc::Pid;
use dvelm_sim::SimTime;
use std::collections::BTreeMap;

/// A broken invariant, with enough context to debug it from the report
/// alone. All variants carry the simulation time at which the monitor
/// noticed the breakage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two live copies of one process exist at once — the precise failure
    /// the epoch/lease fencing protocol exists to prevent. `first` is the
    /// host the monitor believed owned the pid, `second` the host where a
    /// second copy appeared.
    SplitBrain {
        pid: Pid,
        first: usize,
        second: usize,
        at: SimTime,
    },
    /// A process disappeared from a host that is still alive: neither
    /// exited, nor migrated, nor lost to a crash.
    LostProcess { pid: Pid, host: usize, at: SimTime },
    /// A migration of `pid` started under an epoch no greater than one
    /// already witnessed for it — a stale negotiation slipped past the
    /// fence.
    NonMonotonicEpoch {
        pid: Pid,
        prev: u64,
        next: u64,
        at: SimTime,
    },
    /// A capture stream exceeded its configured packet budget.
    CapturePacketsOverBudget { peak: u64, budget: u64, at: SimTime },
    /// A capture stream exceeded its configured byte budget.
    CaptureBytesOverBudget { peak: u64, budget: u64, at: SimTime },
    /// An ownership event referenced a host the monitor never saw own the
    /// pid (bookkeeping desync between world and monitor — itself a bug).
    UnknownOwner { pid: Pid, host: usize, at: SimTime },
    /// An interest-table subscription for `pid`'s zone points at a host
    /// that does not own the process (and the pid is not mid-migration,
    /// when both ends legitimately subscribe). A leaked subscription turns
    /// the zoned fast path back into a partial broadcast — or worse,
    /// delivers a zone's traffic to a node with no server for it. `zone`
    /// is the raw zone id (this crate doesn't depend on the net crate).
    SubscriptionLeak {
        pid: Pid,
        zone: u32,
        host: usize,
        at: SimTime,
    },
    /// `pid`'s threads are frozen on a live `host` with no migration of it
    /// in flight. Only the migration engine freezes a process, and every
    /// way a migration ends resumes or replaces the frozen copy; a process
    /// left frozen never ticks again.
    FrozenWithoutMigration { pid: Pid, host: usize, at: SimTime },
}

impl InvariantViolation {
    /// Stable label for reports and assertions.
    pub fn label(&self) -> &'static str {
        match self {
            InvariantViolation::SplitBrain { .. } => "split brain",
            InvariantViolation::LostProcess { .. } => "lost process",
            InvariantViolation::NonMonotonicEpoch { .. } => "non-monotonic epoch",
            InvariantViolation::CapturePacketsOverBudget { .. } => "capture packets over budget",
            InvariantViolation::CaptureBytesOverBudget { .. } => "capture bytes over budget",
            InvariantViolation::UnknownOwner { .. } => "unknown owner",
            InvariantViolation::SubscriptionLeak { .. } => "subscription leak",
            InvariantViolation::FrozenWithoutMigration { .. } => "frozen without migration",
        }
    }
}

/// The monitor proper: a shadow ownership model plus the violations found.
#[derive(Debug, Clone, Default)]
pub struct InvariantMonitor {
    /// Which host owns each live process. A pid mid-migration stays owned
    /// by the source until the destination restore commits.
    owners: BTreeMap<Pid, usize>,
    /// Highest epoch witnessed per pid across all migrations.
    epochs: BTreeMap<Pid, u64>,
    violations: Vec<InvariantViolation>,
}

impl InvariantMonitor {
    /// A fresh monitor with no knowledge and no findings.
    pub fn new() -> InvariantMonitor {
        InvariantMonitor::default()
    }

    fn record(&mut self, v: InvariantViolation) {
        // A persisting condition (e.g. a split brain observed by every
        // sweep until healed) is recorded once.
        if !self.violations.contains(&v) {
            self.violations.push(v);
        }
    }

    /// All violations observed so far, in discovery order.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// The host currently believed to own `pid`.
    pub fn owner_of(&self, pid: Pid) -> Option<usize> {
        self.owners.get(&pid).copied()
    }

    // -----------------------------------------------------------------
    // Ownership event hooks (called by the world as things happen).
    // -----------------------------------------------------------------

    /// A process was created on `host`.
    pub fn on_spawn(&mut self, now: SimTime, pid: Pid, host: usize) {
        if let Some(&first) = self.owners.get(&pid) {
            self.record(InvariantViolation::SplitBrain {
                pid,
                first,
                second: host,
                at: now,
            });
            return;
        }
        self.owners.insert(pid, host);
    }

    /// A live copy of `pid` appeared on `host` outside a tracked spawn or
    /// migration commit — e.g. a partition-healed destination resuming a
    /// checkpoint. Legitimate only if nobody else owns the pid.
    pub fn on_adopt(&mut self, now: SimTime, pid: Pid, host: usize) {
        match self.owners.get(&pid) {
            Some(&first) if first != host => self.record(InvariantViolation::SplitBrain {
                pid,
                first,
                second: host,
                at: now,
            }),
            _ => {
                self.owners.insert(pid, host);
            }
        }
    }

    /// A migration of `pid` committed: the destination restore succeeded
    /// and the source image was discarded.
    pub fn on_transfer(&mut self, now: SimTime, pid: Pid, from: usize, to: usize) {
        match self.owners.get(&pid) {
            Some(&owner) if owner == from => {
                self.owners.insert(pid, to);
            }
            Some(&owner) => {
                // The source didn't own it: a second copy just landed.
                self.record(InvariantViolation::SplitBrain {
                    pid,
                    first: owner,
                    second: to,
                    at: now,
                });
            }
            None => {
                self.record(InvariantViolation::UnknownOwner {
                    pid,
                    host: from,
                    at: now,
                });
                self.owners.insert(pid, to);
            }
        }
    }

    /// `pid` exited (or was deliberately killed) on `host`.
    pub fn on_exit(&mut self, now: SimTime, pid: Pid, host: usize) {
        match self.owners.remove(&pid) {
            Some(owner) if owner == host => {}
            _ => self.record(InvariantViolation::UnknownOwner { pid, host, at: now }),
        }
    }

    /// `host` died. Every process it owned goes down with it — that is a
    /// casualty, not a violation.
    pub fn on_host_down(&mut self, host: usize) {
        self.owners.retain(|_, h| *h != host);
    }

    /// `pid`'s image was destroyed while its host was still alive
    /// (`host_alive == true` makes this a violation; a dead host is the
    /// `on_host_down` path and forgiven).
    pub fn on_lost(&mut self, now: SimTime, pid: Pid, host_alive: bool) {
        let host = self.owners.remove(&pid);
        if host_alive {
            self.record(InvariantViolation::LostProcess {
                pid,
                host: host.unwrap_or(usize::MAX),
                at: now,
            });
        }
    }

    /// A migration of `pid` is starting under `epoch`. Epoch 0 is the
    /// manual/unfenced path and exempt; otherwise each migration must carry
    /// a strictly larger epoch than every earlier one for the same pid.
    pub fn on_epoch(&mut self, now: SimTime, pid: Pid, epoch: u64) {
        if epoch == 0 {
            return;
        }
        let prev = self.epochs.get(&pid).copied().unwrap_or(0);
        if epoch <= prev {
            self.record(InvariantViolation::NonMonotonicEpoch {
                pid,
                prev,
                next: epoch,
                at: now,
            });
        } else {
            self.epochs.insert(pid, epoch);
        }
    }

    // -----------------------------------------------------------------
    // Sweep checks (called with world-derived observations).
    // -----------------------------------------------------------------

    /// Compare capture-stream peaks against their budgets.
    pub fn check_capture(
        &mut self,
        now: SimTime,
        peak_packets: u64,
        max_packets: u64,
        peak_bytes: u64,
        max_bytes: u64,
    ) {
        if peak_packets > max_packets {
            self.record(InvariantViolation::CapturePacketsOverBudget {
                peak: peak_packets,
                budget: max_packets,
                at: now,
            });
        }
        if peak_bytes > max_bytes {
            self.record(InvariantViolation::CaptureBytesOverBudget {
                peak: peak_bytes,
                budget: max_bytes,
                at: now,
            });
        }
    }

    /// Check one interest-table subscription against the ownership model.
    /// `subscriber` is the host a router subscription for `pid`'s `zone`
    /// points at; it must be the pid's owner. Callers skip pids that are
    /// mid-migration — the loss-prevention mechanism subscribes the
    /// destination while the source still owns the process, and that
    /// transient double subscription is the design, not a leak.
    pub fn check_subscription(&mut self, now: SimTime, pid: Pid, zone: u32, subscriber: usize) {
        if self.owner_of(pid) != Some(subscriber) {
            self.record(InvariantViolation::SubscriptionLeak {
                pid,
                zone,
                host: subscriber,
                at: now,
            });
        }
    }

    /// Check one frozen process: `pid`'s threads are frozen on `host`,
    /// which is legitimate only while a migration of it is in flight.
    pub fn check_frozen(&mut self, now: SimTime, pid: Pid, host: usize, migrating: bool) {
        if !migrating {
            self.record(InvariantViolation::FrozenWithoutMigration { pid, host, at: now });
        }
    }

    /// Reconcile the shadow model against the world's actual live set:
    /// every `(pid, host)` pair currently runnable or frozen-in-place.
    /// Catches drift in either direction — a live copy the model doesn't
    /// know (split brain) and a modelled owner with no live copy (lost
    /// process), the latter only for hosts still alive per `host_alive`.
    pub fn reconcile<F>(&mut self, now: SimTime, live: &[(Pid, usize)], host_alive: F)
    where
        F: Fn(usize) -> bool,
    {
        let mut seen: BTreeMap<Pid, usize> = BTreeMap::new();
        for &(pid, host) in live {
            if let Some(&other) = seen.get(&pid) {
                if other != host {
                    self.record(InvariantViolation::SplitBrain {
                        pid,
                        first: other,
                        second: host,
                        at: now,
                    });
                }
                continue;
            }
            seen.insert(pid, host);
            match self.owners.get(&pid) {
                Some(&owner) if owner != host => self.record(InvariantViolation::SplitBrain {
                    pid,
                    first: owner,
                    second: host,
                    at: now,
                }),
                Some(_) => {}
                None => self.record(InvariantViolation::UnknownOwner { pid, host, at: now }),
            }
        }
        let missing: Vec<(Pid, usize)> = self
            .owners
            .iter()
            .filter(|(pid, host)| !seen.contains_key(pid) && host_alive(**host))
            .map(|(pid, host)| (*pid, *host))
            .collect();
        for (pid, host) in missing {
            self.record(InvariantViolation::LostProcess { pid, host, at: now });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime(1_000_000);

    #[test]
    fn clean_lifecycle_records_nothing() {
        let mut m = InvariantMonitor::new();
        m.on_spawn(T, Pid(1), 0);
        m.on_epoch(T, Pid(1), 1);
        m.on_transfer(T, Pid(1), 0, 2);
        assert_eq!(m.owner_of(Pid(1)), Some(2));
        m.on_epoch(T, Pid(1), 2);
        m.on_transfer(T, Pid(1), 2, 1);
        m.on_exit(T, Pid(1), 1);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        assert_eq!(m.owner_of(Pid(1)), None);
    }

    #[test]
    fn second_live_copy_is_split_brain() {
        let mut m = InvariantMonitor::new();
        m.on_spawn(T, Pid(7), 0);
        m.on_adopt(T, Pid(7), 3);
        assert_eq!(
            m.violations(),
            &[InvariantViolation::SplitBrain {
                pid: Pid(7),
                first: 0,
                second: 3,
                at: T
            }]
        );
        // The same persisting condition is not recorded twice.
        m.on_adopt(T, Pid(7), 3);
        assert_eq!(m.violations().len(), 1);
        // Re-adoption on the owning host is fine.
        let mut m2 = InvariantMonitor::new();
        m2.on_spawn(T, Pid(7), 0);
        m2.on_adopt(T, Pid(7), 0);
        assert!(m2.violations().is_empty());
    }

    #[test]
    fn frozen_process_needs_a_migration_in_flight() {
        let mut m = InvariantMonitor::new();
        m.check_frozen(T, Pid(4), 1, true);
        assert!(m.violations().is_empty());
        m.check_frozen(T, Pid(4), 1, false);
        assert_eq!(
            m.violations(),
            &[InvariantViolation::FrozenWithoutMigration {
                pid: Pid(4),
                host: 1,
                at: T
            }]
        );
    }

    #[test]
    fn host_death_forgives_its_processes() {
        let mut m = InvariantMonitor::new();
        m.on_spawn(T, Pid(1), 0);
        m.on_spawn(T, Pid(2), 1);
        m.on_host_down(0);
        assert_eq!(m.owner_of(Pid(1)), None);
        assert_eq!(m.owner_of(Pid(2)), Some(1));
        // Losing pid 2 while host 1 lives IS a violation.
        m.on_lost(T, Pid(2), true);
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].label(), "lost process");
    }

    #[test]
    fn epochs_must_strictly_increase_except_manual_zero() {
        let mut m = InvariantMonitor::new();
        m.on_epoch(T, Pid(1), 3);
        m.on_epoch(T, Pid(1), 0); // manual path: exempt
        m.on_epoch(T, Pid(1), 4);
        assert!(m.violations().is_empty());
        m.on_epoch(T, Pid(1), 4);
        assert_eq!(
            m.violations(),
            &[InvariantViolation::NonMonotonicEpoch {
                pid: Pid(1),
                prev: 4,
                next: 4,
                at: T
            }]
        );
    }

    #[test]
    fn capture_budget_checks() {
        let mut m = InvariantMonitor::new();
        m.check_capture(T, 64, 64, 1000, 2000);
        assert!(m.violations().is_empty());
        m.check_capture(T, 65, 64, 3000, 2000);
        assert_eq!(m.violations().len(), 2);
    }

    #[test]
    fn subscription_must_point_at_owner() {
        let mut m = InvariantMonitor::new();
        m.on_spawn(T, Pid(4), 2);
        m.check_subscription(T, Pid(4), 9, 2);
        assert!(m.violations().is_empty());
        m.check_subscription(T, Pid(4), 9, 5);
        m.check_subscription(T, Pid(4), 9, 5); // persisting condition: once
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].label(), "subscription leak");
    }

    #[test]
    fn reconcile_catches_drift_both_ways() {
        let mut m = InvariantMonitor::new();
        m.on_spawn(T, Pid(1), 0);
        m.on_spawn(T, Pid(2), 1);
        // Matching reality: clean.
        m.reconcile(T, &[(Pid(1), 0), (Pid(2), 1)], |_| true);
        assert!(m.violations().is_empty());
        // Pid 1 also alive on host 3 → split brain; pid 2 gone while its
        // host lives → lost.
        m.reconcile(T, &[(Pid(1), 0), (Pid(1), 3)], |_| true);
        let labels: Vec<&str> = m.violations().iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["split brain", "lost process"]);
        // A dead host excuses the missing process.
        let mut m2 = InvariantMonitor::new();
        m2.on_spawn(T, Pid(9), 4);
        m2.reconcile(T, &[], |h| h != 4);
        assert!(m2.violations().is_empty());
    }
}
