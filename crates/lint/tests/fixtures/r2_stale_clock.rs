//! R2 fixture: the PR 3 stale-clock incident, minimized. A clock-less
//! convenience wrapper invents `SimTime::ZERO` for a clock-threaded API, so
//! every xlate rule it installs is born stale and TTL GC evicts it while
//! packets are still matching it; R9 flags that wrapper. A second path
//! mutates the TTL stamp without taking `now` at all; R2 flags that one.
//! Linted under the virtual path `crates/stack/src/fixture.rs`.

use dvelm_sim::SimTime;

/// An address-translation rule with its TTL liveness stamp.
pub struct TimedRule {
    /// Sim time of the last packet that matched this rule.
    pub last_hit: SimTime,
}

/// A miniature xlate table.
pub struct Table {
    rules: Vec<TimedRule>,
}

impl Table {
    /// Installs a rule, stamping it live at `now`. (Clean: the clock is
    /// threaded through.)
    pub fn install_at(&mut self, mut rule: TimedRule, now: SimTime) {
        rule.last_hit = now;
        self.rules.push(rule);
    }

    /// BAD (R9): the clock-less wrapper PR 3 shipped — `SimTime::ZERO` fed
    /// to the clock-threaded call site.
    pub fn install(&mut self, rule: TimedRule) {
        self.install_at(rule, SimTime::ZERO);
    }

    /// BAD (R2): refreshes the TTL stamp but takes no `now` parameter, so
    /// the function can only invent a clock.
    pub fn refresh_all(&mut self) {
        for rule in &mut self.rules {
            rule.last_hit = SimTime::ZERO;
        }
    }
}
