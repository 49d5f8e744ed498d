//! Local address translation for in-cluster connection migration (§III-C,
//! §V-D).
//!
//! When process *P* migrates from host `IP1` to `IP2` while holding a
//! connection to a process on `IP3`, host `IP3` installs a translation rule:
//! outgoing packets addressed to `IP1` are rewritten to `IP2`, incoming
//! packets from `IP2` have their source rewritten to `IP1`. The peer's socket
//! never observes the move.
//!
//! Two kernel subtleties from §V-D are modelled explicitly:
//!
//! * **the IP destination-cache entry** — each outgoing packet inherits a
//!   cached route from its socket; merely rewriting the header still sends
//!   the frame to the *old* destination. A rule created with
//!   `fix_dst_cache = false` reproduces that bug: the returned route IP stays
//!   `IP1` even though the header says `IP2`, and the frame dies on the wrong
//!   host.
//! * **the TCP checksum** — rewriting addresses invalidates the transport
//!   checksum; `fix_checksum = false` leaves `Segment::checksum_ok` false and
//!   the receiving stack drops the segment.

use crate::ports::PortClaims;
use crate::seg::Segment;
use dvelm_net::{Ip, Port, SockAddr};
use dvelm_sim::SimTime;
use std::borrow::Cow;

/// One translation rule, installed on the *peer's* host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XlateRule {
    /// The peer's local endpoint of the connection (`IP3:p3`).
    pub peer_local: SockAddr,
    /// The migrated socket's original host (`IP1`).
    pub old_remote_ip: Ip,
    /// The migrated socket's new host (`IP2`).
    pub new_remote_ip: Ip,
    /// The migrated socket's port (`p1`).
    pub remote_port: Port,
    /// Update the transport checksum after rewriting (§V-D fix).
    pub fix_checksum: bool,
    /// Replace the socket's destination-cache entry (§V-D fix).
    pub fix_dst_cache: bool,
}

impl XlateRule {
    /// A correctly configured rule (both §V-D fixes applied).
    pub fn new(
        peer_local: SockAddr,
        old_remote_ip: Ip,
        new_remote_ip: Ip,
        remote_port: Port,
    ) -> XlateRule {
        XlateRule {
            peer_local,
            old_remote_ip,
            new_remote_ip,
            remote_port,
            fix_checksum: true,
            fix_dst_cache: true,
        }
    }
}

/// The *destination-side* half of in-cluster migration: a migrated socket
/// keeps its original endpoint identity (`IP1:p1` — that is what the peer's
/// socket believes it talks to), so the host that now runs it rewrites its
/// own traffic: outgoing source `IP1→IP2` (the wire carries the new host's
/// address, as §III-C describes), incoming destination `IP2→IP1` before
/// socket lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfXlateRule {
    /// The migrated socket's original local endpoint (`IP1:p1`).
    pub sock_local: SockAddr,
    /// The in-cluster peer of the connection (`IP3:p3`).
    pub peer: SockAddr,
    /// This host's local address (`IP2`).
    pub host_ip: Ip,
}

/// Counters for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XlateStats {
    /// Outgoing segments rewritten by `LOCAL_OUT`.
    pub rewritten_out: u64,
    /// Incoming segments rewritten by `LOCAL_IN`.
    pub rewritten_in: u64,
    /// Peer rules evicted by TTL garbage collection ([`XlateTable::gc`]).
    pub gc_evicted: u64,
    /// Peer rules shed (least recently hit first) to respect `max_rules`.
    pub shed_rules: u64,
}

/// A peer rule plus the liveness bookkeeping TTL GC needs. The timestamps
/// live here, *outside* [`XlateRule`], so the rule itself stays `Copy +
/// PartialEq` (it is embedded in effects and compared by tests).
#[derive(Debug, Clone, Copy)]
struct TimedRule {
    rule: XlateRule,
    /// Last time the rule matched a packet (or its install time).
    last_hit: SimTime,
}

/// The per-host translation table, consulted on `LOCAL_OUT` and `LOCAL_IN`.
#[derive(Debug)]
pub struct XlateTable {
    rules: Vec<TimedRule>,
    self_rules: Vec<SelfXlateRule>,
    /// The ports arriving frames must carry to match a rule: each peer
    /// rule's `peer_local` port and each self rule's `sock_local` port.
    /// The receive path's summary of which frames this table rewrites.
    ports: PortClaims,
    stats: XlateStats,
    /// Budget: max peer rules before least-recently-hit shedding.
    max_rules: usize,
}

impl Default for XlateTable {
    fn default() -> XlateTable {
        XlateTable {
            rules: Vec::new(),
            self_rules: Vec::new(),
            ports: PortClaims::default(),
            stats: XlateStats::default(),
            max_rules: usize::MAX,
        }
    }
}

impl XlateTable {
    /// An empty table.
    pub fn new() -> XlateTable {
        XlateTable::default()
    }

    /// Install a rule with the installation time recorded, so TTL GC can age
    /// the rule from `now` even if it never matches. A later rule for the
    /// same connection replaces the earlier one (re-migration of the same
    /// peer process). There is deliberately no clock-less variant: every
    /// caller must thread the sim clock (rule R2 — PR 3 shipped a default of
    /// `SimTime::ZERO` here and TTL GC evicted live rules).
    pub fn install_at(&mut self, rule: XlateRule, now: SimTime) {
        self.remove(rule.peer_local, rule.old_remote_ip, rule.remote_port);
        self.rules.push(TimedRule {
            rule,
            last_hit: now,
        });
        self.ports.add(rule.peer_local.port);
        // Budget: shed the least recently hit rule (never the newcomer).
        while self.rules.len() > self.max_rules {
            let oldest = self
                .rules
                .iter()
                .enumerate()
                .take(self.rules.len() - 1)
                .min_by_key(|(_, t)| t.last_hit)
                .map(|(i, _)| i);
            match oldest {
                Some(i) => {
                    let shed = self.rules.remove(i);
                    self.ports.remove(shed.rule.peer_local.port);
                    self.stats.shed_rules += 1;
                }
                None => break,
            }
        }
    }

    /// Cap the number of peer rules (default: unlimited). When an install
    /// exceeds the cap, the least recently hit rule is shed.
    pub fn set_max_rules(&mut self, max_rules: usize) {
        self.max_rules = max_rules;
    }

    /// TTL garbage collection, driven by the world clock: evict peer rules
    /// that have not matched a packet for longer than `ttl_us`. A closed
    /// connection stops producing hits, so its (remote, port) entry ages
    /// out instead of leaking forever; live connections refresh their rule
    /// on every packet. Self-rules are never GC'd — they define a hosted
    /// socket's identity, not a flow. Returns the evicted rules.
    pub fn gc(&mut self, now: SimTime, ttl_us: u64) -> Vec<XlateRule> {
        let (dead, live): (Vec<TimedRule>, Vec<TimedRule>) = self
            .rules
            .iter()
            .partition(|t| now.saturating_since(t.last_hit) > ttl_us);
        self.rules = live;
        self.stats.gc_evicted += dead.len() as u64;
        self.release_rules(dead)
    }

    /// Remove every rule for the given connection; returns how many were
    /// removed.
    pub fn remove(&mut self, peer_local: SockAddr, old_remote_ip: Ip, remote_port: Port) -> usize {
        let before = self.rules.len();
        let ports = &mut self.ports;
        self.rules.retain(|t| {
            let hit = t.rule.peer_local == peer_local
                && t.rule.old_remote_ip == old_remote_ip
                && t.rule.remote_port == remote_port;
            if hit {
                ports.remove(peer_local.port);
            }
            !hit
        });
        before - self.rules.len()
    }

    /// Release the port claims of peer rules just taken out of the table.
    fn release_rules(&mut self, gone: Vec<TimedRule>) -> Vec<XlateRule> {
        gone.into_iter()
            .map(|t| {
                self.ports.remove(t.rule.peer_local.port);
                t.rule
            })
            .collect()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Install a destination-side rule for a socket this host just received
    /// via migration. Replaces any previous rule for the same socket.
    pub fn install_self(&mut self, rule: SelfXlateRule) {
        self.take_self_rules_where(|r| r.sock_local == rule.sock_local && r.peer == rule.peer);
        self.self_rules.push(rule);
        self.ports.add(rule.sock_local.port);
    }

    /// Remove destination-side rules for a socket that is migrating away
    /// (leaves no residual dependency on this host).
    pub fn remove_self(&mut self, sock_local: SockAddr) -> usize {
        self.take_self_rules_for(sock_local).len()
    }

    /// Number of destination-side rules.
    pub fn self_rule_count(&self) -> usize {
        self.self_rules.len()
    }

    /// Whether `ip` is a "virtual" local address this host answers for (the
    /// original address of a migrated socket it hosts).
    pub fn owns_virtual(&self, ip: Ip) -> bool {
        self.self_rules.iter().any(|r| r.sock_local.ip == ip)
    }

    /// Remove and return the destination-side rules for a socket that is
    /// migrating away — like [`remove_self`](Self::remove_self), but the
    /// caller keeps the rules so an aborted migration can reinstate them.
    pub fn take_self_rules_for(&mut self, sock_local: SockAddr) -> Vec<SelfXlateRule> {
        self.take_self_rules_where(|r| r.sock_local == sock_local)
    }

    /// Remove and return the self rules `pred` selects, releasing their
    /// port claims.
    fn take_self_rules_where(
        &mut self,
        pred: impl Fn(&SelfXlateRule) -> bool,
    ) -> Vec<SelfXlateRule> {
        let (taken, kept): (Vec<SelfXlateRule>, Vec<SelfXlateRule>) =
            self.self_rules.iter().partition(|r| pred(r));
        self.self_rules = kept;
        for r in &taken {
            self.ports.remove(r.sock_local.port);
        }
        taken
    }

    /// Remove and return the peer-side rules whose local endpoint is
    /// `peer_local` — used when the process owning that endpoint migrates:
    /// its view of *other* migrated peers must travel with it.
    pub fn take_rules_for(&mut self, peer_local: SockAddr) -> Vec<XlateRule> {
        let (taken, kept): (Vec<TimedRule>, Vec<TimedRule>) = self
            .rules
            .iter()
            .partition(|t| t.rule.peer_local == peer_local);
        self.rules = kept;
        self.release_rules(taken)
    }

    /// `LOCAL_OUT` hook: rewrite a locally-originated segment. A segment may
    /// match *both* a self-rule (this host runs a migrated socket: source is
    /// rewritten to this host's address) and a peer-rule (the remote endpoint
    /// has migrated too: destination is rewritten to its current host) — the
    /// both-endpoints-migrated case the paper leaves as future work.
    /// Returns the IP the frame is actually *routed* to — equal to the
    /// rewritten header destination only when the rule fixes the
    /// destination-cache entry. Takes the sim clock so matched peer rules
    /// refresh their TTL (outbound-only flows count as activity).
    pub fn outgoing_at(&mut self, seg: &mut Segment, now: SimTime) -> Ip {
        let mut route = seg.dst.ip;
        // Self half: restore the wire source to this host's address.
        // (The source is always the socket's unrewritten identity here, so
        // exact matching is safe.)
        let self_hit = self
            .self_rules
            .iter()
            .find(|r| seg.src == r.sock_local && seg.dst.port == r.peer.port)
            .copied();
        if let Some(rule) = self_hit {
            seg.rewrite_src_ip(rule.host_ip, true);
            self.stats.rewritten_out += 1;
        }
        // Peer half: send to wherever the remote endpoint lives now. The
        // source may already be rewritten, so match the peer's endpoint by
        // port.
        let peer_hit = self.rules.iter().position(|t| {
            seg.src.port == t.rule.peer_local.port
                && seg.dst.ip == t.rule.old_remote_ip
                && seg.dst.port == t.rule.remote_port
        });
        if let Some(i) = peer_hit {
            self.rules[i].last_hit = self.rules[i].last_hit.max(now);
            let rule = self.rules[i].rule;
            seg.rewrite_dst_ip(rule.new_remote_ip, rule.fix_checksum);
            self.stats.rewritten_out += 1;
            route = if rule.fix_dst_cache {
                rule.new_remote_ip
            } else {
                // Stale destination-cache entry: the frame still goes to
                // the old host despite the rewritten header.
                rule.old_remote_ip
            };
        }
        route
    }

    /// `LOCAL_IN` hook: rewrite an arriving segment. As with
    /// [`outgoing_at`](Self::outgoing_at), the self half (destination back to
    /// the migrated socket's identity) and the peer half (source back to the
    /// remote's original identity) compose; ports anchor the matches because
    /// either address may still be in its on-wire form. Takes the sim clock
    /// so matched peer rules refresh their TTL. A borrowed segment is copied
    /// only when a rule actually rewrites it.
    pub fn incoming_at(&mut self, seg: &mut Cow<'_, Segment>, now: SimTime) {
        if let Some(rule) = self.self_hit_in(seg) {
            seg.to_mut().rewrite_dst_ip(rule.sock_local.ip, true);
            self.stats.rewritten_in += 1;
        }
        if let Some(i) = self.peer_hit_in(seg) {
            self.rules[i].last_hit = self.rules[i].last_hit.max(now);
            let rule = self.rules[i].rule;
            seg.to_mut()
                .rewrite_src_ip(rule.old_remote_ip, rule.fix_checksum);
            self.stats.rewritten_in += 1;
        }
    }

    /// The self rule whose destination half rewrites arriving `seg`.
    fn self_hit_in(&self, seg: &Segment) -> Option<SelfXlateRule> {
        self.self_rules
            .iter()
            .find(|r| {
                seg.dst.ip == r.host_ip
                    && seg.dst.port == r.sock_local.port
                    && seg.src.port == r.peer.port
            })
            .copied()
    }

    /// The index of the peer rule whose source half rewrites arriving
    /// `seg`. It matches on ports and the source only, so the self half's
    /// destination rewrite never changes the answer.
    fn peer_hit_in(&self, seg: &Segment) -> Option<usize> {
        self.rules.iter().position(|t| {
            seg.dst.port == t.rule.peer_local.port
                && seg.src.ip == t.rule.new_remote_ip
                && seg.src.port == t.rule.remote_port
        })
    }

    /// Whether [`incoming_at`](Self::incoming_at) would rewrite `seg`.
    pub(crate) fn rewrites_incoming(&self, seg: &Segment) -> bool {
        self.self_hit_in(seg).is_some() || self.peer_hit_in(seg).is_some()
    }

    /// Whether any rule matches arriving frames to local port `port`. A
    /// frame to a port no rule claims passes `LOCAL_IN` untouched.
    #[inline]
    pub(crate) fn claims_port(&self, port: Port) -> bool {
        self.ports.claims(port)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> XlateStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    const IP1: Ip = Ip::new(10, 0, 0, 1);
    const IP2: Ip = Ip::new(10, 0, 0, 2);
    const IP3: Ip = Ip::new(10, 0, 0, 3);

    fn peer_local() -> SockAddr {
        SockAddr::new(IP3, 3306)
    }

    fn rule() -> XlateRule {
        XlateRule::new(peer_local(), IP1, IP2, Port(5000))
    }

    #[test]
    fn outgoing_rewrites_and_routes_to_new_host() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        let route = t.outgoing_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.dst.ip, IP2, "header rewritten");
        assert_eq!(route, IP2, "route follows the fixed dst-cache entry");
        assert!(seg.checksum_ok);
        assert_eq!(t.stats().rewritten_out, 1);
    }

    #[test]
    fn stale_dst_cache_misroutes() {
        let mut t = XlateTable::new();
        t.install_at(
            XlateRule {
                fix_dst_cache: false,
                ..rule()
            },
            SimTime::ZERO,
        );
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        let route = t.outgoing_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.dst.ip, IP2, "header says new host");
        assert_eq!(route, IP1, "but the frame goes to the old one");
    }

    #[test]
    fn missing_checksum_fix_flags_segment() {
        let mut t = XlateTable::new();
        t.install_at(
            XlateRule {
                fix_checksum: false,
                ..rule()
            },
            SimTime::ZERO,
        );
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        t.outgoing_at(&mut seg, SimTime::ZERO);
        assert!(!seg.checksum_ok);
    }

    #[test]
    fn incoming_rewrites_source_back() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        let wire = Segment::udp(SockAddr::new(IP2, 5000), peer_local(), Bytes::new());
        let mut seg = Cow::Borrowed(&wire);
        t.incoming_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.src.ip, IP1, "peer sees the original address");
        assert_eq!(
            wire.src.ip, IP2,
            "the borrowed frame is copied, not mutated"
        );
        assert_eq!(t.stats().rewritten_in, 1);
    }

    #[test]
    fn incoming_miss_keeps_the_frame_borrowed() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        let wire = Segment::udp(SockAddr::new(IP2, 5001), peer_local(), Bytes::new());
        let mut seg = Cow::Borrowed(&wire);
        t.incoming_at(&mut seg, SimTime::ZERO);
        assert!(matches!(seg, Cow::Borrowed(_)), "no rule matched, no copy");
        assert_eq!(t.stats().rewritten_in, 0);
    }

    #[test]
    fn unrelated_traffic_untouched() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        // Wrong port.
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 9999), Bytes::new());
        let route = t.outgoing_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.dst.ip, IP1);
        assert_eq!(route, IP1);
        // Wrong local endpoint.
        let mut seg = Segment::udp(
            SockAddr::new(IP3, 1234),
            SockAddr::new(IP1, 5000),
            Bytes::new(),
        );
        t.outgoing_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.dst.ip, IP1);
    }

    #[test]
    fn reinstall_replaces_rule() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        // The process moved again: IP1-origin connection now lives on IP3's
        // sibling 10.0.0.4.
        let ip4 = Ip::new(10, 0, 0, 4);
        t.install_at(
            XlateRule {
                new_remote_ip: ip4,
                ..rule()
            },
            SimTime::ZERO,
        );
        assert_eq!(t.len(), 1, "rule replaced, not duplicated");
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        assert_eq!(t.outgoing_at(&mut seg, SimTime::ZERO), ip4);
    }

    #[test]
    fn self_rule_rewrites_both_directions() {
        let mut t = XlateTable::new();
        // Socket originally at IP1:5000, now hosted on IP2, peer IP3:3306.
        t.install_self(SelfXlateRule {
            sock_local: SockAddr::new(IP1, 5000),
            peer: peer_local(),
            host_ip: IP2,
        });
        assert!(t.owns_virtual(IP1));
        assert!(!t.owns_virtual(IP2));

        // Outgoing from the migrated socket: src IP1 → IP2 on the wire.
        let mut seg = Segment::udp(SockAddr::new(IP1, 5000), peer_local(), Bytes::new());
        let route = t.outgoing_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.src.ip, IP2);
        assert_eq!(route, IP3, "routed to the peer");
        assert!(seg.checksum_ok);

        // Incoming from the peer (already dst-rewritten to IP2 by the peer's
        // rule): dst IP2 → IP1 before socket lookup.
        let mut seg = Cow::Owned(Segment::udp(
            peer_local(),
            SockAddr::new(IP2, 5000),
            Bytes::new(),
        ));
        t.incoming_at(&mut seg, SimTime::ZERO);
        assert_eq!(seg.dst.ip, IP1);
    }

    #[test]
    fn remove_self_clears_residue() {
        let mut t = XlateTable::new();
        let rule = SelfXlateRule {
            sock_local: SockAddr::new(IP1, 5000),
            peer: peer_local(),
            host_ip: IP2,
        };
        t.install_self(rule);
        t.install_self(rule); // idempotent replace
        assert_eq!(t.self_rule_count(), 1);
        assert_eq!(t.remove_self(SockAddr::new(IP1, 5000)), 1);
        assert!(!t.owns_virtual(IP1));
    }

    #[test]
    fn remove_clears_connection_rules() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        assert_eq!(t.remove(peer_local(), IP1, Port(5000)), 1);
        assert!(t.is_empty());
        assert_eq!(t.remove(peer_local(), IP1, Port(5000)), 0);
    }

    #[test]
    fn gc_evicts_stale_rules_only() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        let other = XlateRule::new(SockAddr::new(IP3, 4000), IP1, IP2, Port(5001));
        t.install_at(other, SimTime::ZERO);

        // Traffic keeps the first rule alive…
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        t.outgoing_at(&mut seg, SimTime::from_secs(50));

        // …so a GC at t=60s with ttl=30s evicts only the idle one.
        let evicted = t.gc(SimTime::from_secs(60), 30_000_000);
        assert_eq!(evicted, vec![other]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().gc_evicted, 1);

        // The survivor still translates.
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        assert_eq!(t.outgoing_at(&mut seg, SimTime::from_secs(61)), IP2);
    }

    #[test]
    fn gc_within_ttl_keeps_everything() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::from_secs(10));
        assert!(t.gc(SimTime::from_secs(30), 30_000_000).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn gc_never_touches_self_rules() {
        let mut t = XlateTable::new();
        t.install_self(SelfXlateRule {
            sock_local: SockAddr::new(IP1, 5000),
            peer: peer_local(),
            host_ip: IP2,
        });
        t.gc(SimTime::from_secs(1000), 1);
        assert_eq!(t.self_rule_count(), 1);
        assert!(t.owns_virtual(IP1));
    }

    #[test]
    fn incoming_hits_refresh_ttl_too() {
        let mut t = XlateTable::new();
        t.install_at(rule(), SimTime::ZERO);
        let mut seg = Cow::Owned(Segment::udp(
            SockAddr::new(IP2, 5000),
            peer_local(),
            Bytes::new(),
        ));
        t.incoming_at(&mut seg, SimTime::from_secs(50));
        assert!(t.gc(SimTime::from_secs(60), 30_000_000).is_empty());
    }

    #[test]
    fn rule_budget_sheds_least_recently_hit() {
        let mut t = XlateTable::new();
        t.set_max_rules(2);
        let a = rule();
        let b = XlateRule::new(SockAddr::new(IP3, 4000), IP1, IP2, Port(5001));
        let c = XlateRule::new(SockAddr::new(IP3, 4001), IP1, IP2, Port(5002));
        t.install_at(a, SimTime::ZERO);
        t.install_at(b, SimTime::ZERO);
        // `a` is hit at t=5s, so `b` is the least recently hit when `c`
        // arrives.
        let mut seg = Segment::udp(peer_local(), SockAddr::new(IP1, 5000), Bytes::new());
        t.outgoing_at(&mut seg, SimTime::from_secs(5));
        t.install_at(c, SimTime::from_secs(6));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats().shed_rules, 1);
        // `a` and `c` survive; `b` no longer translates.
        let mut seg = Segment::udp(
            SockAddr::new(IP3, 4000),
            SockAddr::new(IP1, 5001),
            Bytes::new(),
        );
        assert_eq!(t.outgoing_at(&mut seg, SimTime::from_secs(7)), IP1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        /// Peer-side translation round-trips: whatever the endpoints, an
        /// outgoing rewrite followed by the peer's view and the reply's
        /// incoming rewrite restores the original addresses exactly.
        #[test]
        fn peer_translation_roundtrip(
            peer_port in 1u16..u16::MAX,
            sock_port in 1u16..u16::MAX,
            old_node in 0u32..200,
            new_node in 200u32..400,
            peer_node in 400u32..600,
        ) {
            let peer_local = SockAddr::new(Ip::local_of(dvelm_net::NodeId(peer_node)), peer_port);
            let old_ip = Ip::local_of(dvelm_net::NodeId(old_node));
            let new_ip = Ip::local_of(dvelm_net::NodeId(new_node));
            let mut t = XlateTable::new();
            t.install_at(XlateRule::new(peer_local, old_ip, new_ip, Port(sock_port)), SimTime::ZERO);

            // Peer → migrated socket.
            let mut out = Segment::udp(peer_local, SockAddr::new(old_ip, sock_port), Bytes::new());
            let route = t.outgoing_at(&mut out, SimTime::ZERO);
            prop_assert_eq!(route, new_ip);
            prop_assert_eq!(out.dst.ip, new_ip);
            prop_assert_eq!(out.dst.port, Port(sock_port));

            // Reply: migrated socket (wire src = new host) → peer.
            let mut back = Cow::Owned(Segment::udp(SockAddr::new(new_ip, sock_port), peer_local, Bytes::new()));
            t.incoming_at(&mut back, SimTime::ZERO);
            prop_assert_eq!(back.src.ip, old_ip, "peer sees the original address");
            prop_assert_eq!(back.dst, peer_local);
        }
    }
}
