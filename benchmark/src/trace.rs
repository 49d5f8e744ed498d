//! The traced run: the window advances one simulated instant at a time and
//! each step's host time is charged to the kind of the event at the head
//! of the queue and the kind of host it addresses.
//!
//! Both are read from `Event`'s `Debug` text through a writer that stops
//! after the first field, so a new event variant is traced without a code
//! change here, and the benchmark never matches on `Event` itself.

use dvelm_cluster::{Host, HostKind, World};
use dvelm_sim::SimTime;
use std::fmt::{self, Write as _};
use std::time::Instant;

/// What kind of host an event addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostClass {
    Server,
    Client,
    Database,
    /// The event names no host (migration steps, faults, sweeps).
    Global,
}

impl HostClass {
    pub fn name(self) -> &'static str {
        match self {
            HostClass::Server => "server",
            HostClass::Client => "client",
            HostClass::Database => "database",
            HostClass::Global => "global",
        }
    }
}

/// Host time charged to one (event kind, host class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    pub kind: String,
    pub class: HostClass,
    /// Steps whose head event had this key.
    pub steps: u64,
    pub ns: u64,
}

/// In-memory aggregates of one traced window.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    pub buckets: Vec<Bucket>,
    /// Host time of spans around calls outside the event loop, by name:
    /// (calls, ns).
    pub spans: Vec<(&'static str, u64, u64)>,
    /// Highest number of pending events seen before a step.
    pub peak_pending: usize,
    /// Host time of the tracer's own bookkeeping between steps.
    pub self_ns: u64,
}

/// Keeps the first bytes of a `Debug` rendering and aborts formatting once
/// it holds the first field (or its buffer is full), so the rest of the
/// event (segments, payloads) is never formatted.
struct Head {
    buf: [u8; 48],
    len: usize,
}

impl fmt::Write for Head {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let new = &s.as_bytes()[..s.len().min(self.buf.len() - self.len)];
        self.buf[self.len..self.len + new.len()].copy_from_slice(new);
        self.len += new.len();
        if self.len == self.buf.len() || new.contains(&b',') {
            return Err(fmt::Error);
        }
        Ok(())
    }
}

impl Head {
    /// Render the head of `event` into a fresh buffer.
    fn of(event: &dyn fmt::Debug) -> Head {
        let mut head = Head {
            buf: [0; 48],
            len: 0,
        };
        // The writer stops formatting on purpose; the error carries no news.
        let _ = write!(head, "{event:?}");
        head
    }

    /// The variant name, and the host index of the first field when that
    /// field is `host` (or the first entry of `hosts`).
    fn parse(&self) -> (&[u8], Option<usize>) {
        let text = &self.buf[..self.len];
        let name_end = text
            .iter()
            .position(|b| matches!(b, b' ' | b'{' | b'('))
            .unwrap_or(text.len());
        let rest = &text[name_end..];
        let host =
            (rest.starts_with(b" { host: ") || rest.starts_with(b" { hosts: [")).then(|| {
                rest.iter()
                    .skip_while(|b| !b.is_ascii_digit())
                    .take_while(|b| b.is_ascii_digit())
                    .fold(0usize, |n, d| n * 10 + usize::from(d - b'0'))
            });
        (&text[..name_end], host)
    }
}

/// The variant name and first-field host index of an event.
#[cfg(test)]
fn event_head(event: &dyn fmt::Debug) -> (String, Option<usize>) {
    let head = Head::of(event);
    let (name, host) = head.parse();
    (String::from_utf8_lossy(name).into_owned(), host)
}

fn class_of(hosts: &[Host], host: Option<usize>) -> HostClass {
    match host.and_then(|h| hosts.get(h)).map(|h| h.kind) {
        Some(HostKind::Server) => HostClass::Server,
        Some(HostKind::Client) => HostClass::Client,
        Some(HostKind::Database) => HostClass::Database,
        None => HostClass::Global,
    }
}

impl Tracer {
    /// Advance `w` to `to` one instant at a time, charging each instant.
    ///
    /// Two clock reads per step partition the loop's time exactly: from the
    /// previous step's end to `run_until` is the tracer's own bookkeeping
    /// (`self_ns`), the `run_until` call is the event's.
    pub fn step_until(&mut self, w: &mut World, to: SimTime) {
        let mut mark = Instant::now();
        while let Some((key, event)) = w.sched.peek() {
            if key.at > to {
                break;
            }
            let at = key.at;
            let head = Head::of(event);
            let (kind, host) = head.parse();
            let class = class_of(&w.hosts, host);
            let i = match self
                .buckets
                .iter()
                .position(|b| b.class == class && b.kind.as_bytes() == kind)
            {
                Some(i) => i,
                None => {
                    self.buckets.push(Bucket {
                        kind: String::from_utf8_lossy(kind).into_owned(),
                        class,
                        steps: 0,
                        ns: 0,
                    });
                    self.buckets.len() - 1
                }
            };
            self.peak_pending = self.peak_pending.max(w.sched.pending());
            let start = Instant::now();
            w.run_until(at);
            let end = Instant::now();
            self.self_ns += (start - mark).as_nanos() as u64;
            self.buckets[i].steps += 1;
            self.buckets[i].ns += (end - start).as_nanos() as u64;
            mark = end;
        }
        self.self_ns += mark.elapsed().as_nanos() as u64;
    }

    /// Record a span around a call made outside the event loop.
    pub fn span(&mut self, name: &'static str, ns: u64) {
        match self.spans.iter_mut().find(|s| s.0 == name) {
            Some(s) => {
                s.1 += 1;
                s.2 += ns;
            }
            None => self.spans.push((name, 1, ns)),
        }
    }

    /// Host ns charged to events and spans.
    pub fn attributed_ns(&self) -> u64 {
        self.buckets.iter().map(|b| b.ns).sum::<u64>() + self.spans.iter().map(|s| s.2).sum::<u64>()
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.buckets.iter().map(|b| b.steps).sum()
    }

    /// Fold another traced window into this one.
    pub fn merge(&mut self, other: Tracer) {
        for b in other.buckets {
            match self
                .buckets
                .iter_mut()
                .find(|m| m.class == b.class && m.kind == b.kind)
            {
                Some(m) => {
                    m.steps += b.steps;
                    m.ns += b.ns;
                }
                None => self.buckets.push(b),
            }
        }
        for (name, calls, ns) in other.spans {
            match self.spans.iter_mut().find(|s| s.0 == name) {
                Some(s) => {
                    s.1 += calls;
                    s.2 += ns;
                }
                None => self.spans.push((name, calls, ns)),
            }
        }
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.self_ns += other.self_ns;
    }

    /// Steps and ns of every bucket with this kind (and class, if given).
    pub fn total(&self, kind: &str, class: Option<HostClass>) -> (u64, u64) {
        self.buckets
            .iter()
            .filter(|b| b.kind == kind && class.is_none_or(|c| c == b.class))
            .fold((0, 0), |(s, n), b| (s + b.steps, n + b.ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    #[allow(dead_code)]
    enum Ev {
        Arrive { host: usize, payload: Vec<u8> },
        Batch { hosts: Vec<usize>, seg: u8 },
        Step { mig: u64 },
        Sweep,
    }

    #[test]
    fn head_reads_the_variant_and_first_host() {
        let big = Ev::Arrive {
            host: 17,
            payload: vec![0; 4096],
        };
        assert_eq!(event_head(&big), ("Arrive".to_string(), Some(17)));
        let batch = Ev::Batch {
            hosts: vec![3, 4, 5],
            seg: 0,
        };
        assert_eq!(event_head(&batch), ("Batch".to_string(), Some(3)));
        assert_eq!(event_head(&Ev::Step { mig: 9 }), ("Step".to_string(), None));
        assert_eq!(event_head(&Ev::Sweep), ("Sweep".to_string(), None));
    }
}
