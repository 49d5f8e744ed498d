//! The process: address space + threads + descriptors + signal handlers.

use crate::fdtable::FdTable;
use crate::mem::{AddressSpace, VmaKind};
use crate::thread::{Thread, ThreadState};
use dvelm_sim::DetRng;
use std::collections::BTreeMap;

/// A cluster-wide process identifier (stable across migrations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Encoded size of one signal-handler record, bytes.
pub const SIGHANDLER_RECORD_LEN: u64 = 16;

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    pub pid: Pid,
    pub name: String,
    pub addr_space: AddressSpace,
    pub threads: Vec<Thread>,
    pub fds: FdTable,
    /// signal number → handler address.
    pub sig_handlers: BTreeMap<u32, u64>,
    /// CPU share this process currently consumes on its node, percent of one
    /// core — the quantity the selection policy reasons about.
    pub cpu_share: f64,
}

impl Process {
    /// A process with one thread and the standard text/data/stack layout.
    pub fn new(pid: Pid, name: impl Into<String>, text_pages: usize, data_pages: usize) -> Process {
        let mut addr_space = AddressSpace::new();
        addr_space.mmap(VmaKind::Text, text_pages, pid.0 ^ 0x7e87);
        addr_space.mmap(VmaKind::Data, data_pages, pid.0 ^ 0xda7a);
        addr_space.mmap(VmaKind::Stack, 64, pid.0 ^ 0x57ac);
        let mut sig_handlers = BTreeMap::new();
        sig_handlers.insert(15, 0x4000_1000); // SIGTERM
        sig_handlers.insert(10, 0x4000_2000); // SIGUSR1: BLCR checkpoint signal
        Process {
            pid,
            name: name.into(),
            addr_space,
            threads: vec![Thread::new(1)],
            fds: FdTable::new(),
            sig_handlers,
            cpu_share: 0.0,
        }
    }

    /// Spawn an additional thread.
    pub fn spawn_thread(&mut self) -> u64 {
        let tid = self.threads.iter().map(|t| t.tid).max().unwrap_or(0) + 1;
        self.threads.push(Thread::new(tid));
        tid
    }

    /// Freeze every thread (final checkpoint step).
    pub fn freeze_all(&mut self) {
        for t in &mut self.threads {
            t.freeze();
        }
    }

    /// Resume every thread (restore, or continue-after-checkpoint).
    pub fn resume_all(&mut self) {
        for t in &mut self.threads {
            t.resume();
        }
    }

    /// Whether every thread is frozen.
    pub fn is_frozen(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Frozen)
    }

    /// Simulate one slice of application work: dirty `pages_dirtied`
    /// random pages. The writes go to the address space's write log and are
    /// made when it settles (see [`AddressSpace::dirty_random`]); `rng`
    /// moves past their draws now.
    pub fn do_work(&mut self, rng: &mut DetRng, pages_dirtied: usize) {
        self.addr_space.dirty_random(rng, pages_dirtied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_layout() {
        let p = Process::new(Pid(1), "zone_serv0", 256, 1024);
        assert_eq!(p.addr_space.vma_count(), 3);
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.addr_space.total_pages(), 256 + 1024 + 64);
        assert!(
            p.sig_handlers.contains_key(&10),
            "checkpoint signal handler"
        );
    }

    #[test]
    fn spawn_thread_allocates_fresh_tids() {
        let mut p = Process::new(Pid(1), "p", 1, 1);
        let t2 = p.spawn_thread();
        let t3 = p.spawn_thread();
        assert_eq!((t2, t3), (2, 3));
        assert_eq!(p.threads.len(), 3);
    }

    #[test]
    fn freeze_and_resume_all() {
        let mut p = Process::new(Pid(1), "p", 1, 1);
        p.spawn_thread();
        p.freeze_all();
        assert!(p.is_frozen());
        p.resume_all();
        assert!(!p.is_frozen());
        assert!(p.threads.iter().all(|t| t.state == ThreadState::Running));
    }

    #[test]
    fn work_dirties_pages() {
        let mut p = Process::new(Pid(1), "p", 16, 128);
        p.addr_space.collect_dirty();
        let mut rng = DetRng::new(5);
        p.do_work(&mut rng, 50);
        p.addr_space.settle();
        assert!(p.addr_space.dirty_count() > 0);
    }
}
