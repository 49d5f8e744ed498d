//! Threads: a tid and a scheduling state.
//!
//! The paper's live checkpoint is signal-driven (§III-A): every application
//! thread receives the checkpoint signal, returns from whatever system call
//! it was executing (releasing kernel locks, in particular the socket lock),
//! runs the handler, and synchronizes on a barrier where a leader is chosen.
//! The model starts from that guarantee: a thread is never inside a system
//! call, so it is either running or frozen. Registers and signal masks are
//! not modelled; their checkpoint record is charged as the constant
//! [`THREAD_RECORD_LEN`].

/// Encoded size of a per-thread checkpoint record (registers, signal state,
/// tid and thread relations), bytes.
pub const THREAD_RECORD_LEN: u64 = 192;

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    Running,
    /// Suspended by the freeze phase.
    Frozen,
}

/// One thread of a process.
#[derive(Debug, Clone)]
pub struct Thread {
    pub tid: u64,
    pub state: ThreadState,
}

impl Thread {
    /// A new runnable thread.
    pub fn new(tid: u64) -> Thread {
        Thread {
            tid,
            state: ThreadState::Running,
        }
    }

    /// Freeze for the final checkpoint step.
    pub fn freeze(&mut self) {
        self.state = ThreadState::Frozen;
    }

    /// Resume after restore (or after a checkpoint taken with
    /// `continue` semantics).
    pub fn resume(&mut self) {
        self.state = ThreadState::Running;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_resume_cycle() {
        let mut t = Thread::new(2);
        t.freeze();
        assert_eq!(t.state, ThreadState::Frozen);
        t.resume();
        assert_eq!(t.state, ThreadState::Running);
    }
}
