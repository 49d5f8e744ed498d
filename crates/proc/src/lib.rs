//! The simulated process model.
//!
//! Provides what BLCR-style checkpoint/restart operates on (§III-A, §V-A):
//!
//! * an **address space** of `vm_area_struct`-like regions whose pages carry
//!   dirty bits — the paper tracks dirty pages via the PTE dirty bit, with
//!   the swap facility relaxed, so the tracker lives entirely "in a module"
//!   (here: in the data structure) without touching other code. Each region
//!   keeps a dirty bitset with 64 pages per word, so dirtying a page is a
//!   bit set and a precopy collection walks words, not pages. A page's
//!   contents are a base, computed from the region's seed until the region
//!   stores fingerprints, and a count of writes not yet folded into it.
//!   Workload writes go to a bounded per-space write log first and are
//!   made in order, each as one count increment, before the page state is
//!   next read or changed; a precopy collection or a resize folds the
//!   counts into stored fingerprints and dirty bits;
//! * **threads**, each running or frozen — the signal-based checkpoint
//!   notification forces every thread back to userspace, which is what
//!   guarantees sockets are unlocked at freeze time, so no thread is
//!   modelled inside a system call;
//! * a **file-descriptor table** mixing regular files (re-opened on restart;
//!   contents are shared/replicated per §II-A) and sockets (migrated by the
//!   mechanism in `dvelm-migrate`).
//!
//! Page *contents* are modelled as 64-bit fingerprints: transfers are
//! accounted at full page size, while restore correctness is checked by
//! fingerprint equality.

pub mod fdtable;
pub mod mem;
pub mod process;
pub mod thread;

pub use fdtable::{Fd, FdEntry, FdTable};
pub use mem::{AddressSpace, PageRef, Vma, VmaId, VmaKind, PAGE_SIZE};
pub use process::{Pid, Process};
pub use thread::{Thread, ThreadState};
