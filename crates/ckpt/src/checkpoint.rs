//! Checkpoint construction entry points.

use crate::dirty::{IncrementalTracker, IncrementalUpdate};
use crate::image::{freeze_image_of, CheckpointImage, FreezeImage, ProcessMeta, VmaRecord};
use dvelm_proc::mem::PageRef;
use dvelm_proc::Process;

/// Take a full checkpoint: memory map, *all* page contents, freeze records.
/// This is also the first transfer of the precopy phase.
pub fn full_checkpoint(p: &Process) -> CheckpointImage {
    let vmas: Vec<VmaRecord> = p
        .addr_space
        .vmas()
        .map(|v| VmaRecord {
            id: v.id,
            kind: v.kind,
            start: v.start,
            pages: v.page_count(),
        })
        .collect();
    let pages: Vec<PageRef> = p
        .addr_space
        .vmas()
        .flat_map(|v| {
            (0..v.page_count()).map(move |index| PageRef {
                vma: v.id,
                index,
                fingerprint: v.fingerprint(index),
            })
        })
        .collect();
    CheckpointImage {
        meta: ProcessMeta {
            pid: p.pid,
            name: p.name.clone(),
            thread_count: p.threads.len() as u32,
            cpu_share: p.cpu_share,
        },
        vmas,
        pages,
        freeze: freeze_image_of(p),
    }
}

/// One incremental precopy iteration over the process address space. Note
/// this intentionally does not clear dirty bits outside the tracker: the
/// tracker owns the iteration protocol.
pub fn incremental_update(tracker: &mut IncrementalTracker, p: &mut Process) -> IncrementalUpdate {
    tracker.step(&mut p.addr_space)
}

/// Freeze-phase records only (fd table walk + threads + signal handlers),
/// taken after the final barrier of Fig. 3.
pub fn freeze_records(p: &Process) -> FreezeImage {
    freeze_image_of(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_proc::Pid;
    use dvelm_sim::DetRng;

    #[test]
    fn full_checkpoint_covers_every_page() {
        let p = Process::new(Pid(1), "srv", 16, 64);
        let img = full_checkpoint(&p);
        assert_eq!(img.vmas.len(), 3);
        assert_eq!(img.pages.len(), 16 + 64 + 64);
        assert_eq!(img.meta.pid, Pid(1));
    }

    #[test]
    fn full_checkpoint_does_not_clear_dirty_bits() {
        let p = Process::new(Pid(1), "srv", 4, 4);
        let before = p.addr_space.dirty_count();
        let _ = full_checkpoint(&p);
        assert_eq!(p.addr_space.dirty_count(), before);
    }

    #[test]
    fn incremental_after_full_sees_only_new_writes() {
        let mut p = Process::new(Pid(1), "srv", 16, 256);
        let mut tr = IncrementalTracker::new();
        let first = incremental_update(&mut tr, &mut p);
        assert_eq!(first.pages.len(), p.addr_space.total_pages());
        let mut rng = DetRng::new(1);
        p.do_work(&mut rng, 20);
        let second = incremental_update(&mut tr, &mut p);
        assert!(second.pages.len() <= 20);
        assert!(!second.pages.is_empty());
        assert!(second.vma_diff.is_empty());
    }
}
