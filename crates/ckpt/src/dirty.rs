//! Incremental checkpointing: dirty pages + VMA-list diff (§V-A).
//!
//! The tracker keeps its own list of region properties as of the previous
//! iteration. Each precopy loop compares that list with the live
//! `vm_area_struct` list, emits insert/resize/remove records, updates the
//! tracking list, and collects (clearing) the dirty pages.

use crate::image::{PageRecord, VmaRecord, PAGE_RECORD_OVERHEAD, VMA_RECORD_LEN};
use dvelm_proc::mem::{AddressSpace, VmaId, PAGE_SIZE};

/// Region-level changes since the previous iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmaDiff {
    /// Newly mapped regions.
    pub inserted: Vec<VmaRecord>,
    /// Regions whose length changed: (id, new page count).
    pub resized: Vec<(VmaId, usize)>,
    /// Unmapped regions.
    pub removed: Vec<VmaId>,
}

impl VmaDiff {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.resized.is_empty() && self.removed.is_empty()
    }

    /// Transfer size of the diff records, bytes (inserted regions are
    /// charged at the full [`VMA_RECORD_LEN`] like any other VMA record).
    pub fn transfer_bytes(&self) -> u64 {
        self.inserted.len() as u64 * VMA_RECORD_LEN
            + self.resized.len() as u64 * VMA_RESIZE_RECORD_LEN
            + self.removed.len() as u64 * VMA_REMOVE_RECORD_LEN
    }
}

/// Transfer size of one VMA-resize diff record, bytes: record tag `u32` +
/// region id `u64` + new page count `u64` + reserved `u32`.
pub const VMA_RESIZE_RECORD_LEN: u64 = 24;
/// Transfer size of one VMA-remove diff record, bytes: record tag `u32` +
/// region id `u64`.
pub const VMA_REMOVE_RECORD_LEN: u64 = 12;
/// Transfer size of the incremental-update header, bytes: iteration `u32` +
/// three `u32` record counts (inserted / resized+removed / pages).
pub const UPDATE_HEADER_LEN: u64 = 16;

/// One incremental update: region diff + dirty pages.
#[derive(Debug, Clone, Default)]
pub struct IncrementalUpdate {
    pub vma_diff: VmaDiff,
    pub pages: Vec<PageRecord>,
}

impl IncrementalUpdate {
    /// Bytes the real system would transfer for this update.
    pub fn transfer_bytes(&self) -> u64 {
        UPDATE_HEADER_LEN
            + self.vma_diff.transfer_bytes()
            + self.pages.len() as u64 * (PAGE_RECORD_OVERHEAD + PAGE_SIZE)
    }

    /// Whether the update carries nothing.
    pub fn is_empty(&self) -> bool {
        self.vma_diff.is_empty() && self.pages.is_empty()
    }
}

/// Tracking state across precopy iterations.
#[derive(Debug, Clone, Default)]
pub struct IncrementalTracker {
    /// (id, page count) as of the last iteration, in id order — the same
    /// order [`AddressSpace::vmas`] iterates, so one step is a linear merge
    /// walk of two sorted lists.
    tracked: Vec<(VmaId, usize)>,
    /// Scratch for the next tracking list; kept around so steady-state
    /// steps reuse its allocation instead of rebuilding a map.
    next: Vec<(VmaId, usize)>,
    /// Iterations performed.
    pub iterations: u32,
}

impl IncrementalTracker {
    /// A fresh tracker (first `step` returns everything as inserted).
    pub fn new() -> IncrementalTracker {
        IncrementalTracker::default()
    }

    /// One iteration: diff the live VMA list against the tracking list,
    /// update the tracking list, and collect the dirty pages.
    pub fn step(&mut self, space: &mut AddressSpace) -> IncrementalUpdate {
        space.settle();
        let mut diff = VmaDiff::default();
        // Both lists are id-ordered: advance two cursors in lockstep.
        let mut old = self.tracked.iter().copied().peekable();
        self.next.clear();
        for vma in space.vmas() {
            let pages = vma.page_count();
            // Tracked regions with smaller ids no longer exist.
            while let Some((id, _)) = old.next_if(|&(id, _)| id < vma.id) {
                diff.removed.push(id);
            }
            match old.next_if(|&(id, _)| id == vma.id) {
                Some((_, old_pages)) if old_pages != pages => {
                    diff.resized.push((vma.id, pages));
                }
                Some(_) => {}
                None => diff.inserted.push(VmaRecord {
                    id: vma.id,
                    kind: vma.kind,
                    start: vma.start,
                    pages,
                }),
            }
            self.next.push((vma.id, pages));
        }
        for (id, _) in old {
            diff.removed.push(id);
        }
        std::mem::swap(&mut self.tracked, &mut self.next);
        self.iterations += 1;
        IncrementalUpdate {
            vma_diff: diff,
            pages: space.collect_dirty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_proc::mem::VmaKind;
    use dvelm_sim::DetRng;

    #[test]
    fn first_step_reports_everything_inserted() {
        let mut space = AddressSpace::new();
        space.mmap(VmaKind::Text, 4, 1);
        space.mmap(VmaKind::Heap, 8, 2);
        let mut tr = IncrementalTracker::new();
        let up = tr.step(&mut space);
        assert_eq!(up.vma_diff.inserted.len(), 2);
        assert_eq!(up.pages.len(), 12, "all pages dirty initially");
        assert_eq!(tr.tracked.len(), 2);
    }

    #[test]
    fn steady_state_step_is_empty() {
        let mut space = AddressSpace::new();
        space.mmap(VmaKind::Heap, 8, 1);
        let mut tr = IncrementalTracker::new();
        tr.step(&mut space);
        let up = tr.step(&mut space);
        assert!(up.is_empty());
        assert_eq!(up.transfer_bytes(), 16, "just the update header");
    }

    #[test]
    fn mmap_between_steps_is_inserted() {
        let mut space = AddressSpace::new();
        space.mmap(VmaKind::Heap, 8, 1);
        let mut tr = IncrementalTracker::new();
        tr.step(&mut space);
        let id = space.mmap(VmaKind::Anon, 5, 2);
        let up = tr.step(&mut space);
        assert_eq!(up.vma_diff.inserted.len(), 1);
        assert_eq!(up.vma_diff.inserted[0].id, id);
        assert_eq!(up.pages.len(), 5, "new region's pages are dirty");
    }

    #[test]
    fn munmap_between_steps_is_removed() {
        let mut space = AddressSpace::new();
        let id = space.mmap(VmaKind::Anon, 5, 1);
        let mut tr = IncrementalTracker::new();
        tr.step(&mut space);
        space.munmap(id);
        let up = tr.step(&mut space);
        assert_eq!(up.vma_diff.removed, vec![id]);
        assert!(up.pages.is_empty());
    }

    #[test]
    fn resize_between_steps_is_reported() {
        let mut space = AddressSpace::new();
        let id = space.mmap(VmaKind::Heap, 4, 1);
        let mut tr = IncrementalTracker::new();
        tr.step(&mut space);
        space.resize(id, 10, 2);
        let up = tr.step(&mut space);
        assert_eq!(up.vma_diff.resized, vec![(id, 10)]);
        assert_eq!(up.pages.len(), 6, "grown pages are dirty");
    }

    #[test]
    fn tracker_handles_interleaved_insert_resize_remove() {
        // Exercise the merge walk: removals before, between and after live
        // ids in one step.
        let mut space = AddressSpace::new();
        let a = space.mmap(VmaKind::Anon, 2, 1);
        let b = space.mmap(VmaKind::Anon, 3, 2);
        let c = space.mmap(VmaKind::Anon, 4, 3);
        let d = space.mmap(VmaKind::Anon, 5, 4);
        let mut tr = IncrementalTracker::new();
        tr.step(&mut space);
        space.munmap(a);
        space.munmap(c);
        space.resize(b, 30, 5);
        let e = space.mmap(VmaKind::Heap, 6, 6);
        space.munmap(d);
        let up = tr.step(&mut space);
        assert_eq!(up.vma_diff.removed, vec![a, c, d]);
        assert_eq!(up.vma_diff.resized, vec![(b, 30)]);
        assert_eq!(
            up.vma_diff
                .inserted
                .iter()
                .map(|v| v.id)
                .collect::<Vec<_>>(),
            vec![e]
        );
        assert_eq!(tr.tracked.len(), 2);
    }

    #[test]
    fn update_bytes_shrink_as_dirty_rate_drops() {
        // The precopy premise: with a fixed dirty rate and shrinking windows,
        // later iterations ship less.
        let mut space = AddressSpace::new();
        space.mmap(VmaKind::Heap, 4096, 1);
        let mut tr = IncrementalTracker::new();
        let full = tr.step(&mut space).transfer_bytes();
        let mut rng = DetRng::new(3);
        space.dirty_random(&mut rng, 100);
        let inc = tr.step(&mut space).transfer_bytes();
        assert!(inc < full / 10, "incremental {inc} vs full {full}");
    }
}
