//! The address space: VMAs, pages, dirty bits.
//!
//! Mirrors what the paper's precopy implementation tracks (§V-A):
//!
//! * **dirty pages** inside existing regions, via the PTE dirty bit — here a
//!   dense per-region bitset (64 pages per word) next to the region's page
//!   fingerprints, cleared when the incremental checkpointer collects the
//!   page;
//! * **changes to the address space itself** — insertions (mmap),
//!   modifications (grow/shrink) and removals (munmap) of regions, which the
//!   paper detects by diffing the live `vm_area_struct` list against a
//!   tracking list (the diffing lives in `dvelm-ckpt`; this module exposes
//!   the live list).
//!
//! Workload writes are deferred. [`AddressSpace::dirty_random`] appends the
//! caller's RNG state and a page count to a bounded per-space write log and
//! moves the RNG past the draws the writes will make, the way a real store
//! costs the application nothing but a PTE dirty bit until BLCR's helper
//! thread walks the page table. [`AddressSpace::settle`] replays the log in
//! order with the saved RNG states, so fingerprints, dirty bits and the
//! caller's stream come out exactly as if every write had run at once. The
//! log settles when it fills ([`WRITE_LOG_CAP`] entries), before every
//! `&mut` operation, and must be settled before page state is read: the
//! `&self` readers [`vmas`](AddressSpace::vmas), [`vma`](AddressSpace::vma),
//! [`dirty_count`](AddressSpace::dirty_count) and
//! [`content_hash`](AddressSpace::content_hash) panic on a pending log.

use dvelm_sim::DetRng;
use std::collections::BTreeMap;

/// Page size in bytes (x86-64 small pages, as on the paper's Opterons).
pub const PAGE_SIZE: u64 = 4096;

/// Write-log entries an address space holds before it replays them (16
/// bytes each, so 4 KiB per process).
pub const WRITE_LOG_CAP: usize = 256;

/// Identifier of a mapped region, stable across its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(pub u64);

/// What a region holds (affects which regions the workload dirties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Program text: read-only, never dirty after load.
    Text,
    /// Initialised data / BSS.
    Data,
    /// Heap allocations.
    Heap,
    /// Thread stacks.
    Stack,
    /// Anonymous mappings (e.g. game world state).
    Anon,
}

/// A mapped region (`vm_area_struct` analogue) and its slice of the page
/// table, stored densely: one fingerprint per page plus a dirty bitset with
/// 64 pages per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    pub id: VmaId,
    pub kind: VmaKind,
    /// Virtual start address (page aligned).
    pub start: u64,
    /// 64-bit stand-in for each page's contents, indexed by page.
    pub fingerprints: Vec<u64>,
    /// PTE dirty bit analogue, bit `i % 64` of word `i / 64`; cleared by the
    /// incremental checkpointer. Bits at or past the page count are zero.
    dirty: Vec<u64>,
}

impl Vma {
    fn new(id: VmaId, kind: VmaKind, start: u64) -> Vma {
        Vma {
            id,
            kind,
            start,
            fingerprints: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Pages in the region.
    pub fn page_count(&self) -> usize {
        self.fingerprints.len()
    }

    /// Region length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> u64 {
        self.start + self.len_bytes()
    }

    /// Dirty pages in the region (one popcount per 64 pages).
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether [`AddressSpace::dirty_random`] may write to the region.
    fn writable(&self) -> bool {
        self.kind != VmaKind::Text && self.page_count() != 0
    }

    /// Write to page `index`: new fingerprint, dirty bit set.
    #[inline]
    fn write(&mut self, index: usize) {
        let fp = &mut self.fingerprints[index];
        *fp = mix(*fp, 0x9E37_79B9);
        self.dirty[index / 64] |= 1 << (index % 64);
    }

    /// Grow or shrink to `pages` pages. Grown pages take their fingerprint
    /// from `fill(index)` and start dirty iff `dirty`; a shrink discards the
    /// dropped pages' dirty bits, so a later grow cannot revive them.
    fn set_len(&mut self, pages: usize, fill: impl Fn(usize) -> u64, dirty: bool) {
        let old = self.page_count();
        if pages >= old {
            self.fingerprints.extend((old..pages).map(fill));
            self.dirty.resize(pages.div_ceil(64), 0);
            if dirty {
                for i in old..pages {
                    self.dirty[i / 64] |= 1 << (i % 64);
                }
            }
            return;
        }
        self.fingerprints.truncate(pages);
        self.dirty.truncate(pages.div_ceil(64));
        if !pages.is_multiple_of(64) {
            self.dirty[pages / 64] &= (1u64 << (pages % 64)) - 1;
        }
    }
}

/// A reference to a (possibly dirty) page, as collected by the checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRef {
    pub vma: VmaId,
    pub index: usize,
    pub fingerprint: u64,
}

/// A process address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: BTreeMap<VmaId, Vma>,
    next_vma: u64,
    next_addr: u64,
    /// Total pages ever dirtied (statistics). Counted when a write is
    /// logged, so it never lags the log.
    pub dirtied_total: u64,
    /// Deferred [`dirty_random`](Self::dirty_random) calls: the caller's
    /// RNG as it stood at the call, and the page count. At most
    /// [`WRITE_LOG_CAP`] entries.
    log: Vec<(DetRng, usize)>,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            vmas: BTreeMap::new(),
            next_vma: 1,
            next_addr: 0x0000_5555_0000_0000,
            dirtied_total: 0,
            log: Vec::new(),
        }
    }

    /// Map a new region of `pages` pages; contents initialised from `seed`.
    /// All pages start dirty (they have never been checkpointed).
    pub fn mmap(&mut self, kind: VmaKind, pages: usize, seed: u64) -> VmaId {
        self.settle();
        let id = VmaId(self.next_vma);
        self.next_vma += 1;
        let start = self.next_addr;
        self.next_addr += (pages as u64 + GUARD_PAGES) * PAGE_SIZE;
        let mut vma = Vma::new(id, kind, start);
        vma.set_len(pages, |i| mix(seed, i as u64), true);
        self.vmas.insert(id, vma);
        id
    }

    /// Unmap a region.
    pub fn munmap(&mut self, id: VmaId) -> bool {
        self.settle();
        self.vmas.remove(&id).is_some()
    }

    /// Grow or shrink a region to `pages` pages (heap growth, stack growth).
    /// New pages start dirty.
    pub fn resize(&mut self, id: VmaId, pages: usize, seed: u64) {
        self.settle();
        let vma = self.vmas.get_mut(&id).expect("resize of unmapped VMA");
        vma.set_len(pages, |i| mix(seed, i as u64), true);
    }

    /// Write to a page: new fingerprint, dirty bit set.
    pub fn write_page(&mut self, id: VmaId, index: usize) {
        self.settle();
        let vma = self.vmas.get_mut(&id).expect("write to unmapped VMA");
        vma.write(index);
        self.dirtied_total += 1;
    }

    /// Dirty `count` randomly chosen pages of writable (non-text, non-empty)
    /// regions — the workload's memory activity between precopy iterations.
    /// Each page costs two draws from `rng`, region then page.
    ///
    /// The writes are logged, not made: the call saves `rng` and `count`,
    /// moves `rng` past the `2 × count` draws with [`DetRng::skip`] and
    /// counts [`dirtied_total`](Self::dirtied_total). [`settle`](Self::settle)
    /// makes them later, with the same draws in the same order. A full log
    /// settles here. With `count == 0` or no writable region the call draws
    /// nothing and logs nothing.
    pub fn dirty_random(&mut self, rng: &mut DetRng, count: usize) {
        if count == 0 || !self.vmas.values().any(Vma::writable) {
            return;
        }
        self.log.push((rng.clone(), count));
        rng.skip(2 * count as u64);
        self.dirtied_total += count as u64;
        if self.log.len() == WRITE_LOG_CAP {
            self.settle();
        }
    }

    /// Make every logged write, oldest first. Only structural operations,
    /// which settle first, change the writable regions, so every entry
    /// resolves them as its call would have. The replay runs back to back
    /// over the same few regions, so their pages stay in cache.
    pub fn settle(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let mut writable: Vec<&mut Vma> = self.vmas.values_mut().filter(|v| v.writable()).collect();
        let regions = writable.len();
        for (mut rng, count) in self.log.drain(..) {
            for _ in 0..count {
                let vma = &mut writable[rng.index(regions)];
                let index = rng.index(vma.page_count());
                vma.write(index);
            }
        }
    }

    /// Logged writes not yet made (at most [`WRITE_LOG_CAP`]).
    pub fn pending_writes(&self) -> usize {
        self.log.len()
    }

    /// Panics if writes are pending: page state read now would be stale.
    /// Checked in release builds too.
    #[inline]
    fn assert_settled(&self) {
        assert!(
            self.log.is_empty(),
            "page state read with {} logged writes pending; call settle() first",
            self.log.len()
        );
    }

    /// Collect and clear every dirty page (one precopy iteration's payload),
    /// in (region id, page index) order. Clean words of 64 pages cost one
    /// test each, so steady-state iterations over a mostly-clean space touch
    /// almost nothing.
    pub fn collect_dirty(&mut self) -> Vec<PageRef> {
        self.settle();
        let mut out = Vec::with_capacity(self.dirty_count());
        for vma in self.vmas.values_mut() {
            for (w, word) in vma.dirty.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let index = w * 64 + bits.trailing_zeros() as usize;
                    out.push(PageRef {
                        vma: vma.id,
                        index,
                        fingerprint: vma.fingerprints[index],
                    });
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Count dirty pages without clearing. Panics if writes are pending.
    pub fn dirty_count(&self) -> usize {
        self.assert_settled();
        self.vmas.values().map(Vma::dirty_count).sum()
    }

    /// Live regions, in id order. Panics if writes are pending.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.assert_settled();
        self.vmas.values()
    }

    /// Look up one region. Panics if writes are pending.
    pub fn vma(&self, id: VmaId) -> Option<&Vma> {
        self.assert_settled();
        self.vmas.get(&id)
    }

    /// Number of regions.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Total pages mapped.
    pub fn total_pages(&self) -> usize {
        self.vmas.values().map(Vma::page_count).sum()
    }

    /// Order- and content-sensitive hash of the full address space, used to
    /// verify restore fidelity. Panics if writes are pending.
    pub fn content_hash(&self) -> u64 {
        self.assert_settled();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for vma in self.vmas.values() {
            h = mix(h, vma.id.0);
            h = mix(h, vma.start);
            for &fp in &vma.fingerprints {
                h = mix(h, fp);
            }
        }
        h
    }

    /// Apply a page write received from a checkpoint stream (restore path).
    pub fn apply_page(&mut self, r: PageRef) {
        self.settle();
        let vma = self
            .vmas
            .get_mut(&r.vma)
            .expect("apply_page to unmapped VMA");
        vma.fingerprints[r.index] = r.fingerprint;
        vma.dirty[r.index / 64] &= !(1 << (r.index % 64));
    }

    /// Recreate a region from checkpoint metadata (restore path). Pages start
    /// zeroed and clean; contents arrive via [`apply_page`](Self::apply_page).
    pub fn install_vma(&mut self, id: VmaId, kind: VmaKind, start: u64, pages: usize) {
        self.settle();
        self.next_vma = self.next_vma.max(id.0 + 1);
        let mut vma = Vma::new(id, kind, start);
        vma.set_len(pages, |_| 0, false);
        self.reserve(vma.end());
        self.vmas.insert(id, vma);
    }

    /// Resize during restore (VMA-diff modification record).
    pub fn restore_resize(&mut self, id: VmaId, pages: usize) {
        self.settle();
        let vma = self
            .vmas
            .get_mut(&id)
            .expect("restore_resize of unmapped VMA");
        vma.set_len(pages, |_| 0, false);
        let end = vma.end();
        self.reserve(end);
    }

    /// Keep later [`mmap`](Self::mmap)s clear of a region that ends at `end`
    /// but was placed by a checkpoint stream rather than by this space.
    fn reserve(&mut self, end: u64) {
        self.next_addr = self.next_addr.max(end + GUARD_PAGES * PAGE_SIZE);
    }
}

/// Unmapped pages left after each region by [`AddressSpace::mmap`].
const GUARD_PAGES: u64 = 16;

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_pages_start_dirty() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 10, 1);
        assert_eq!(a.dirty_count(), 10);
        assert_eq!(a.total_pages(), 10);
        assert_eq!(a.vma(id).unwrap().len_bytes(), 10 * PAGE_SIZE);
        assert_eq!(a.vma(id).unwrap().page_count(), 10);
    }

    #[test]
    fn collect_dirty_clears_bits() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 5, 1);
        let d = a.collect_dirty();
        assert_eq!(d.len(), 5);
        assert_eq!(a.dirty_count(), 0);
        assert!(a.collect_dirty().is_empty(), "second collect finds nothing");
    }

    #[test]
    fn write_page_sets_dirty_and_changes_fingerprint() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Data, 3, 1);
        a.collect_dirty();
        let before = a.vma(id).unwrap().fingerprints[1];
        a.write_page(id, 1);
        assert_eq!(a.dirty_count(), 1);
        assert_ne!(a.vma(id).unwrap().fingerprints[1], before);
        let d = a.collect_dirty();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].index, 1);
    }

    #[test]
    fn dirty_random_skips_text() {
        let mut a = AddressSpace::new();
        let text = a.mmap(VmaKind::Text, 100, 1);
        a.mmap(VmaKind::Heap, 100, 2);
        a.collect_dirty();
        let mut rng = DetRng::new(1);
        a.dirty_random(&mut rng, 500);
        a.settle();
        assert_eq!(
            a.vma(text).unwrap().dirty_count(),
            0,
            "text pages never dirtied"
        );
        assert!(a.dirty_count() > 0);
    }

    #[test]
    fn resize_grow_and_shrink() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 4, 1);
        a.collect_dirty();
        a.resize(id, 8, 2);
        assert_eq!(a.vma(id).unwrap().page_count(), 8);
        assert_eq!(a.dirty_count(), 4, "only the new pages are dirty");
        a.resize(id, 2, 0);
        assert_eq!(a.vma(id).unwrap().page_count(), 2);
    }

    #[test]
    fn shrink_across_a_word_boundary_drops_tail_dirty_bits() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 150, 1);
        a.collect_dirty();
        for i in [3, 63, 64, 70, 100, 149] {
            a.write_page(id, i);
        }
        a.resize(id, 65, 0);
        assert_eq!(a.dirty_count(), 3, "pages 3, 63 and 64 survive");
        a.collect_dirty();
        // Regrown pages are dirty because they are new, not because the
        // shrink left their old bits behind: a restore-side grow is clean.
        a.resize(id, 150, 2);
        assert_eq!(a.dirty_count(), 85);
        let mut b = AddressSpace::new();
        b.install_vma(id, VmaKind::Heap, 0, 150);
        b.apply_page(PageRef {
            vma: id,
            index: 0,
            fingerprint: 1,
        });
        b.write_page(id, 120);
        b.restore_resize(id, 100);
        b.restore_resize(id, 150);
        assert_eq!(b.dirty_count(), 0);
        assert!(b.collect_dirty().is_empty(), "page 120 was not revived");
    }

    #[test]
    fn collect_dirty_is_in_region_then_page_order() {
        let mut a = AddressSpace::new();
        let x = a.mmap(VmaKind::Heap, 200, 1);
        let y = a.mmap(VmaKind::Anon, 70, 2);
        a.collect_dirty();
        for (id, i) in [(y, 69), (x, 130), (y, 0), (x, 5), (x, 64)] {
            a.write_page(id, i);
        }
        let got: Vec<(VmaId, usize)> = a
            .collect_dirty()
            .into_iter()
            .map(|r| (r.vma, r.index))
            .collect();
        assert_eq!(got, vec![(x, 5), (x, 64), (x, 130), (y, 0), (y, 69)]);
    }

    #[test]
    fn mmap_after_install_clears_installed_regions() {
        let mut a = AddressSpace::new();
        a.install_vma(VmaId(4), VmaKind::Text, 0x5555_0000_0000, 512);
        let id = a.mmap(VmaKind::Anon, 8, 1);
        assert!(a.vma(id).unwrap().start >= a.vma(VmaId(4)).unwrap().end());
        assert_eq!(id, VmaId(5));
        a.restore_resize(VmaId(4), 4096);
        let id = a.mmap(VmaKind::Anon, 8, 2);
        assert!(a.vma(id).unwrap().start >= a.vma(VmaId(4)).unwrap().end());
    }

    #[test]
    fn munmap_removes_region() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Anon, 7, 1);
        assert!(a.munmap(id));
        assert!(!a.munmap(id));
        assert_eq!(a.total_pages(), 0);
    }

    #[test]
    fn vma_addresses_do_not_overlap() {
        let mut a = AddressSpace::new();
        let ids: Vec<VmaId> = (0..10).map(|i| a.mmap(VmaKind::Anon, 16, i)).collect();
        let mut ranges: Vec<(u64, u64)> = ids
            .iter()
            .map(|id| {
                let v = a.vma(*id).unwrap();
                (v.start, v.end())
            })
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping VMAs: {w:?}");
        }
    }

    #[test]
    fn restore_reproduces_content_hash() {
        let mut rng = DetRng::new(9);
        let mut src = AddressSpace::new();
        for i in 0..5 {
            src.mmap(
                if i == 0 { VmaKind::Text } else { VmaKind::Heap },
                20 + i as usize,
                i,
            );
        }
        src.dirty_random(&mut rng, 200);
        src.settle();

        // Restore: recreate regions, apply all pages.
        let mut dst = AddressSpace::new();
        for vma in src.vmas() {
            dst.install_vma(vma.id, vma.kind, vma.start, vma.page_count());
        }
        let mut src2 = src.clone();
        for page in src2.collect_dirty() {
            dst.apply_page(page);
        }
        // Pages that were clean in src still need their content; a full
        // checkpoint ships everything:
        for vma in src.vmas() {
            for (i, &fingerprint) in vma.fingerprints.iter().enumerate() {
                dst.apply_page(PageRef {
                    vma: vma.id,
                    index: i,
                    fingerprint,
                });
            }
        }
        assert_eq!(dst.content_hash(), src.content_hash());
    }

    #[test]
    fn write_log_never_exceeds_its_cap() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 100, 1);
        let mut rng = DetRng::new(2);
        for call in 1..=3 * WRITE_LOG_CAP {
            a.dirty_random(&mut rng, 3);
            assert!(a.pending_writes() < WRITE_LOG_CAP);
            assert_eq!(a.pending_writes(), call % WRITE_LOG_CAP);
        }
    }

    #[test]
    fn dirty_random_without_writes_draws_and_logs_nothing() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 10, 1);
        let mut rng = DetRng::new(3);
        let before = rng.clone();
        a.dirty_random(&mut rng, 0);
        assert_eq!(a.pending_writes(), 0);
        assert_eq!(rng.next_u64(), before.clone().next_u64());

        let mut b = AddressSpace::new();
        b.mmap(VmaKind::Text, 10, 1);
        b.mmap(VmaKind::Heap, 0, 2);
        let mut rng = before.clone();
        b.dirty_random(&mut rng, 50);
        assert_eq!(b.pending_writes(), 0);
        assert_eq!(b.dirtied_total, 0);
        assert_eq!(rng.next_u64(), before.clone().next_u64());
    }

    #[test]
    #[should_panic(expected = "logged writes pending")]
    fn reading_regions_of_an_unsettled_space_panics() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 10, 1);
        a.dirty_random(&mut DetRng::new(5), 1);
        let _ = a.vmas().count();
    }

    #[test]
    #[should_panic(expected = "logged writes pending")]
    fn hashing_an_unsettled_space_panics() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 10, 1);
        a.dirty_random(&mut DetRng::new(5), 1);
        a.content_hash();
    }

    #[test]
    fn content_hash_detects_single_page_difference() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 50, 3);
        let b = a.clone();
        a.write_page(id, 49);
        assert_ne!(a.content_hash(), b.content_hash());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// collect_dirty returns exactly the pages written since last collect.
        #[test]
        fn dirty_tracking_is_exact(writes in proptest::collection::vec((0usize..4, 0usize..32), 0..100)) {
            let mut a = AddressSpace::new();
            let ids: Vec<VmaId> = (0..4).map(|i| a.mmap(VmaKind::Heap, 32, i)).collect();
            a.collect_dirty();
            let mut expect = std::collections::BTreeSet::new();
            for (v, p) in &writes {
                a.write_page(ids[*v], *p);
                expect.insert((ids[*v], *p));
            }
            let got: std::collections::BTreeSet<(VmaId, usize)> =
                a.collect_dirty().into_iter().map(|r| (r.vma, r.index)).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(a.dirty_count(), 0);
        }

        /// Restoring all collected pages onto a fresh space reproduces the
        /// content hash, whatever the write pattern.
        #[test]
        fn full_transfer_roundtrip(seed in 0u64..1000, dirties in 0usize..300) {
            let mut rng = DetRng::new(seed);
            let mut src = AddressSpace::new();
            src.mmap(VmaKind::Heap, 64, seed);
            src.mmap(VmaKind::Stack, 16, seed + 1);
            src.dirty_random(&mut rng, dirties);
            src.settle();
            let mut dst = AddressSpace::new();
            for vma in src.vmas() {
                dst.install_vma(vma.id, vma.kind, vma.start, vma.page_count());
                for (i, &fingerprint) in vma.fingerprints.iter().enumerate() {
                    dst.apply_page(PageRef { vma: vma.id, index: i, fingerprint });
                }
            }
            prop_assert_eq!(dst.content_hash(), src.content_hash());
        }
    }
}
