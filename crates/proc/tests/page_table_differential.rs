//! Differential test of the dense page table: [`AddressSpace`] against a
//! reference model that stores one `{fingerprint, dirty}` record per page and
//! a per-region dirty-count map beside the region map — the straightforward
//! layout the dense per-region bitsets replaced.
//!
//! The real space also defers its random writes into a write log, while the
//! reference makes every write at once, and it stores a region's page
//! contents only once they change, while the reference stores every page
//! from the start.
//!
//! Both sides run the same random sequence of address-space operations from
//! the same RNG seed, with long runs of `dirty_random` calls that fill the
//! write log past its cap. After every operation, without settling, they
//! must agree on the position of the RNG stream (the same number of draws),
//! the pages ever dirtied and the regions and pages mapped, and the log must
//! be within its cap. On every read they must agree on what a collection
//! returns (including its order), on the dirty count, the content hash and
//! every region's pages and dirty count. A checkpoint compares the full page
//! list, every page of every region in order, the way a full checkpoint
//! reads it.

use dvelm_proc::mem::{AddressSpace, PageRef, VmaId, VmaKind, PAGE_SIZE, WRITE_LOG_CAP};
use dvelm_sim::DetRng;
use proptest::prelude::*;

/// The reference page table: per-page records plus a dirty-count map.
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    struct Page {
        fingerprint: u64,
        dirty: bool,
    }

    #[derive(Debug, Clone)]
    struct Vma {
        kind: VmaKind,
        start: u64,
        pages: Vec<Page>,
    }

    #[derive(Debug, Clone)]
    pub struct Space {
        vmas: BTreeMap<VmaId, Vma>,
        dirty_counts: BTreeMap<VmaId, usize>,
        next_vma: u64,
        next_addr: u64,
        pub dirtied_total: u64,
    }

    impl Space {
        pub fn new() -> Space {
            Space {
                vmas: BTreeMap::new(),
                dirty_counts: BTreeMap::new(),
                next_vma: 1,
                next_addr: 0x0000_5555_0000_0000,
                dirtied_total: 0,
            }
        }

        pub fn ids(&self) -> Vec<VmaId> {
            self.vmas.keys().copied().collect()
        }

        pub fn pages(&self, id: VmaId) -> usize {
            self.vmas[&id].pages.len()
        }

        pub fn mmap(&mut self, kind: VmaKind, pages: usize, seed: u64) -> VmaId {
            let id = VmaId(self.next_vma);
            self.next_vma += 1;
            let start = self.next_addr;
            self.next_addr += (pages as u64 + 16) * PAGE_SIZE;
            self.dirty_counts.insert(id, pages);
            let pages = (0..pages)
                .map(|i| Page {
                    fingerprint: mix(seed, i as u64),
                    dirty: true,
                })
                .collect();
            self.vmas.insert(id, Vma { kind, start, pages });
            id
        }

        pub fn munmap(&mut self, id: VmaId) -> bool {
            self.dirty_counts.remove(&id);
            self.vmas.remove(&id).is_some()
        }

        pub fn resize(&mut self, id: VmaId, pages: usize, seed: u64) {
            let vma = self.vmas.get_mut(&id).unwrap();
            let count = self.dirty_counts.get_mut(&id).unwrap();
            let old = vma.pages.len();
            if pages > old {
                vma.pages.extend((old..pages).map(|i| Page {
                    fingerprint: mix(seed, i as u64),
                    dirty: true,
                }));
                *count += pages - old;
            } else {
                *count -= vma.pages[pages..].iter().filter(|p| p.dirty).count();
                vma.pages.truncate(pages);
            }
        }

        pub fn write_page(&mut self, id: VmaId, index: usize) {
            let page = &mut self.vmas.get_mut(&id).unwrap().pages[index];
            page.fingerprint = mix(page.fingerprint, 0x9E37_79B9);
            if !page.dirty {
                page.dirty = true;
                *self.dirty_counts.get_mut(&id).unwrap() += 1;
            }
            self.dirtied_total += 1;
        }

        pub fn dirty_random(&mut self, rng: &mut DetRng, count: usize) {
            let writable: Vec<(VmaId, usize)> = self
                .vmas
                .iter()
                .filter(|(_, v)| v.kind != VmaKind::Text && !v.pages.is_empty())
                .map(|(&id, v)| (id, v.pages.len()))
                .collect();
            if writable.is_empty() {
                return;
            }
            for _ in 0..count {
                let (id, len) = writable[rng.index(writable.len())];
                let idx = rng.index(len);
                self.write_page(id, idx);
            }
        }

        pub fn collect_dirty(&mut self) -> Vec<PageRef> {
            let mut out = Vec::new();
            for (&id, count) in self.dirty_counts.iter_mut() {
                *count = 0;
                for (i, page) in self.vmas.get_mut(&id).unwrap().pages.iter_mut().enumerate() {
                    if page.dirty {
                        page.dirty = false;
                        out.push(PageRef {
                            vma: id,
                            index: i,
                            fingerprint: page.fingerprint,
                        });
                    }
                }
            }
            out
        }

        pub fn dirty_count(&self) -> usize {
            self.dirty_counts.values().sum()
        }

        pub fn regions(&self) -> Vec<Region> {
            self.vmas
                .iter()
                .map(|(&id, v)| Region {
                    id,
                    kind: v.kind,
                    start: v.start,
                    fingerprints: v.pages.iter().map(|p| p.fingerprint).collect(),
                    dirty: self.dirty_counts[&id],
                })
                .collect()
        }

        pub fn total_pages(&self) -> usize {
            self.vmas.values().map(|v| v.pages.len()).sum()
        }

        pub fn all_pages(&self) -> Vec<PageRef> {
            self.vmas
                .iter()
                .flat_map(|(&vma, v)| {
                    v.pages.iter().enumerate().map(move |(index, p)| PageRef {
                        vma,
                        index,
                        fingerprint: p.fingerprint,
                    })
                })
                .collect()
        }

        pub fn content_hash(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (id, vma) in &self.vmas {
                h = mix(h, id.0);
                h = mix(h, vma.start);
                for p in &vma.pages {
                    h = mix(h, p.fingerprint);
                }
            }
            h
        }

        pub fn apply_page(&mut self, r: PageRef) {
            let page = &mut self.vmas.get_mut(&r.vma).unwrap().pages[r.index];
            page.fingerprint = r.fingerprint;
            if page.dirty {
                page.dirty = false;
                *self.dirty_counts.get_mut(&r.vma).unwrap() -= 1;
            }
        }

        /// Also keeps later `mmap`s clear of the installed region, so region
        /// starts — which the content hash covers — agree on both sides.
        pub fn install_vma(&mut self, id: VmaId, kind: VmaKind, start: u64, pages: usize) {
            self.next_vma = self.next_vma.max(id.0 + 1);
            self.next_addr = self.next_addr.max(start + (pages as u64 + 16) * PAGE_SIZE);
            self.dirty_counts.insert(id, 0);
            let pages = vec![
                Page {
                    fingerprint: 0,
                    dirty: false,
                };
                pages
            ];
            self.vmas.insert(id, Vma { kind, start, pages });
        }

        pub fn restore_resize(&mut self, id: VmaId, pages: usize) {
            let vma = self.vmas.get_mut(&id).unwrap();
            if pages < vma.pages.len() {
                *self.dirty_counts.get_mut(&id).unwrap() -=
                    vma.pages[pages..].iter().filter(|p| p.dirty).count();
            }
            vma.pages.resize(
                pages,
                Page {
                    fingerprint: 0,
                    dirty: false,
                },
            );
            self.next_addr = self
                .next_addr
                .max(vma.start + (pages as u64 + 16) * PAGE_SIZE);
        }
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
}

/// A region as a reader sees it: identity, placement, page contents and
/// dirty count.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    id: VmaId,
    kind: VmaKind,
    start: u64,
    fingerprints: Vec<u64>,
    dirty: usize,
}

/// One operation. Region and page operands are selectors, reduced modulo
/// the live region count / the region's page count when applied.
#[derive(Debug, Clone)]
enum Op {
    Mmap(bool, usize, u64),
    Resize(usize, usize, u64),
    Munmap(usize),
    WritePage(usize, usize),
    DirtyRandom(usize),
    /// `calls` back-to-back `dirty_random(pages)` calls: one log entry each.
    DirtyRun(usize, usize),
    Collect,
    /// Settle, then read every region, the dirty count and the hash.
    Read,
    /// Settle, then list every page of every region.
    Checkpoint,
    ApplyPage(usize, usize, u64),
    InstallVma(u64, bool, usize),
    RestoreResize(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Page counts straddle one to three bitset words and are rarely
    // multiples of 64, so grows and shrinks cross word boundaries.
    prop_oneof![
        (any_bool(), 0usize..200, 0u64..1000).prop_map(|(t, n, s)| Op::Mmap(t, n, s)),
        (0usize..8, 0usize..200, 0u64..1000).prop_map(|(i, n, s)| Op::Resize(i, n, s)),
        (0usize..8).prop_map(Op::Munmap),
        (0usize..8, 0usize..1000).prop_map(|(i, p)| Op::WritePage(i, p)),
        (0usize..300).prop_map(Op::DirtyRandom),
        // Up to 400 calls: a run alone often crosses the log's cap.
        (1usize..400, 0usize..8).prop_map(|(c, n)| Op::DirtyRun(c, n)),
        (1usize..400, 0usize..8).prop_map(|(c, n)| Op::DirtyRun(c, n)),
        Just(Op::Collect),
        Just(Op::Read),
        Just(Op::Checkpoint),
        (0usize..8, 0usize..1000, 0u64..u64::MAX).prop_map(|(i, p, f)| Op::ApplyPage(i, p, f)),
        (1u64..24, any_bool(), 0usize..200).prop_map(|(id, t, n)| Op::InstallVma(id, t, n)),
        (0usize..8, 0usize..200).prop_map(|(i, n)| Op::RestoreResize(i, n)),
    ]
}

/// Operations on regions of one to three pages, with runs of 400-page
/// `dirty_random` calls: every page builds a chain of hundreds to thousands
/// of writes between two reads or structural changes.
fn chain_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..4, 0u64..1000).prop_map(|(n, s)| Op::Mmap(false, n, s)),
        (0usize..8, 0usize..4, 0u64..1000).prop_map(|(i, n, s)| Op::Resize(i, n, s)),
        (0usize..8).prop_map(Op::Munmap),
        (0usize..8, 0usize..4).prop_map(|(i, p)| Op::WritePage(i, p)),
        (1usize..40).prop_map(|c| Op::DirtyRun(c, 400)),
        (1usize..40).prop_map(|c| Op::DirtyRun(c, 400)),
        (1usize..40).prop_map(|c| Op::DirtyRun(c, 400)),
        Just(Op::Collect),
        Just(Op::Read),
        Just(Op::Checkpoint),
        (0usize..8, 0usize..4, 0u64..u64::MAX).prop_map(|(i, p, f)| Op::ApplyPage(i, p, f)),
        (1u64..24, 0usize..4).prop_map(|(id, n)| Op::InstallVma(id, false, n)),
        (0usize..8, 0usize..4).prop_map(|(i, n)| Op::RestoreResize(i, n)),
    ]
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn kind(text: bool) -> VmaKind {
    if text {
        VmaKind::Text
    } else {
        VmaKind::Heap
    }
}

/// A selected live region and, when it has pages, a selected page.
fn pick(space: &reference::Space, region: usize, page: usize) -> Option<(VmaId, Option<usize>)> {
    let ids = space.ids();
    if ids.is_empty() {
        return None;
    }
    let id = ids[region % ids.len()];
    let pages = space.pages(id);
    Some((id, (pages > 0).then(|| page % pages)))
}

fn apply(
    op: &Op,
    dense: &mut AddressSpace,
    refm: &mut reference::Space,
    rd: &mut DetRng,
    rr: &mut DetRng,
) {
    match *op {
        Op::Mmap(text, n, seed) => {
            assert_eq!(
                dense.mmap(kind(text), n, seed),
                refm.mmap(kind(text), n, seed)
            );
        }
        Op::Resize(i, n, seed) => {
            if let Some((id, _)) = pick(refm, i, 0) {
                dense.resize(id, n, seed);
                refm.resize(id, n, seed);
            }
        }
        Op::Munmap(i) => {
            if let Some((id, _)) = pick(refm, i, 0) {
                assert_eq!(dense.munmap(id), refm.munmap(id));
            }
        }
        Op::WritePage(i, p) => {
            if let Some((id, Some(index))) = pick(refm, i, p) {
                dense.write_page(id, index);
                refm.write_page(id, index);
            }
        }
        Op::DirtyRandom(n) => {
            dense.dirty_random(rd, n);
            refm.dirty_random(rr, n);
        }
        Op::DirtyRun(calls, n) => {
            for _ in 0..calls {
                dense.dirty_random(rd, n);
                refm.dirty_random(rr, n);
                assert!(dense.pending_writes() <= WRITE_LOG_CAP);
            }
        }
        Op::Collect => {
            assert_eq!(dense.collect_dirty(), refm.collect_dirty());
        }
        Op::Read | Op::Checkpoint => {
            dense.settle();
            assert_eq!(dense.pending_writes(), 0);
        }
        Op::ApplyPage(i, p, fingerprint) => {
            if let Some((vma, Some(index))) = pick(refm, i, p) {
                let r = PageRef {
                    vma,
                    index,
                    fingerprint,
                };
                dense.apply_page(r);
                refm.apply_page(r);
            }
        }
        Op::InstallVma(id, text, n) => {
            let start = 0x7000_0000_0000 + id * 0x1000_0000;
            dense.install_vma(VmaId(id), kind(text), start, n);
            refm.install_vma(VmaId(id), kind(text), start, n);
        }
        Op::RestoreResize(i, n) => {
            if let Some((id, _)) = pick(refm, i, 0) {
                dense.restore_resize(id, n);
                refm.restore_resize(id, n);
            }
        }
    }
}

/// What stays observable while writes are pending: the RNG position, the
/// pages ever dirtied, the pages mapped and the region ids.
fn observe_unsettled_dense(a: &AddressSpace, rng: &DetRng) -> (u64, u64, usize, usize) {
    (
        rng.clone().next_u64(),
        a.dirtied_total,
        a.total_pages(),
        a.vma_count(),
    )
}

fn observe_unsettled_ref(a: &reference::Space, rng: &DetRng) -> (u64, u64, usize, usize) {
    (
        rng.clone().next_u64(),
        a.dirtied_total,
        a.total_pages(),
        a.ids().len(),
    )
}

/// Everything a reader of the settled page table sees, without mutating it.
fn observe_dense(a: &AddressSpace) -> (Vec<PageRef>, usize, u64, Vec<Region>) {
    let regions = a
        .vmas()
        .map(|v| {
            assert!(a.vma(v.id).is_some_and(|found| std::ptr::eq(found, v)));
            Region {
                id: v.id,
                kind: v.kind,
                start: v.start,
                fingerprints: (0..v.page_count()).map(|i| v.fingerprint(i)).collect(),
                dirty: v.dirty_count(),
            }
        })
        .collect();
    (
        a.clone().collect_dirty(),
        a.dirty_count(),
        a.content_hash(),
        regions,
    )
}

/// Every page of every region, in (region id, page index) order.
fn checkpoint_dense(a: &AddressSpace) -> Vec<PageRef> {
    a.vmas()
        .flat_map(|v| {
            (0..v.page_count()).map(move |index| PageRef {
                vma: v.id,
                index,
                fingerprint: v.fingerprint(index),
            })
        })
        .collect()
}

fn observe_ref(a: &reference::Space) -> (Vec<PageRef>, usize, u64, Vec<Region>) {
    (
        a.clone().collect_dirty(),
        a.dirty_count(),
        a.content_hash(),
        a.regions(),
    )
}

fn run(seed: u64, ops: &[Op]) -> Result<(), String> {
    let mut dense = AddressSpace::new();
    let mut refm = reference::Space::new();
    let mut rd = DetRng::new(seed);
    let mut rr = DetRng::new(seed);
    for (step, op) in ops.iter().enumerate() {
        apply(op, &mut dense, &mut refm, &mut rd, &mut rr);
        let (d, r) = (
            observe_unsettled_dense(&dense, &rd),
            observe_unsettled_ref(&refm, &rr),
        );
        if d != r {
            return Err(format!(
                "step {step} {op:?}: dense {d:?} != reference {r:?}"
            ));
        }
        if dense.pending_writes() > WRITE_LOG_CAP {
            return Err(format!(
                "step {step} {op:?}: {} logged writes, cap {WRITE_LOG_CAP}",
                dense.pending_writes()
            ));
        }
        if matches!(op, Op::Read | Op::Collect) {
            let (d, r) = (observe_dense(&dense), observe_ref(&refm));
            if d != r {
                return Err(format!(
                    "step {step} {op:?}: dense {d:?} != reference {r:?}"
                ));
            }
        }
        if matches!(op, Op::Checkpoint) {
            let (d, r) = (checkpoint_dense(&dense), refm.all_pages());
            if d != r {
                return Err(format!(
                    "step {step} {op:?}: dense {d:?} != reference {r:?}"
                ));
            }
        }
    }
    dense.settle();
    let (d, r) = (observe_dense(&dense), observe_ref(&refm));
    if d != r {
        return Err(format!("final settle: dense {d:?} != reference {r:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_page_table_matches_the_reference(
        seed in 0u64..100_000,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        prop_assert_eq!(run(seed, &ops), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn long_write_chains_match_the_reference(
        seed in 0u64..100_000,
        ops in proptest::collection::vec(chain_op_strategy(), 1..40),
    ) {
        prop_assert_eq!(run(seed, &ops), Ok(()));
    }
}

/// Tiny regions written hundreds of times per page between every kind of
/// read: a checkpoint, a read and a collection each see the whole chain,
/// and a run that crosses the log's cap leaves part of it replayed and part
/// still logged.
#[test]
fn long_write_chains_between_reads() {
    let mut ops = vec![
        Op::Mmap(false, 1, 1),
        Op::Mmap(false, 3, 2),
        Op::Mmap(true, 2, 3),
        Op::Mmap(false, 2, 4),
    ];
    for (calls, read) in [
        (1, Op::Checkpoint),
        (2, Op::Read),
        (3, Op::Collect),
        (256, Op::Checkpoint),
        (300, Op::Read),
        (40, Op::Collect),
        (256, Op::Read),
        (0, Op::Collect),
        (0, Op::Read),
    ] {
        if calls > 0 {
            ops.push(Op::DirtyRun(calls, 400));
        }
        ops.push(read);
    }
    assert_eq!(run(11, &ops), Ok(()));
}

/// Every operation that hands page state on, applied to regions with
/// hundreds of pending writes per page: some replayed at the log's cap,
/// some still logged.
#[test]
fn long_write_chains_meet_every_page_state_change() {
    let mut ops = vec![
        Op::Mmap(false, 2, 1),
        Op::Mmap(false, 1, 2),
        Op::Mmap(false, 3, 3),
    ];
    for op in [
        Op::ApplyPage(0, 1, 7),
        Op::Resize(1, 3, 5),
        Op::Resize(2, 1, 6),
        Op::RestoreResize(0, 3),
        Op::RestoreResize(1, 2),
        Op::WritePage(2, 0),
        Op::Munmap(0),
        Op::ApplyPage(1, 0, 9),
        Op::InstallVma(2, false, 2),
        Op::Resize(0, 0, 1),
        Op::Resize(0, 2, 8),
        Op::Checkpoint,
        Op::Collect,
    ] {
        ops.push(Op::DirtyRun(300, 400));
        ops.push(op);
        ops.push(Op::Read);
    }
    assert_eq!(run(12, &ops), Ok(()));
}

/// A shrink that cuts a word in two must drop the dirty bits of the cut
/// pages: a later clean grow (restore path) would otherwise revive them.
#[test]
fn shrink_then_clean_grow_revives_no_stale_bits() {
    let ops = [
        Op::InstallVma(3, false, 150),
        Op::WritePage(0, 100),
        Op::WritePage(0, 140),
        Op::WritePage(0, 65),
        Op::RestoreResize(0, 70),
        Op::RestoreResize(0, 150),
        Op::Mmap(false, 130, 9),
        Op::Collect,
        Op::WritePage(1, 129),
        Op::Resize(1, 64, 1),
        Op::RestoreResize(1, 130),
        Op::DirtyRandom(50),
        Op::Read,
    ];
    assert_eq!(run(1, &ops), Ok(()));
}

/// Writes logged before a structural change must land on the regions as
/// they were: the log fills past its cap, then every structural operation
/// and every read follows a pending log.
#[test]
fn logged_writes_land_before_every_structural_change() {
    let mut ops = vec![Op::Mmap(false, 130, 1), Op::Mmap(false, 70, 2)];
    for op in [
        Op::Resize(0, 3, 5),
        Op::Resize(1, 0, 6),
        Op::Munmap(1),
        Op::Mmap(false, 64, 3),
        Op::WritePage(0, 2),
        Op::ApplyPage(1, 9, 7),
        Op::InstallVma(20, false, 90),
        Op::RestoreResize(2, 40),
        Op::Collect,
        Op::Read,
    ] {
        ops.push(Op::DirtyRun(300, 3));
        ops.push(op);
    }
    assert_eq!(run(7, &ops), Ok(()));
}

/// A region no write has touched holds what its fill gives each page: a
/// grow with another seed must keep the old pages' contents and give the
/// new pages the new seed's.
#[test]
fn untouched_region_grows_with_another_seed() {
    let ops = [
        Op::Mmap(false, 70, 3),
        Op::Mmap(true, 10, 4),
        Op::Collect,
        Op::Resize(0, 150, 8),
        Op::Checkpoint,
        Op::Resize(1, 12, 4),
        Op::Resize(1, 200, 5),
        Op::Checkpoint,
        Op::Collect,
        Op::Read,
    ];
    assert_eq!(run(2, &ops), Ok(()));
}

/// A shrink and a grow of an untouched region, with the same seed and with
/// another, the grow crossing a bitset word.
#[test]
fn untouched_region_shrinks_then_grows() {
    let ops = [
        Op::Mmap(false, 130, 6),
        Op::Resize(0, 20, 6),
        Op::Checkpoint,
        Op::Resize(0, 140, 6),
        Op::Checkpoint,
        Op::Resize(0, 0, 1),
        Op::Resize(0, 90, 2),
        Op::Checkpoint,
        Op::Resize(0, 10, 2),
        Op::Resize(0, 100, 3),
        Op::Checkpoint,
        Op::Collect,
    ];
    assert_eq!(run(3, &ops), Ok(()));
}

/// Restore-path regions no page record has reached: installed, grown and
/// shrunk, they read as zeroed pages, and a restore-side grow of a seeded
/// region fills the new pages with zeros.
#[test]
fn installed_regions_without_page_records() {
    let ops = [
        Op::InstallVma(5, false, 100),
        Op::InstallVma(2, true, 30),
        Op::RestoreResize(1, 170),
        Op::RestoreResize(0, 10),
        Op::Checkpoint,
        Op::Mmap(false, 40, 9),
        Op::RestoreResize(2, 90),
        Op::Checkpoint,
        Op::DirtyRandom(20),
        Op::Read,
        Op::Checkpoint,
    ];
    assert_eq!(run(4, &ops), Ok(()));
}
