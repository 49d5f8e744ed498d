//! Differential test of the dense page table: [`AddressSpace`] against a
//! reference model that stores one `{fingerprint, dirty}` record per page and
//! a per-region dirty-count map beside the region map — the straightforward
//! layout the dense per-region bitsets replaced.
//!
//! Both sides run the same random sequence of address-space operations from
//! the same RNG seed. After every operation they must agree on what a
//! collection would return (including its order), on the dirty count, the
//! content hash, the pages ever dirtied, the pages mapped, and the position
//! of the RNG stream (the same number of draws in the same order).

use dvelm_proc::mem::{AddressSpace, PageRef, VmaId, VmaKind, PAGE_SIZE};
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

        pub fn total_pages(&self) -> usize {
            self.vmas.values().map(|v| v.pages.len()).sum()
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

/// One operation. Region and page operands are selectors, reduced modulo
/// the live region count / the region's page count when applied.
#[derive(Debug, Clone)]
enum Op {
    Mmap(bool, usize, u64),
    Resize(usize, usize, u64),
    Munmap(usize),
    WritePage(usize, usize),
    DirtyRandom(usize),
    Collect,
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
        Just(Op::Collect),
        (0usize..8, 0usize..1000, 0u64..u64::MAX).prop_map(|(i, p, f)| Op::ApplyPage(i, p, f)),
        (1u64..24, any_bool(), 0usize..200).prop_map(|(id, t, n)| Op::InstallVma(id, t, n)),
        (0usize..8, 0usize..200).prop_map(|(i, n)| Op::RestoreResize(i, n)),
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
        Op::Collect => {
            assert_eq!(dense.collect_dirty(), refm.collect_dirty());
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

/// Everything observable about the page table, without mutating it.
fn observe_dense(a: &AddressSpace, rng: &DetRng) -> (Vec<PageRef>, usize, u64, u64, usize, u64) {
    (
        a.clone().collect_dirty(),
        a.dirty_count(),
        a.content_hash(),
        a.dirtied_total,
        a.total_pages(),
        rng.clone().next_u64(),
    )
}

fn observe_ref(a: &reference::Space, rng: &DetRng) -> (Vec<PageRef>, usize, u64, u64, usize, u64) {
    (
        a.clone().collect_dirty(),
        a.dirty_count(),
        a.content_hash(),
        a.dirtied_total,
        a.total_pages(),
        rng.clone().next_u64(),
    )
}

fn run(seed: u64, ops: &[Op]) -> Result<(), String> {
    let mut dense = AddressSpace::new();
    let mut refm = reference::Space::new();
    let mut rd = DetRng::new(seed);
    let mut rr = DetRng::new(seed);
    for (step, op) in ops.iter().enumerate() {
        apply(op, &mut dense, &mut refm, &mut rd, &mut rr);
        let (d, r) = (observe_dense(&dense, &rd), observe_ref(&refm, &rr));
        if d != r {
            return Err(format!(
                "step {step} {op:?}: dense {d:?} != reference {r:?}"
            ));
        }
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
    ];
    assert_eq!(run(1, &ops), Ok(()));
}
