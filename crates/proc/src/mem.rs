//! The address space: VMAs, pages, dirty bits.
//!
//! Mirrors what the paper's precopy implementation tracks (§V-A):
//!
//! * **dirty pages** inside existing regions, via the PTE dirty bit — here a
//!   dense per-region bitset (64 pages per word), cleared when the
//!   incremental checkpointer collects the page;
//! * **changes to the address space itself** — insertions (mmap),
//!   modifications (grow/shrink) and removals (munmap) of regions, which the
//!   paper detects by diffing the live `vm_area_struct` list against a
//!   tracking list (the diffing lives in `dvelm-ckpt`; this module exposes
//!   the live list, a flat list sorted by region id).
//!
//! A page's contents are a base and a count of writes. The base is what
//! the region's fill gives the page — `mix(seed, i)` for page `i` of an
//! [`mmap`](AddressSpace::mmap)ed or [`resize`](AddressSpace::resize)d
//! region, 0 for one [`install_vma`](AddressSpace::install_vma)ed from a
//! checkpoint — until the region stores a fingerprint per page; the count
//! is the writes made since the page was last *folded*, each of which
//! rewrites the fingerprint once ([`Vma::fingerprint`] applies them on the
//! fly). A page is dirty when its bit is set or its count is non-zero.
//! Folding applies a region's counts to stored fingerprints and dirty bits
//! and zeroes them. It happens only where page state changes hands:
//! [`collect_dirty`](AddressSpace::collect_dirty) folds every region, and
//! `resize` and [`restore_resize`](AddressSpace::restore_resize) the
//! region they change. A [`write_page`](AddressSpace::write_page) rewrites
//! the stored page once, the same rewrite a count stands for, and an
//! [`apply_page`](AddressSpace::apply_page) overwrites the page and drops
//! its count. A grow whose fill differs stores the region's fingerprints
//! too. As in BLCR, whose helper
//! thread reads a process's pages only when it checkpoints that process,
//! regions that nothing writes, reads or migrates cost a bit per page, and
//! regions that are written but never read add a 4-byte count per page.
//!
//! Workload writes are deferred. [`AddressSpace::dirty_random`] appends the
//! caller's RNG state and a page count to a bounded per-space write log and
//! moves the RNG past the draws the writes will make, the way a real store
//! costs the application nothing but a PTE dirty bit until BLCR's helper
//! thread walks the page table. [`AddressSpace::settle`] replays the log in
//! order with the saved RNG states, each write a count increment, so
//! fingerprints, dirty bits and the caller's stream come out exactly as if
//! every write had run at once. The log settles when it fills
//! ([`WRITE_LOG_CAP`] entries), before every `&mut` operation, and must be
//! settled before page state is read: the `&self` readers
//! [`vmas`](AddressSpace::vmas), [`vma`](AddressSpace::vma),
//! [`dirty_count`](AddressSpace::dirty_count) and
//! [`content_hash`](AddressSpace::content_hash) panic on a pending log.

use dvelm_sim::DetRng;

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

/// How a region's pages were initialised, which decides what an untouched
/// page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// Page `i` holds `mix(seed, i)` ([`AddressSpace::mmap`] and
    /// [`AddressSpace::resize`]).
    Seeded(u64),
    /// Page `i` holds 0 ([`AddressSpace::install_vma`] and
    /// [`AddressSpace::restore_resize`]: contents arrive as page records).
    Zero,
}

impl Fill {
    #[inline]
    fn page(self, index: usize) -> u64 {
        match self {
            Fill::Seeded(seed) => mix(seed, index as u64),
            Fill::Zero => 0,
        }
    }
}

/// A mapped region (`vm_area_struct` analogue) and its slice of the page
/// table: a dirty bitset with 64 pages per word, each page's base contents
/// and a count per page of the writes not yet folded into them.
///
/// Until the first fold or [`AddressSpace::apply_page`], every page's base
/// is what the region's fill gives it and the region stores no fingerprints
/// at all. Folding, or a grow whose fill differs from the region's, stores
/// one fingerprint per page. [`fingerprint`](Self::fingerprint) applies a
/// page's count to its base.
#[derive(Debug, Clone)]
pub struct Vma {
    pub id: VmaId,
    pub kind: VmaKind,
    /// Virtual start address (page aligned).
    pub start: u64,
    pages: usize,
    /// What page `i` holds while `fingerprints` is empty.
    fill: Fill,
    /// 64-bit stand-in for each page's contents as of its last fold,
    /// indexed by page: empty while the region is untouched, else one entry
    /// per page.
    fingerprints: Vec<u64>,
    /// Writes to each page not yet folded into `fingerprints` and `dirty`:
    /// empty until the first replay, else one entry per page. Folding
    /// zeroes the counts and keeps the buffer.
    writes: Vec<u32>,
    /// At least the sum of `writes`, so no page's count can pass
    /// [`MAX_UNFOLDED`] while this does not: the replay adds each log
    /// entry's whole page count to every writable region.
    unfolded: u64,
    /// PTE dirty bit analogue, bit `i % 64` of word `i / 64`; cleared by the
    /// incremental checkpointer. Bits at or past the page count are zero.
    dirty: Vec<u64>,
}

impl Vma {
    /// An empty region; its first grow sets its fill.
    fn new(id: VmaId, kind: VmaKind, start: u64) -> Vma {
        Vma {
            id,
            kind,
            start,
            pages: 0,
            fill: Fill::Zero,
            fingerprints: Vec::new(),
            writes: Vec::new(),
            unfolded: 0,
            dirty: Vec::new(),
        }
    }

    /// Pages in the region.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// Region length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> u64 {
        self.start + self.len_bytes()
    }

    /// The 64-bit stand-in for page `index`'s contents: its base, rewritten
    /// once per unfolded write. Panics if `index` is past the page count.
    #[inline]
    pub fn fingerprint(&self, index: usize) -> u64 {
        assert!(
            index < self.pages,
            "page {index} of a {}-page region",
            self.pages
        );
        let base = match self.fingerprints.get(index) {
            Some(&fp) => fp,
            None => self.fill.page(index),
        };
        if self.unfolded == 0 {
            return base;
        }
        rewrite(base, self.writes[index])
    }

    /// Dirty pages in the region: set bits, and pages with unfolded writes.
    pub fn dirty_count(&self) -> usize {
        if self.unfolded == 0 {
            return self.dirty.iter().map(|w| w.count_ones() as usize).sum();
        }
        self.dirty
            .iter()
            .zip(self.writes.chunks(64))
            .map(|(&w, counts)| (w | nonzero(counts)).count_ones() as usize)
            .sum()
    }

    /// Whether [`AddressSpace::dirty_random`] may write to the region.
    fn writable(&self) -> bool {
        self.kind != VmaKind::Text && self.page_count() != 0
    }

    /// Store every page's fingerprint, if the region is untouched.
    #[inline]
    fn store(&mut self) {
        if self.fingerprints.is_empty() {
            let fill = self.fill;
            self.fingerprints = (0..self.pages).map(|i| fill.page(i)).collect();
        }
    }

    /// Make room for `n` more unfolded writes to the region, folding first
    /// if they could overflow a page's count.
    #[inline]
    fn reserve_writes(&mut self, n: u64) {
        if self.unfolded + n > MAX_UNFOLDED {
            self.fold();
        }
        self.unfolded += n;
    }

    /// Apply every unfolded write to the stored fingerprints and dirty
    /// bits, and zero the counts. A word of 64 pages with no write costs a
    /// scan of its counts.
    fn fold(&mut self) {
        if self.unfolded == 0 {
            return;
        }
        self.unfolded = 0;
        self.store();
        let mut queued = [(0, 0); LANES];
        let mut len = 0;
        for (w, counts) in self.writes.chunks_mut(64).enumerate() {
            let written = nonzero(counts);
            if written == 0 {
                continue;
            }
            self.dirty[w] |= written;
            let mut bits = written;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                queued[len] = (w * 64 + b, counts[b]);
                len += 1;
                if len == LANES {
                    rewrite_in_step(&mut self.fingerprints, &queued);
                    len = 0;
                }
                bits &= bits - 1;
            }
            counts.fill(0);
        }
        rewrite_in_step(&mut self.fingerprints, &queued[..len]);
    }

    /// Grow or shrink to `pages` pages, after folding. Grown pages hold
    /// what `fill` gives them and start dirty iff `dirty`; a shrink
    /// discards the dropped pages' dirty bits, so a later grow cannot
    /// revive them. An untouched region stays untouched unless it grows
    /// with a different fill.
    fn set_len(&mut self, pages: usize, fill: Fill, dirty: bool) {
        self.fold();
        if !self.writes.is_empty() {
            self.writes.resize(pages, 0);
        }
        let old = self.pages;
        if pages >= old {
            if self.fingerprints.is_empty() && (old == 0 || fill == self.fill) {
                self.fill = fill;
            } else {
                self.store();
                self.fingerprints.extend((old..pages).map(|i| fill.page(i)));
            }
            self.pages = pages;
            self.dirty.resize(pages.div_ceil(64), 0);
            if dirty {
                for i in old..pages {
                    self.dirty[i / 64] |= 1 << (i % 64);
                }
            }
            return;
        }
        self.pages = pages;
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
    /// Live regions, sorted by id: a process maps a handful, so a flat list
    /// searched by bisection beats a tree's node overhead.
    vmas: Vec<Vma>,
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
            vmas: Vec::new(),
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
        vma.set_len(pages, Fill::Seeded(seed), true);
        self.insert(vma);
        id
    }

    /// Unmap a region.
    pub fn munmap(&mut self, id: VmaId) -> bool {
        self.settle();
        match self.position(id) {
            Ok(at) => {
                self.vmas.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Grow or shrink a region to `pages` pages (heap growth, stack growth).
    /// New pages start dirty.
    pub fn resize(&mut self, id: VmaId, pages: usize, seed: u64) {
        self.settle();
        let vma = self.get_mut(id).expect("resize of unmapped VMA");
        vma.set_len(pages, Fill::Seeded(seed), true);
    }

    /// Write to a page: new fingerprint, dirty bit set. Every write rewrites
    /// a fingerprint the same way, so the page's unfolded writes can stay
    /// unfolded.
    pub fn write_page(&mut self, id: VmaId, index: usize) {
        self.settle();
        let vma = self.get_mut(id).expect("write to unmapped VMA");
        vma.store();
        let fp = &mut vma.fingerprints[index];
        *fp = mix(*fp, WRITE);
        vma.dirty[index / 64] |= 1 << (index % 64);
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
        if count == 0 || !self.vmas.iter().any(Vma::writable) {
            return;
        }
        self.log.push((rng.clone(), count));
        rng.skip(2 * count as u64);
        self.dirtied_total += count as u64;
        if self.log.len() == WRITE_LOG_CAP {
            self.settle();
        }
    }

    /// Make every logged write, oldest first, as a count increment; the
    /// pages' fingerprints and dirty bits take the writes when the region
    /// is next folded. Only structural operations, which settle first,
    /// change the writable regions, so every entry resolves them as its
    /// call would have. Each entry first reserves its page count in every
    /// writable region (an entry over `u32::MAX` pages is made in
    /// chunks), so the loop per write is two draws and an increment.
    pub fn settle(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let mut writable: Vec<&mut Vma> = self.vmas.iter_mut().filter(|v| v.writable()).collect();
        for vma in &mut writable {
            vma.writes.resize(vma.pages, 0);
        }
        let regions = writable.len();
        for (mut rng, count) in self.log.drain(..) {
            for chunk in chunks(count as u64) {
                for vma in &mut writable {
                    vma.reserve_writes(chunk);
                }
                for _ in 0..chunk {
                    let vma = &mut writable[rng.index(regions)];
                    let index = rng.index(vma.pages);
                    vma.writes[index] += 1;
                }
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
    /// in (region id, page index) order, after folding every region. Clean
    /// words of 64 pages cost one test each, and regions with no unfolded
    /// write fold for free, so steady-state iterations over a mostly-clean
    /// space touch almost nothing.
    pub fn collect_dirty(&mut self) -> Vec<PageRef> {
        self.settle();
        for vma in &mut self.vmas {
            vma.fold();
        }
        let mut out = Vec::with_capacity(self.dirty_count());
        for vma in &mut self.vmas {
            for w in 0..vma.dirty.len() {
                let mut bits = std::mem::take(&mut vma.dirty[w]);
                while bits != 0 {
                    let index = w * 64 + bits.trailing_zeros() as usize;
                    out.push(PageRef {
                        vma: vma.id,
                        index,
                        fingerprint: vma.fingerprint(index),
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
        self.vmas.iter().map(Vma::dirty_count).sum()
    }

    /// Live regions, in id order. Panics if writes are pending.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.assert_settled();
        self.vmas.iter()
    }

    /// Look up one region. Panics if writes are pending.
    pub fn vma(&self, id: VmaId) -> Option<&Vma> {
        self.assert_settled();
        self.position(id).ok().map(|at| &self.vmas[at])
    }

    /// Number of regions.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Total pages mapped.
    pub fn total_pages(&self) -> usize {
        self.vmas.iter().map(Vma::page_count).sum()
    }

    /// Order- and content-sensitive hash of the full address space, used to
    /// verify restore fidelity. Panics if writes are pending.
    pub fn content_hash(&self) -> u64 {
        self.assert_settled();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for vma in &self.vmas {
            h = mix(h, vma.id.0);
            h = mix(h, vma.start);
            for index in 0..vma.page_count() {
                h = mix(h, vma.fingerprint(index));
            }
        }
        h
    }

    /// Apply a page write received from a checkpoint stream (restore path).
    /// The page's unfolded writes are overwritten with it.
    pub fn apply_page(&mut self, r: PageRef) {
        self.settle();
        let vma = self.get_mut(r.vma).expect("apply_page to unmapped VMA");
        if let Some(n) = vma.writes.get_mut(r.index) {
            *n = 0;
        }
        vma.store();
        vma.fingerprints[r.index] = r.fingerprint;
        vma.dirty[r.index / 64] &= !(1 << (r.index % 64));
    }

    /// Recreate a region from checkpoint metadata (restore path). Pages start
    /// zeroed and clean; contents arrive via [`apply_page`](Self::apply_page).
    /// A region already mapped under `id` is replaced.
    pub fn install_vma(&mut self, id: VmaId, kind: VmaKind, start: u64, pages: usize) {
        self.settle();
        self.next_vma = self.next_vma.max(id.0 + 1);
        let mut vma = Vma::new(id, kind, start);
        vma.set_len(pages, Fill::Zero, false);
        self.reserve(vma.end());
        self.insert(vma);
    }

    /// Resize during restore (VMA-diff modification record).
    pub fn restore_resize(&mut self, id: VmaId, pages: usize) {
        self.settle();
        let vma = self.get_mut(id).expect("restore_resize of unmapped VMA");
        vma.set_len(pages, Fill::Zero, false);
        let end = vma.end();
        self.reserve(end);
    }

    /// Keep later [`mmap`](Self::mmap)s clear of a region that ends at `end`
    /// but was placed by a checkpoint stream rather than by this space.
    fn reserve(&mut self, end: u64) {
        self.next_addr = self.next_addr.max(end + GUARD_PAGES * PAGE_SIZE);
    }

    /// Where region `id` sits in the id-sorted list, or where it would go.
    fn position(&self, id: VmaId) -> Result<usize, usize> {
        self.vmas.binary_search_by_key(&id, |v| v.id)
    }

    fn get_mut(&mut self, id: VmaId) -> Option<&mut Vma> {
        let at = self.position(id).ok()?;
        Some(&mut self.vmas[at])
    }

    /// Add `vma` in id order, replacing a region with the same id.
    fn insert(&mut self, vma: Vma) {
        match self.position(vma.id) {
            Ok(at) => self.vmas[at] = vma,
            Err(at) => self.vmas.insert(at, vma),
        }
    }
}

/// Unmapped pages left after each region by [`AddressSpace::mmap`].
const GUARD_PAGES: u64 = 16;

/// Most writes a region holds unfolded, so no page's `u32` count overflows.
const MAX_UNFOLDED: u64 = u32::MAX as u64;

/// What one write does to a page's fingerprint.
const WRITE: u64 = 0x9E37_79B9;

/// `fp` after `n` writes.
#[inline]
fn rewrite(mut fp: u64, n: u32) -> u64 {
    for _ in 0..n {
        fp = mix(fp, WRITE);
    }
    fp
}

/// Pages whose write chains [`Vma::fold`] computes side by side.
const LANES: usize = 8;

/// Apply each queued `(page, writes)` to `fps`. One page's chain of writes
/// is a sequence of dependent multiplies, so the lanes run in step, as many
/// rounds as the longest chain, and overlap theirs; a lane keeps a round's
/// result only while its page has writes left.
fn rewrite_in_step(fps: &mut [u64], queued: &[(usize, u32)]) {
    let mut fp = [0u64; LANES];
    let mut left = [0u32; LANES];
    for (k, &(page, n)) in queued.iter().enumerate() {
        fp[k] = fps[page];
        left[k] = n;
    }
    let rounds = left.iter().copied().max().unwrap_or(0);
    for round in 0..rounds {
        for k in 0..LANES {
            let next = mix(fp[k], WRITE);
            fp[k] = if round < left[k] { next } else { fp[k] };
        }
    }
    for (k, &(page, _)) in queued.iter().enumerate() {
        fps[page] = fp[k];
    }
}

/// Bit `b` set iff `counts[b]` is non-zero (at most 64 counts).
#[inline]
fn nonzero(counts: &[u32]) -> u64 {
    counts
        .iter()
        .rev()
        .fold(0, |bits, &n| bits << 1 | u64::from(n != 0))
}

/// A log entry of `count` writes as runs of at most [`MAX_UNFOLDED`], each
/// of which a region can take after at most one fold.
fn chunks(count: u64) -> impl Iterator<Item = u64> {
    (0..count.div_ceil(MAX_UNFOLDED)).map(move |i| (count - i * MAX_UNFOLDED).min(MAX_UNFOLDED))
}

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
        let before = a.vma(id).unwrap().fingerprint(1);
        a.write_page(id, 1);
        assert_eq!(a.dirty_count(), 1);
        assert_ne!(a.vma(id).unwrap().fingerprint(1), before);
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
            for index in 0..vma.page_count() {
                dst.apply_page(PageRef {
                    vma: vma.id,
                    index,
                    fingerprint: vma.fingerprint(index),
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
    fn untouched_regions_store_no_page_contents() {
        let mut a = AddressSpace::new();
        let text = a.mmap(VmaKind::Text, 300, 1);
        let heap = a.mmap(VmaKind::Heap, 100, 2);
        a.install_vma(VmaId(9), VmaKind::Anon, 0x7000_0000_0000, 50);
        a.resize(heap, 40, 0);
        a.resize(heap, 130, 2);
        a.restore_resize(VmaId(9), 70);
        let stored =
            |a: &AddressSpace| -> Vec<usize> { a.vmas().map(|v| v.fingerprints.len()).collect() };
        assert_eq!(stored(&a), [0, 0, 0], "same-fill grows store nothing");
        assert_eq!(a.vma(heap).unwrap().fingerprint(129), mix(2, 129));
        assert_eq!(a.vma(VmaId(9)).unwrap().fingerprint(69), 0);
        assert_eq!(a.collect_dirty().len(), 300 + 130);
        a.content_hash();
        assert_eq!(stored(&a), [0, 0, 0], "reading stores nothing");

        a.write_page(heap, 7);
        assert_eq!(stored(&a), [0, 130, 0], "the first write stores the region");
        let counted =
            |a: &AddressSpace| -> Vec<usize> { a.vmas().map(|v| v.writes.len()).collect() };
        assert_eq!(counted(&a), [0, 0, 0], "a write counts nothing");
        a.dirty_random(&mut DetRng::new(4), 30);
        a.settle();
        assert_eq!(stored(&a), [0, 130, 0], "a replay stores no fingerprints");
        assert_eq!(
            counted(&a),
            [0, 130, 70],
            "a replay counts writable regions"
        );
        a.content_hash();
        assert_eq!(stored(&a), [0, 130, 0], "reading folds nothing");
        a.collect_dirty();
        assert_eq!(stored(&a), [0, 130, 70], "a collection folds and stores");
        assert_eq!(counted(&a), [0, 130, 70], "folding keeps the counts");
        a.resize(text, 310, 3);
        assert_eq!(
            stored(&a),
            [310, 130, 70],
            "a grow with another seed stores"
        );
        assert_eq!(a.vma(text).unwrap().fingerprint(299), mix(1, 299));
        assert_eq!(a.vma(text).unwrap().fingerprint(300), mix(3, 300));
    }

    /// The same space after the same writes made one by one, each region
    /// folded: fingerprints, dirty sets and collections must agree.
    fn assert_same_pages(a: &AddressSpace, b: &AddressSpace) {
        for (x, y) in a.vmas().zip(b.vmas()) {
            let pages =
                |v: &Vma| -> Vec<u64> { (0..v.page_count()).map(|i| v.fingerprint(i)).collect() };
            assert_eq!(pages(x), pages(y));
            assert_eq!(x.dirty_count(), y.dirty_count());
        }
        assert_eq!(a.clone().collect_dirty(), b.clone().collect_dirty());
    }

    /// Writes `count` pages with `draws` the way a replay resolves them.
    fn write_each(b: &mut AddressSpace, draws: &mut DetRng, count: usize) {
        let ids: Vec<VmaId> = b.vmas().filter(|v| v.writable()).map(|v| v.id).collect();
        for _ in 0..count {
            let id = ids[draws.index(ids.len())];
            let index = draws.index(b.vma(id).unwrap().page_count());
            b.write_page(id, index);
        }
    }

    #[test]
    fn replay_folds_a_region_before_its_counts_could_overflow() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 3, 1);
        a.mmap(VmaKind::Anon, 2, 2);
        a.collect_dirty();
        let mut b = a.clone();
        let mut rng = DetRng::new(6);
        let mut draws = rng.clone();
        let unfolded =
            |a: &AddressSpace| -> Vec<u64> { a.vmas.iter().map(|v| v.unfolded).collect() };
        let counted = |a: &AddressSpace| -> u32 { a.vmas.iter().flat_map(|v| &v.writes).sum() };

        a.dirty_random(&mut rng, 300);
        a.settle();
        assert_eq!(unfolded(&a), [300, 300]);
        // 400 more would pass the bound: both regions fold first.
        for vma in &mut a.vmas {
            vma.unfolded = MAX_UNFOLDED - 100;
        }
        a.dirty_random(&mut rng, 400);
        a.settle();
        assert_eq!(unfolded(&a), [400, 400]);
        assert_eq!(counted(&a), 400, "the first 300 writes were folded");
        write_each(&mut b, &mut draws, 700);
        assert_same_pages(&a, &b);

        // 400 more reach the bound exactly: nothing folds.
        for vma in &mut a.vmas {
            vma.unfolded = MAX_UNFOLDED - 400;
        }
        a.dirty_random(&mut rng, 400);
        a.settle();
        assert_eq!(unfolded(&a), [MAX_UNFOLDED, MAX_UNFOLDED]);
        assert_eq!(counted(&a), 800);
        write_each(&mut b, &mut draws, 400);
        assert_same_pages(&a, &b);
    }

    #[test]
    fn an_entry_past_the_bound_replays_in_chunks() {
        let chunked = |count: u64| -> Vec<u64> { chunks(count).collect() };
        assert_eq!(chunked(400), [400]);
        assert_eq!(chunked(MAX_UNFOLDED), [MAX_UNFOLDED]);
        assert_eq!(chunked(MAX_UNFOLDED + 1), [MAX_UNFOLDED, 1]);
        assert_eq!(
            chunked(2 * MAX_UNFOLDED + 7),
            [MAX_UNFOLDED, MAX_UNFOLDED, 7]
        );
        // A full chunk fits a region only once it has folded.
        let mut vma = Vma::new(VmaId(1), VmaKind::Heap, 0);
        vma.set_len(2, Fill::Seeded(3), false);
        vma.writes = vec![0, 5];
        vma.unfolded = 5;
        vma.reserve_writes(MAX_UNFOLDED);
        assert_eq!(vma.unfolded, MAX_UNFOLDED);
        assert_eq!(vma.writes, [0, 0]);
        assert_eq!(vma.fingerprint(1), rewrite(mix(3, 1), 5));
        assert_eq!(vma.dirty_count(), 1);
    }

    #[test]
    fn out_of_order_install_keeps_id_order() {
        let mut a = AddressSpace::new();
        for id in [7, 2, 5, 1] {
            a.install_vma(
                VmaId(id),
                VmaKind::Heap,
                0x7000_0000_0000 + id * 0x100_0000,
                2,
            );
            a.write_page(VmaId(id), 1);
        }
        let order: Vec<u64> = a.vmas().map(|v| v.id.0).collect();
        assert_eq!(order, [1, 2, 5, 7]);
        let dirty: Vec<u64> = a.collect_dirty().iter().map(|r| r.vma.0).collect();
        assert_eq!(dirty, [1, 2, 5, 7]);
        a.install_vma(VmaId(5), VmaKind::Anon, 0x7500_0000_0000, 3);
        assert_eq!(a.vma_count(), 4, "reinstalling an id replaces the region");
        assert_eq!(a.vma(VmaId(5)).unwrap().kind, VmaKind::Anon);
        assert_eq!(a.mmap(VmaKind::Anon, 1, 1), VmaId(8));
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
                for index in 0..vma.page_count() {
                    dst.apply_page(PageRef { vma: vma.id, index, fingerprint: vma.fingerprint(index) });
                }
            }
            prop_assert_eq!(dst.content_hash(), src.content_hash());
        }
    }
}
