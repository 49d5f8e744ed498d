//! A dense table keyed by [`SockId`].
//!
//! A host allocates socket ids from 1 upward and never reuses one, so a
//! table indexed by the id itself answers a lookup with a bounds check and
//! two loads. Every segment, read and timer looks a socket up, and a zone
//! server holds 257 or more of them (the kernel the paper modifies finds a
//! socket through direct hash chains, §V-C1).
//!
//! Every migration installs its sockets under fresh ids, so the index
//! grows with every id a host ever allocated. An empty slot is therefore
//! one `u32`, and the values live densely in a second vector behind it.

use crate::host::SockId;

/// A map from [`SockId`] to `T` that iterates in ascending id.
///
/// `slots[id]` is 0 for an absent id and `i + 1` for the value stored at
/// `entries[i]`. Removing a value moves the last entry into its place and
/// repoints that entry's slot, so `entries` holds exactly the live values
/// and its length is the live count. The index holds one slot per id up to
/// the largest ever inserted, which is why ids must be dense.
#[derive(Debug)]
pub struct SockTable<T> {
    slots: Vec<u32>,
    entries: Vec<(SockId, T)>,
}

impl<T> Default for SockTable<T> {
    fn default() -> Self {
        SockTable::new()
    }
}

/// The slot position of `id`.
#[inline]
fn at(id: SockId) -> usize {
    id.0 as usize
}

impl<T> SockTable<T> {
    /// An empty table.
    pub const fn new() -> Self {
        SockTable {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no live entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position in `entries` of `id`'s value, if it has one.
    #[inline]
    fn index(&self, id: SockId) -> Option<usize> {
        let slot = *self.slots.get(at(id))?;
        (slot as usize).checked_sub(1)
    }

    /// The value stored under `id`.
    #[inline]
    pub fn get(&self, id: SockId) -> Option<&T> {
        let i = self.index(id)?;
        Some(&self.entries[i].1)
    }

    /// Mutable access to the value stored under `id`.
    #[inline]
    pub fn get_mut(&mut self, id: SockId) -> Option<&mut T> {
        let i = self.index(id)?;
        Some(&mut self.entries[i].1)
    }

    /// Store `value` under `id`; returns the value it replaced.
    pub fn insert(&mut self, id: SockId, value: T) -> Option<T> {
        if let Some(i) = self.index(id) {
            return Some(std::mem::replace(&mut self.entries[i].1, value));
        }
        if at(id) >= self.slots.len() {
            self.slots.resize(at(id) + 1, 0);
        }
        self.entries.push((id, value));
        debug_assert!(self.entries.len() <= u32::MAX as usize);
        self.slots[at(id)] = self.entries.len() as u32;
        None
    }

    /// Remove and return the value stored under `id`.
    pub fn remove(&mut self, id: SockId) -> Option<T> {
        let i = self.index(id)?;
        self.slots[at(id)] = 0;
        let (_, value) = self.entries.swap_remove(i);
        if let Some(&(moved, _)) = self.entries.get(i) {
            self.slots[at(moved)] = i as u32 + 1;
        }
        Some(value)
    }

    /// Keep only the entries for which `keep` returns true, visiting them
    /// in ascending id.
    pub fn retain(&mut self, mut keep: impl FnMut(SockId, &mut T) -> bool) {
        for pos in 0..self.slots.len() {
            let Some(i) = (self.slots[pos] as usize).checked_sub(1) else {
                continue;
            };
            let (id, value) = &mut self.entries[i];
            let id = *id;
            if !keep(id, value) {
                self.remove(id);
            }
        }
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.entries.clear();
    }

    /// Every entry, in ascending id.
    pub fn iter(&self) -> impl Iterator<Item = (SockId, &T)> + '_ {
        self.slots.iter().filter_map(|&slot| {
            let (id, value) = self.entries.get((slot as usize).checked_sub(1)?)?;
            Some((*id, value))
        })
    }

    /// Every id with a value, ascending.
    pub fn ids(&self) -> impl Iterator<Item = SockId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sparse_id_costs_one_slot_per_id_below_it() {
        // The values live only in `entries`, whatever their size.
        let mut t: SockTable<[u64; 38]> = SockTable::new();
        t.insert(SockId(5_000), [0; 38]);
        assert_eq!(t.slots.len(), 5_001);
        assert_eq!(t.entries.len(), 1);
    }
}
