//! The socket demultiplexing tables behind `ehash` and `bhash`.
//!
//! Linux finds the socket of an incoming segment through hash chains keyed
//! by the connection 4-tuple (`ehash`) or the bound address (`bhash`). The
//! simulator keeps both in one small open-addressing table: linear
//! probing over a power-of-two slot array at most three quarters full, a fixed
//! multiplicative hash, and backward-shift deletion, so no tombstone ever
//! lengthens a probe. Tables are only probed, inserted into and removed
//! from, never iterated, so their slot order cannot reach any output.

use dvelm_net::SockAddr;

/// The multiplier of the Fibonacci hash: 2^64 / φ, odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Established-connection key: a connected socket's local and remote
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FourTuple {
    pub(crate) local: SockAddr,
    pub(crate) remote: SockAddr,
}

/// A key a [`DemuxTable`] can hold. The table takes a slot index from the
/// hash's high bits, so a hash must mix its input into them.
pub(crate) trait DemuxKey: Copy + Eq {
    /// The key's hash.
    fn hash(&self) -> u64;
}

/// An endpoint packed into the low 48 bits of a word.
fn pack(addr: SockAddr) -> u64 {
    (u64::from(addr.ip.0) << 16) | u64::from(addr.port.0)
}

impl DemuxKey for SockAddr {
    fn hash(&self) -> u64 {
        pack(*self).wrapping_mul(GOLDEN)
    }
}

impl DemuxKey for FourTuple {
    fn hash(&self) -> u64 {
        (pack(self.local).wrapping_mul(GOLDEN) ^ pack(self.remote)).wrapping_mul(GOLDEN)
    }
}

/// An open-addressing map from `K` to a small `Copy` value.
#[derive(Debug)]
pub(crate) struct DemuxTable<K, V> {
    /// Power-of-two many slots (none before the first insert), at most
    /// three quarters of them full.
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// `64 - log2(slots.len())`: a hash shifted right by this is a slot.
    shift: u32,
}

impl<K: DemuxKey, V: Copy> DemuxTable<K, V> {
    /// An empty table; it allocates on the first insert.
    pub(crate) fn new() -> Self {
        DemuxTable {
            slots: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// The slot a probe for `key` starts at.
    #[inline]
    fn home(&self, key: &K) -> usize {
        // `shift` is 64 only while there are no slots, and no probe runs
        // then.
        (key.hash() >> self.shift) as usize
    }

    /// Where `key` is: `(slot, true)` if held there, else `(slot, false)`
    /// with the empty slot that ends its probe. The table must have slots.
    #[inline]
    fn probe(&self, key: &K) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return (i, false),
                Some((k, _)) if k == key => return (i, true),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The value under `key`.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        match self.probe(key) {
            (i, true) => self.slots[i].map(|(_, v)| v),
            (_, false) => None,
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Map `key` to `value`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if !self.slots.is_empty() {
            match self.probe(&key) {
                (i, true) => return self.slots[i].replace((key, value)).map(|(_, v)| v),
                (i, false) if 4 * (self.len + 1) <= 3 * self.slots.len() => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
                (_, false) => {}
            }
        }
        self.grow();
        let (i, _) = self.probe(&key);
        self.slots[i] = Some((key, value));
        self.len += 1;
        None
    }

    /// Remove `key`, returning its value. The entries after it in its
    /// probe run shift back into the hole, so every remaining key stays
    /// reachable from its home slot without tombstones.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let (mut hole, true) = self.probe(key) else {
            return None;
        };
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut i = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[i] {
            // The entry at `i` may fill the hole if the hole lies on its
            // probe path, between its home and `i`.
            let home = self.home(k);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(value)
    }

    /// Double the slot array (8 slots at first) and rehash every entry.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        self.shift = 64 - cap.trailing_zeros();
        for (key, value) in old.into_iter().flatten() {
            let (i, _) = self.probe(&key);
            self.slots[i] = Some((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_net::{Ip, Port};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    /// A key with a well-mixed hash.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Mixed(u32);

    impl DemuxKey for Mixed {
        fn hash(&self) -> u64 {
            u64::from(self.0).wrapping_mul(GOLDEN)
        }
    }

    /// A key whose hash takes one of three values, homing every key on
    /// the first, the middle or the last slot: long runs of keys share a
    /// home, the last slot's run wraps round to the front, and every
    /// removal has entries to shift back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Colliding(u32);

    impl DemuxKey for Colliding {
        fn hash(&self) -> u64 {
            [0, 1 << 63, u64::MAX][self.0 as usize % 3]
        }
    }

    /// One step of the differential workload, on key `k`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, u64),
        Get(u32),
        Remove(u32),
    }

    /// Keys from `0..keys`: a small space gives overwrites and removal
    /// hits, a large one growth through several resizes.
    fn ops(keys: u32) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0..keys, 0u64..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
                (0..keys, 0u64..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
                (0..keys).prop_map(Op::Get),
                (0..keys).prop_map(Op::Remove),
            ],
            1..600,
        )
    }

    /// Run `ops` on a table and on a `BTreeMap`, checking every answer and
    /// then every key of the space.
    fn matches_model<K: DemuxKey + Ord + std::fmt::Debug>(
        ops: &[Op],
        keys: u32,
        key: impl Fn(u32) -> K,
    ) -> Result<(), TestCaseError> {
        let mut table: DemuxTable<K, u64> = DemuxTable::new();
        let mut model: BTreeMap<K, u64> = BTreeMap::new();
        for &op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(table.insert(key(k), v), model.insert(key(k), v))
                }
                Op::Get(k) => prop_assert_eq!(table.get(&key(k)), model.get(&key(k)).copied()),
                Op::Remove(k) => prop_assert_eq!(table.remove(&key(k)), model.remove(&key(k))),
            }
            prop_assert_eq!(table.len, model.len());
            prop_assert!(4 * table.len <= 3 * table.slots.len());
        }
        for k in 0..keys {
            prop_assert_eq!(table.get(&key(k)), model.get(&key(k)).copied());
            prop_assert_eq!(table.contains_key(&key(k)), model.contains_key(&key(k)));
        }
        Ok(())
    }

    proptest! {
        /// Against a `BTreeMap` model over a small key space: overwrites,
        /// misses, removals and re-inserts after them.
        #[test]
        fn table_matches_model_small_space(ops in ops(24)) {
            matches_model(&ops, 24, Mixed)?;
        }

        /// The same over a key space large enough to grow the table
        /// through several resizes (from 8 slots up to 1024).
        #[test]
        fn table_matches_model_through_growth(ops in ops(400)) {
            matches_model(&ops, 400, Mixed)?;
        }

        /// The same with every key on one of three home slots: probes walk
        /// long runs, and each removal shifts its run back.
        #[test]
        fn table_matches_model_under_collisions(ops in ops(60)) {
            matches_model(&ops, 60, Colliding)?;
        }
    }

    #[test]
    fn removal_keeps_wrapped_runs_reachable() {
        // 30 keys in 64 slots, homed on slots 0, 32 and 63: the last run
        // wraps into the first, and removing from the front of a run must
        // pull every later member back, across the wrap too.
        let mut table: DemuxTable<Colliding, u32> = DemuxTable::new();
        for k in 0..30 {
            table.insert(Colliding(k), k);
        }
        for k in (0..30).step_by(4) {
            assert_eq!(table.remove(&Colliding(k)), Some(k));
        }
        for k in 0..30 {
            let expect = (k % 4 != 0).then_some(k);
            assert_eq!(table.get(&Colliding(k)), expect, "key {k}");
        }
    }

    #[test]
    fn socket_keys_hash_apart() {
        // 256 connections from one client host to one server port: the
        // ehash keys differ only in the remote port, and must still spread
        // over the slots.
        let local = SockAddr::new(Ip::CLUSTER_PUBLIC, 27_960);
        let mut table: DemuxTable<FourTuple, u32> = DemuxTable::new();
        for p in 0..256u16 {
            let remote = SockAddr {
                ip: Ip::new(198, 51, 100, 1),
                port: Port(32_768 + p),
            };
            table.insert(FourTuple { local, remote }, u32::from(p));
        }
        let homes: std::collections::BTreeSet<usize> = table
            .slots
            .iter()
            .flatten()
            .map(|(k, _)| table.home(k))
            .collect();
        assert!(homes.len() > 128, "{} distinct home slots", homes.len());
    }
}
