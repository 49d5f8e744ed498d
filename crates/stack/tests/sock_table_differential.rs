//! Differential test of the dense socket table: [`SockTable`] against a
//! `BTreeMap<SockId, _>`, the layout it replaced in `HostStack` and in the
//! cluster's socket-owner index.
//!
//! Both sides run the same random sequence of operations: inserts that
//! add or overwrite, reads, in-place updates, removals, re-inserts of
//! removed ids, `retain` and `clear`. Ids mix a dense low range with
//! sparse and large ones. Every operation must return the same result on
//! both sides, `retain` must visit the same ids in the same order, and
//! after every operation the two must agree on the live count and on the
//! full contents in iteration order, which for the model is ascending id.

use dvelm_stack::{SockId, SockTable};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One operation. `Reinsert` selects among the ids removed so far.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    Get(u64),
    GetMut(u64, u32),
    Remove(u64),
    Reinsert(usize, u32),
    Retain(u32),
    Clear,
}

/// Mostly dense low ids, as a host allocates them, plus id 0, sparse ids
/// and a few far past everything else.
fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..48, 1u64..48, 0u64..1, 48u64..5_000, 60_000u64..70_000]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (id_strategy(), 0u32..1000).prop_map(|(id, v)| Op::Insert(id, v)),
        (id_strategy(), 0u32..1000).prop_map(|(id, v)| Op::Insert(id, v)),
        id_strategy().prop_map(Op::Get),
        (id_strategy(), 1u32..100).prop_map(|(id, d)| Op::GetMut(id, d)),
        id_strategy().prop_map(Op::Remove),
        (0usize..64, 0u32..1000).prop_map(|(i, v)| Op::Reinsert(i, v)),
        (2u32..5).prop_map(Op::Retain),
        Just(Op::Clear),
    ]
}

/// What an operation returned, compared across the two sides.
#[derive(Debug, PartialEq, Eq)]
enum Out {
    Value(Option<u32>),
    Visited(Vec<SockId>),
    Nothing,
}

/// Both sides plus the ids removed so far, for `Reinsert`.
#[derive(Default)]
struct Pair {
    dense: SockTable<u32>,
    model: BTreeMap<SockId, u32>,
    removed: Vec<SockId>,
}

impl Pair {
    fn apply(&mut self, op: &Op) -> (Out, Out) {
        match *op {
            Op::Insert(id, v) => self.insert(SockId(id), v),
            Op::Get(id) => {
                let id = SockId(id);
                (
                    Out::Value(self.dense.get(id).copied()),
                    Out::Value(self.model.get(&id).copied()),
                )
            }
            Op::GetMut(id, d) => {
                let id = SockId(id);
                let bump = |v: &mut u32| {
                    *v += d;
                    *v
                };
                (
                    Out::Value(self.dense.get_mut(id).map(bump)),
                    Out::Value(self.model.get_mut(&id).map(bump)),
                )
            }
            Op::Remove(id) => {
                let id = SockId(id);
                let out = (
                    Out::Value(self.dense.remove(id)),
                    Out::Value(self.model.remove(&id)),
                );
                if out.1 != Out::Value(None) {
                    self.removed.push(id);
                }
                out
            }
            Op::Reinsert(i, v) => match self.removed.get(i % self.removed.len().max(1)) {
                Some(&id) => self.insert(id, v),
                None => (Out::Nothing, Out::Nothing),
            },
            Op::Retain(m) => {
                // Drop every entry whose value is a multiple of `m`, and
                // bump the ones kept, so `retain`'s mutable access counts.
                let keep = |seen: &mut Vec<SockId>, id: SockId, v: &mut u32| {
                    seen.push(id);
                    let multiple = v.is_multiple_of(m);
                    *v += 1;
                    !multiple
                };
                let (mut a, mut b) = (Vec::new(), Vec::new());
                self.dense.retain(|id, v| keep(&mut a, id, v));
                self.model.retain(|&id, v| keep(&mut b, id, v));
                (Out::Visited(a), Out::Visited(b))
            }
            Op::Clear => {
                self.dense.clear();
                self.model.clear();
                (Out::Nothing, Out::Nothing)
            }
        }
    }

    fn insert(&mut self, id: SockId, v: u32) -> (Out, Out) {
        (
            Out::Value(self.dense.insert(id, v)),
            Out::Value(self.model.insert(id, v)),
        )
    }

    /// Live count, emptiness and every entry in iteration order.
    fn check(&self) -> Result<(), String> {
        let dense: Vec<(SockId, u32)> = self.dense.iter().map(|(id, &v)| (id, v)).collect();
        let model: Vec<(SockId, u32)> = self.model.iter().map(|(&id, &v)| (id, v)).collect();
        if dense != model {
            return Err(format!("contents {dense:?} != {model:?}"));
        }
        if !self.dense.ids().eq(self.model.keys().copied()) {
            return Err("ids() disagrees with iter()".into());
        }
        if self.dense.len() != self.model.len() || self.dense.is_empty() != self.model.is_empty() {
            return Err(format!("len {} != {}", self.dense.len(), self.model.len()));
        }
        Ok(())
    }
}

fn run(ops: &[Op]) -> Result<(), String> {
    let mut pair = Pair::default();
    for (step, op) in ops.iter().enumerate() {
        let (dense, model) = pair.apply(op);
        if dense != model {
            return Err(format!("step {step} {op:?}: {dense:?} != {model:?}"));
        }
        pair.check()
            .map_err(|e| format!("step {step} {op:?}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_sock_table_matches_the_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        prop_assert_eq!(run(&ops), Ok(()));
    }
}

/// Removing an entry moves the last-inserted one into its place; a later
/// remove, overwrite or re-insert must still find every id where it is.
#[test]
fn removals_between_reinserts_keep_every_id_reachable() {
    let ops = [
        Op::Insert(3, 30),
        Op::Insert(1, 10),
        Op::Insert(65_000, 650),
        Op::Insert(2, 20),
        Op::Remove(3),
        Op::GetMut(2, 1),
        Op::Insert(65_000, 651),
        Op::Remove(1),
        Op::Reinsert(0, 31),
        Op::Retain(2),
        Op::Reinsert(1, 11),
        Op::Remove(2),
        Op::Clear,
        Op::Reinsert(0, 32),
        Op::Get(3),
    ];
    assert_eq!(run(&ops), Ok(()));
}
