//! Property tests of the incremental checkpoint stream: for *any* sequence
//! of address-space operations interleaved with incremental updates, the
//! destination replica converges to the source once the source quiesces.

use dvelm_ckpt::{apply_update, incremental_update, IncrementalTracker};
use dvelm_proc::mem::VmaKind;
use dvelm_proc::{Pid, Process};
use dvelm_sim::DetRng;
use proptest::prelude::*;

/// One mutation of the source address space.
#[derive(Debug, Clone)]
enum Op {
    /// Dirty n random pages.
    Work(usize),
    /// Map a new region of n pages.
    Mmap(usize),
    /// Unmap the i-th currently mapped region (modulo count).
    Munmap(usize),
    /// Resize the i-th region to n pages.
    Resize(usize, usize),
    /// Ship an incremental update to the replica.
    Sync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..200).prop_map(Op::Work),
        (1usize..64).prop_map(Op::Mmap),
        (0usize..8).prop_map(Op::Munmap),
        ((0usize..8), (1usize..64)).prop_map(|(i, n)| Op::Resize(i, n)),
        Just(Op::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replica_converges_after_quiesce(
        seed in 0u64..100_000,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut rng = DetRng::new(seed);
        let mut src = Process::new(Pid(1), "p", 8, 64);
        let mut tracker = IncrementalTracker::new();

        // Replica starts from the first update (full state).
        let mut dst = Process::new(Pid(1), "p", 0, 0);
        let ids: Vec<_> = dst.addr_space.vmas().map(|v| v.id).collect();
        for id in ids {
            dst.addr_space.munmap(id);
        }
        let first = incremental_update(&mut tracker, &mut src);
        apply_update(&mut dst, &first);

        for op in &ops {
            match op {
                Op::Work(n) => src.do_work(&mut rng, *n),
                Op::Mmap(n) => {
                    src.addr_space.mmap(VmaKind::Anon, *n, rng.next_u64());
                }
                Op::Munmap(i) => {
                    src.addr_space.settle();
                    let live: Vec<_> = src.addr_space.vmas().map(|v| v.id).collect();
                    if !live.is_empty() {
                        src.addr_space.munmap(live[i % live.len()]);
                    }
                }
                Op::Resize(i, n) => {
                    src.addr_space.settle();
                    let live: Vec<_> = src.addr_space.vmas().map(|v| v.id).collect();
                    if !live.is_empty() {
                        src.addr_space.resize(live[i % live.len()], *n, rng.next_u64());
                    }
                }
                Op::Sync => {
                    let up = incremental_update(&mut tracker, &mut src);
                    apply_update(&mut dst, &up);
                }
            }
        }
        // Quiesce: one final update drains everything outstanding.
        let final_up = incremental_update(&mut tracker, &mut src);
        apply_update(&mut dst, &final_up);

        prop_assert_eq!(
            dst.addr_space.content_hash(),
            src.addr_space.content_hash(),
            "replica diverged after {} ops",
            ops.len()
        );
        prop_assert_eq!(dst.addr_space.vma_count(), src.addr_space.vma_count());
        prop_assert_eq!(dst.addr_space.total_pages(), src.addr_space.total_pages());

        // And once quiescent, further updates are empty.
        let idle = incremental_update(&mut tracker, &mut src);
        prop_assert!(idle.is_empty(), "quiescent source produced {idle:?}");
    }

    /// Update transfer sizes are bounded by what actually changed: syncing
    /// twice in a row without intervening work ships only the header.
    #[test]
    fn no_change_no_bytes(seed in 0u64..100_000, work in 1usize..300) {
        let mut rng = DetRng::new(seed);
        let mut src = Process::new(Pid(1), "p", 8, 256);
        let mut tracker = IncrementalTracker::new();
        let _ = incremental_update(&mut tracker, &mut src);
        src.do_work(&mut rng, work);
        let busy = incremental_update(&mut tracker, &mut src);
        prop_assert!(!busy.is_empty());
        let idle = incremental_update(&mut tracker, &mut src);
        prop_assert_eq!(idle.transfer_bytes(), 16, "idle update is just the header");
    }
}
