//! Restart: rebuild a process from a checkpoint image and apply incremental
//! updates — the destination side of the precopy protocol.

use crate::dirty::IncrementalUpdate;
use crate::image::CheckpointImage;
use dvelm_proc::{FdEntry, Process, Thread};

/// Rebuild a process skeleton from a full checkpoint image. Sockets are
/// *not* restored here (BLCR semantics); the socket-migration layer attaches
/// them afterwards and rewrites the fd table.
pub fn restore_process(img: &CheckpointImage) -> Process {
    let mut p = Process::new(img.meta.pid, img.meta.name.clone(), 0, 0);
    // Throw away the default layout; the image defines the address space.
    let default_vmas: Vec<_> = p.addr_space.vmas().map(|v| v.id).collect();
    for id in default_vmas {
        p.addr_space.munmap(id);
    }
    for v in &img.vmas {
        p.addr_space.install_vma(v.id, v.kind, v.start, v.pages);
    }
    for page in &img.pages {
        p.addr_space.apply_page(*page);
    }
    p.threads = (1..=img.meta.thread_count as u64)
        .map(Thread::new)
        .collect();
    for t in &mut p.threads {
        t.freeze();
    }
    for (fd, path, offset) in &img.freeze.files {
        p.fds.insert_at(
            dvelm_proc::Fd(*fd),
            FdEntry::File {
                path: path.clone(),
                offset: *offset,
            },
        );
    }
    p.cpu_share = img.meta.cpu_share;
    p
}

/// Apply one incremental update to a restoring process (the destination's
/// helper applies updates "before the actual execution context gets
/// migrated", §III-A).
pub fn apply_update(p: &mut Process, update: &IncrementalUpdate) {
    for v in &update.vma_diff.inserted {
        p.addr_space.install_vma(v.id, v.kind, v.start, v.pages);
    }
    for (id, pages) in &update.vma_diff.resized {
        p.addr_space.restore_resize(*id, *pages);
    }
    for id in &update.vma_diff.removed {
        p.addr_space.munmap(*id);
    }
    for page in &update.pages {
        p.addr_space.apply_page(*page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{full_checkpoint, incremental_update};
    use crate::dirty::IncrementalTracker;
    use dvelm_proc::mem::VmaKind;
    use dvelm_proc::Pid;
    use dvelm_sim::DetRng;

    #[test]
    fn full_restore_reproduces_content_hash() {
        let mut src = Process::new(Pid(9), "zone_serv9", 64, 512);
        let mut rng = DetRng::new(2);
        src.do_work(&mut rng, 300);
        src.addr_space.settle();
        let img = full_checkpoint(&src);
        let dst = restore_process(&img);
        assert_eq!(dst.addr_space.content_hash(), src.addr_space.content_hash());
        assert_eq!(dst.pid, src.pid);
        assert_eq!(dst.threads.len(), src.threads.len());
        assert!(dst.is_frozen(), "restored process awaits resume");
    }

    #[test]
    fn precopy_stream_converges_to_identical_memory() {
        // Source runs while updates stream to the destination — the essence
        // of live migration. After the final (quiescent) update the two
        // address spaces must match.
        let mut src = Process::new(Pid(3), "srv", 32, 1024);
        let mut tracker = IncrementalTracker::new();
        let mut rng = DetRng::new(7);

        // Initial full state via the first incremental step (everything
        // inserted + all pages).
        let first = incremental_update(&mut tracker, &mut src);
        let mut dst = Process::new(Pid(3), "srv", 0, 0);
        let ids: Vec<_> = dst.addr_space.vmas().map(|v| v.id).collect();
        for id in ids {
            dst.addr_space.munmap(id);
        }
        apply_update(&mut dst, &first);

        // Several iterations with ongoing mutation, including VMA churn.
        for i in 0..5 {
            src.do_work(&mut rng, 100);
            if i == 2 {
                src.addr_space.mmap(VmaKind::Anon, 16, 42);
            }
            let up = incremental_update(&mut tracker, &mut src);
            apply_update(&mut dst, &up);
        }
        // Freeze: no more writes; final update drains the last dirty pages.
        let final_up = incremental_update(&mut tracker, &mut src);
        apply_update(&mut dst, &final_up);
        assert_eq!(dst.addr_space.content_hash(), src.addr_space.content_hash());
    }

    #[test]
    fn mmap_after_restore_does_not_overlap_restored_regions() {
        let mut src = Process::new(Pid(4), "srv", 512, 4096);
        src.addr_space.mmap(VmaKind::Anon, 100, 3);
        let mut dst = restore_process(&full_checkpoint(&src));
        for i in 0..3 {
            dst.addr_space.mmap(VmaKind::Anon, 64, i);
        }
        let mut ranges: Vec<(u64, u64)> =
            dst.addr_space.vmas().map(|v| (v.start, v.end())).collect();
        ranges.sort_unstable();
        assert_eq!(ranges.len(), 7);
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping VMAs: {w:x?}");
        }
    }

    #[test]
    fn restore_recreates_files() {
        let mut src = Process::new(Pid(1), "p", 4, 4);
        src.fds.insert(FdEntry::File {
            path: "/srv/map.bsp".into(),
            offset: 123,
        });
        let img = full_checkpoint(&src);
        let dst = restore_process(&img);
        let files: Vec<_> = dst
            .fds
            .iter()
            .filter_map(|(fd, e)| match e {
                FdEntry::File { path, offset } => Some((fd.0, path.clone(), *offset)),
                _ => None,
            })
            .collect();
        assert_eq!(files, vec![(0, "/srv/map.bsp".to_string(), 123)]);
    }
}
