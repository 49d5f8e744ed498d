//! Checkpoint image records and their transfer-size accounting.
//!
//! Two size notions coexist deliberately:
//!
//! * [`transfer_bytes`](CheckpointImage::transfer_bytes) — the number of
//!   bytes the real system would move (pages count at full `PAGE_SIZE`);
//!   this feeds the migration timing model;
//! * the compact [`encode`](CheckpointImage::encode) representation — page
//!   contents are 64-bit fingerprints in the simulation, so the encoded
//!   buffer is small; only the benchmark's encode probe uses it (see
//!   [`wire`](crate::wire)).

use crate::wire::WireWriter;
use dvelm_proc::mem::{PageRef, VmaId, VmaKind, PAGE_SIZE};
use dvelm_proc::process::SIGHANDLER_RECORD_LEN;
use dvelm_proc::thread::THREAD_RECORD_LEN;
use dvelm_proc::{Pid, Process};

/// Transfer-size overhead of one page record (addressing header), bytes.
pub const PAGE_RECORD_OVERHEAD: u64 = 24;
/// Transfer size of one VMA record, bytes.
pub const VMA_RECORD_LEN: u64 = 64;
/// Transfer size of the process metadata block, bytes.
pub const META_RECORD_LEN: u64 = 128;

/// Metadata of the checkpointed process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessMeta {
    pub pid: Pid,
    pub name: String,
    pub thread_count: u32,
    pub cpu_share: f64,
}

/// A mapped-region record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmaRecord {
    pub id: VmaId,
    pub kind: VmaKind,
    pub start: u64,
    pub pages: usize,
}

impl VmaRecord {
    /// Compact encoding (the *transfer* model charges [`VMA_RECORD_LEN`] per
    /// record regardless).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.id.0);
        w.put_u8(kind_code(self.kind));
        w.put_u64(self.start);
        w.put_u64(self.pages as u64);
    }
}

/// A page-content record.
pub type PageRecord = PageRef;

/// Freeze-phase records: what the leader thread and its followers dump after
/// the barrier in Fig. 3 (open files, thread state, signal handlers — *not*
/// sockets, which the socket-migration machinery accounts separately).
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeImage {
    /// (fd, path, offset) of each open regular file — contents are not
    /// transferred, the file is re-opened at the same descriptor.
    pub files: Vec<(u32, String, u64)>,
    /// Descriptor numbers holding sockets (16-byte attachment records each;
    /// the migrated sockets are reattached at these descriptors).
    pub socket_fds: Vec<u32>,
    pub threads: u32,
    pub sig_handlers: u32,
}

impl FreezeImage {
    /// Bytes this image contributes to the freeze-phase transfer.
    pub fn transfer_bytes(&self) -> u64 {
        16 + self
            .files
            .iter()
            .map(|(_, p, _)| 48 + p.len() as u64)
            .sum::<u64>()
            + self.socket_fds.len() as u64 * 16
            + self.threads as u64 * THREAD_RECORD_LEN
            + self.sig_handlers as u64 * SIGHANDLER_RECORD_LEN
    }
}

/// A full checkpoint image: everything needed to rebuild the process (minus
/// sockets).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    pub meta: ProcessMeta,
    pub vmas: Vec<VmaRecord>,
    pub pages: Vec<PageRecord>,
    pub freeze: FreezeImage,
}

impl CheckpointImage {
    /// Bytes the real system would transfer for this image.
    pub fn transfer_bytes(&self) -> u64 {
        META_RECORD_LEN
            + self.vmas.len() as u64 * VMA_RECORD_LEN
            + self.pages.len() as u64 * (PAGE_RECORD_OVERHEAD + PAGE_SIZE)
            + self.freeze.transfer_bytes()
    }

    /// Compact encoding (fingerprints instead of page contents).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.meta.pid.0);
        w.put_str(&self.meta.name);
        w.put_u32(self.meta.thread_count);
        w.put_f64(self.meta.cpu_share);
        w.put_u32(self.vmas.len() as u32);
        for v in &self.vmas {
            v.encode(&mut w);
        }
        w.put_u32(self.pages.len() as u32);
        for p in &self.pages {
            w.put_u64(p.vma.0);
            w.put_u32(p.index as u32);
            w.put_u64(p.fingerprint);
        }
        w.put_u32(self.freeze.files.len() as u32);
        for (fd, path, off) in &self.freeze.files {
            w.put_u32(*fd);
            w.put_str(path);
            w.put_u64(*off);
        }
        w.put_u32(self.freeze.socket_fds.len() as u32);
        for fd in &self.freeze.socket_fds {
            w.put_u32(*fd);
        }
        w.put_u32(self.freeze.threads);
        w.put_u32(self.freeze.sig_handlers);
        w.into_bytes()
    }
}

fn kind_code(k: VmaKind) -> u8 {
    match k {
        VmaKind::Text => 0,
        VmaKind::Data => 1,
        VmaKind::Heap => 2,
        VmaKind::Stack => 3,
        VmaKind::Anon => 4,
    }
}

/// Build the freeze image of a process (fd table walk, §III-A).
pub fn freeze_image_of(p: &Process) -> FreezeImage {
    let files = p
        .fds
        .iter()
        .filter_map(|(fd, e)| match e {
            dvelm_proc::FdEntry::File { path, offset } => Some((fd.0, path.clone(), *offset)),
            dvelm_proc::FdEntry::Socket(_) => None,
        })
        .collect();
    FreezeImage {
        files,
        socket_fds: p.fds.sockets().map(|(fd, _)| fd.0).collect(),
        threads: p.threads.len() as u32,
        sig_handlers: p.sig_handlers.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_proc::FdEntry;
    use dvelm_stack::SockId;

    fn sample_image() -> CheckpointImage {
        CheckpointImage {
            meta: ProcessMeta {
                pid: Pid(7),
                name: "zone_serv3".into(),
                thread_count: 2,
                cpu_share: 3.25,
            },
            vmas: vec![
                VmaRecord {
                    id: VmaId(1),
                    kind: VmaKind::Text,
                    start: 0x1000,
                    pages: 4,
                },
                VmaRecord {
                    id: VmaId(2),
                    kind: VmaKind::Heap,
                    start: 0x9000,
                    pages: 8,
                },
            ],
            pages: vec![
                PageRecord {
                    vma: VmaId(2),
                    index: 0,
                    fingerprint: 0xAA,
                },
                PageRecord {
                    vma: VmaId(2),
                    index: 3,
                    fingerprint: 0xBB,
                },
            ],
            freeze: FreezeImage {
                files: vec![(0, "/srv/world.db".into(), 4096)],
                socket_fds: vec![1, 2, 5],
                threads: 2,
                sig_handlers: 4,
            },
        }
    }

    #[test]
    fn transfer_bytes_dominated_by_pages() {
        let img = sample_image();
        let t = img.transfer_bytes();
        assert!(t > 2 * PAGE_SIZE, "two pages at full size: {t}");
        assert!(t < 3 * PAGE_SIZE + 2048, "no runaway overhead: {t}");
    }

    #[test]
    fn freeze_image_walks_fd_table() {
        let mut p = Process::new(Pid(1), "p", 4, 4);
        p.fds.insert(FdEntry::File {
            path: "/etc/conf".into(),
            offset: 10,
        });
        p.fds.insert(FdEntry::Socket(SockId(5)));
        p.fds.insert(FdEntry::Socket(SockId(6)));
        let fi = freeze_image_of(&p);
        assert_eq!(fi.files.len(), 1);
        assert_eq!(fi.socket_fds, vec![1, 2]);
        assert_eq!(fi.threads, 1);
        assert!(fi.transfer_bytes() > 0);
    }
}
