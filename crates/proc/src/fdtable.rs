//! The file-descriptor table.
//!
//! Socket migration is driven by iterating this table (§III-C): regular files
//! are re-opened on the destination (their contents are replicated or on a
//! distributed file system, §II-A), sockets go through the socket-migration
//! machinery. BLCR's original implementation simply *omitted* sockets — the
//! iterative/collective/incremental strategies are the paper's extension.

use dvelm_stack::SockId;

/// A file descriptor number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

/// What a descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// A regular file: re-opened by path and seeked on restart.
    File { path: String, offset: u64 },
    /// A socket, identified by its host-stack id (rewritten on migration).
    Socket(SockId),
}

impl FdEntry {
    /// Encoded checkpoint size of this entry, bytes (sockets are accounted
    /// separately by the socket-migration machinery).
    pub fn record_len(&self) -> u64 {
        match self {
            FdEntry::File { path, .. } => 48 + path.len() as u64,
            FdEntry::Socket(_) => 16,
        }
    }
}

/// A process's descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    entries: Vec<Option<FdEntry>>,
}

impl FdTable {
    /// An empty table.
    pub fn new() -> FdTable {
        FdTable::default()
    }

    /// Install an entry at the lowest free descriptor.
    pub fn insert(&mut self, entry: FdEntry) -> Fd {
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return Fd(i as u32);
            }
        }
        self.entries.push(Some(entry));
        Fd((self.entries.len() - 1) as u32)
    }

    /// Install an entry at a specific descriptor number (restore path: a
    /// migrated socket is reattached "to the right file descriptor").
    /// Panics if the slot is already occupied.
    pub fn insert_at(&mut self, fd: Fd, entry: FdEntry) {
        let idx = fd.0 as usize;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        assert!(
            self.entries[idx].is_none(),
            "descriptor {fd:?} already occupied during restore"
        );
        self.entries[idx] = Some(entry);
    }

    /// Close a descriptor, returning its entry.
    pub fn close(&mut self, fd: Fd) -> Option<FdEntry> {
        self.entries.get_mut(fd.0 as usize)?.take()
    }

    /// Look up a descriptor.
    pub fn get(&self, fd: Fd) -> Option<&FdEntry> {
        self.entries.get(fd.0 as usize)?.as_ref()
    }

    /// All open descriptors, in fd order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FdEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (Fd(i as u32), e)))
    }

    /// All socket descriptors, in fd order — the iteration order of
    /// *iterative* socket migration.
    pub fn sockets(&self) -> impl Iterator<Item = (Fd, SockId)> + '_ {
        self.iter().filter_map(|(fd, e)| match e {
            FdEntry::Socket(s) => Some((fd, *s)),
            FdEntry::File { .. } => None,
        })
    }

    /// Number of open socket descriptors.
    pub fn socket_count(&self) -> usize {
        self.sockets().count()
    }

    /// Encoded checkpoint size of the whole table (open-file records; socket
    /// payload accounted separately).
    pub fn record_len(&self) -> u64 {
        16 + self.iter().map(|(_, e)| e.record_len()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reuses_lowest_free_fd() {
        let mut t = FdTable::new();
        let a = t.insert(FdEntry::File {
            path: "/var/log/a".into(),
            offset: 0,
        });
        let b = t.insert(FdEntry::Socket(SockId(1)));
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.close(a);
        let c = t.insert(FdEntry::Socket(SockId(2)));
        assert_eq!(c, Fd(0), "lowest free fd reused");
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn sockets_iterates_in_fd_order() {
        let mut t = FdTable::new();
        t.insert(FdEntry::Socket(SockId(10)));
        t.insert(FdEntry::File {
            path: "f".into(),
            offset: 0,
        });
        t.insert(FdEntry::Socket(SockId(20)));
        let socks: Vec<u64> = t.sockets().map(|(_, s)| s.0).collect();
        assert_eq!(socks, vec![10, 20]);
        assert_eq!(t.socket_count(), 2);
    }

    #[test]
    fn record_len_counts_paths() {
        let mut t = FdTable::new();
        t.insert(FdEntry::File {
            path: "abcd".into(),
            offset: 0,
        });
        t.insert(FdEntry::Socket(SockId(1)));
        assert_eq!(t.record_len(), 16 + (48 + 4) + 16);
    }
}
