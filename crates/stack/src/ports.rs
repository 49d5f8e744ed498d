//! Per-port claim counts: each receive-side table's summary of the
//! destination ports it could keep a frame for.
//!
//! On a ONE-IP cluster every node hears every inbound client frame and all
//! but the port's owner drop it (§II-A). The socket tables, the capture
//! table and the translation table each keep one [`PortClaims`], updated at
//! the sites that insert and remove their entries. A frame to one of the
//! host's own addresses whose port none of them claims can only be dropped,
//! so the receive path counts the drop and returns without entering any
//! table.

use dvelm_net::Port;

/// A multiset of destination ports: one count per table entry that claims
/// the port. Sorted by port, so membership is a binary search over the few
/// distinct ports a host serves, behind an inline one-word filter that
/// answers most misses without touching the heap.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct PortClaims {
    /// Bit `port % 64` is set iff some claimed port maps to it.
    filter: u64,
    /// `(port, entries claiming it)`, sorted by port; every count is ≥ 1.
    counts: Vec<(Port, u32)>,
}

/// The filter bit of `port`. Consecutive ports (a cluster's game servers)
/// land on distinct bits.
fn bit(port: Port) -> u64 {
    1 << (port.0 % 64)
}

impl PortClaims {
    /// An entry claiming `port` was inserted.
    pub(crate) fn add(&mut self, port: Port) {
        match self.counts.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => {
                self.counts.insert(i, (port, 1));
                self.filter |= bit(port);
            }
        }
    }

    /// An entry claiming `port` was removed.
    pub(crate) fn remove(&mut self, port: Port) {
        match self.counts.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) if self.counts[i].1 > 1 => self.counts[i].1 -= 1,
            Ok(i) => {
                self.counts.remove(i);
                if !self.counts.iter().any(|&(p, _)| bit(p) == bit(port)) {
                    self.filter &= !bit(port);
                }
            }
            Err(_) => debug_assert!(false, "no entry claims port {port}"),
        }
    }

    /// Whether any entry claims `port`.
    #[inline]
    pub(crate) fn claims(&self, port: Port) -> bool {
        self.filter & bit(port) != 0 && self.counts.binary_search_by_key(&port, |&(p, _)| p).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_port_stays_claimed_until_its_last_entry_leaves() {
        let mut c = PortClaims::default();
        c.add(Port(5000));
        c.add(Port(27960));
        c.add(Port(5000));
        assert!(c.claims(Port(5000)) && c.claims(Port(27960)));
        assert!(!c.claims(Port(5001)));
        c.remove(Port(5000));
        assert!(c.claims(Port(5000)), "one entry still claims it");
        c.remove(Port(5000));
        assert!(!c.claims(Port(5000)));
        c.remove(Port(27960));
        assert_eq!(c, PortClaims::default());
    }

    #[test]
    fn ports_sharing_a_filter_bit_stay_distinct() {
        let mut c = PortClaims::default();
        c.add(Port(100));
        c.add(Port(164));
        assert!(!c.claims(Port(228)), "same bit, not claimed");
        c.remove(Port(100));
        assert!(c.claims(Port(164)), "the bit survives while 164 holds it");
        assert!(!c.claims(Port(100)));
        c.remove(Port(164));
        assert_eq!(c, PortClaims::default(), "the last claim clears the bit");
    }
}
