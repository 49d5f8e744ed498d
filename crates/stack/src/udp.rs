//! UDP sockets.
//!
//! Migration of a UDP socket (§V-C2) is "considerably easier than TCP":
//! besides the main socket structure only the receive-queue buffers are
//! tracked and transferred, and a bound server socket must be unhashed
//! before and rehashed after the move.

use crate::seg::Segment;
use crate::skb::Skb;
use bytes::Bytes;
use dvelm_net::SockAddr;
use dvelm_sim::{Jiffies, SimTime};
use std::collections::VecDeque;

/// Fixed encoded size of the scalar part of a UDP socket record, bytes.
pub const UDP_RECORD_SCALAR: u64 = 128;
/// Encoded size of the scalar block in an incremental UDP record, bytes.
pub const UDP_DELTA_SCALAR: u64 = 48;

/// A datagram queued for the application, with its source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Source address of the datagram.
    pub from: SockAddr,
    /// The buffered payload.
    pub skb: Skb,
}

/// A UDP socket.
#[derive(Debug, Clone)]
pub struct UdpSocket {
    /// Bound local address.
    pub local: SockAddr,
    /// Default peer installed by `connect()` (optional).
    pub remote: Option<SockAddr>,
    recv_queue: VecDeque<Datagram>,
    last_stamp: u64,
    scalar_stamp: u64,
    /// Datagrams delivered to the application in total.
    pub delivered: u64,
}

impl UdpSocket {
    /// A socket bound to `local`.
    pub fn bind(local: SockAddr) -> UdpSocket {
        UdpSocket {
            local,
            remote: None,
            recv_queue: VecDeque::new(),
            last_stamp: 0,
            scalar_stamp: 0,
            delivered: 0,
        }
    }

    /// Install a default peer.
    pub fn connect(&mut self, remote: SockAddr) {
        self.remote = Some(remote);
    }

    /// Build a datagram to `dst`.
    pub fn send_to(&self, dst: SockAddr, payload: Bytes) -> Segment {
        Segment::udp(self.local, dst, payload)
    }

    /// Build a datagram to the connected peer; `None` if the socket has no
    /// default peer (the kernel would return `ENOTCONN`).
    pub fn send(&self, payload: Bytes) -> Option<Segment> {
        self.remote.map(|remote| self.send_to(remote, payload))
    }

    /// Enqueue an arriving datagram. Returns `true` if the receive queue was
    /// previously empty (app should be notified).
    pub fn on_datagram(
        &mut self,
        seg: Segment,
        now: SimTime,
        jiffies: Jiffies,
        stamp: &mut u64,
    ) -> bool {
        let crate::seg::Transport::Udp { payload } = seg.transport else {
            return false;
        };
        *stamp += 1;
        self.last_stamp = *stamp;
        let was_empty = self.recv_queue.is_empty();
        self.recv_queue.push_back(Datagram {
            from: seg.src,
            skb: Skb::new(0, payload, jiffies, now, *stamp),
        });
        was_empty
    }

    /// Application read: drain the receive queue.
    pub fn read(&mut self, stamp: &mut u64) -> Vec<Datagram> {
        if self.recv_queue.is_empty() {
            return Vec::new();
        }
        *stamp += 1;
        self.last_stamp = *stamp;
        let drained: Vec<Datagram> = self.recv_queue.drain(..).collect();
        self.delivered += drained.len() as u64;
        drained
    }

    /// Undelivered datagrams currently queued.
    pub fn queued(&self) -> usize {
        self.recv_queue.len()
    }

    /// Stamp of the most recent mutation.
    pub fn mutation_stamp(&self) -> u64 {
        self.last_stamp
    }

    /// Encoded size of a full checkpoint record: the socket structure plus
    /// every receive-queue buffer.
    pub fn record_len(&self) -> u64 {
        UDP_RECORD_SCALAR
            + self
                .recv_queue
                .iter()
                .map(|d| d.skb.record_len())
                .sum::<u64>()
    }

    /// Encoded size of an incremental record with changes since `since`.
    pub fn delta_len(&self, since: u64) -> u64 {
        if self.last_stamp <= since {
            return 0;
        }
        let mut len = crate::tcp::DELTA_HEADER;
        if self.scalar_stamp > since {
            len += UDP_DELTA_SCALAR;
        }
        for d in &self.recv_queue {
            if d.skb.stamp > since {
                len += d.skb.record_len();
            }
        }
        len
    }

    /// Jiffies adjustment after migration: nothing in the UDP socket depends
    /// on local jiffies except skb timestamps, which are in the effective
    /// domain already (see the TCP counterpart); kept for interface symmetry.
    pub fn apply_jiffies_delta(&mut self, _delta: i64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_net::Ip;

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, last), port)
    }

    #[test]
    fn datagram_roundtrip() {
        let mut stamp = 0;
        let mut server = UdpSocket::bind(sa(1, 27960));
        let client = {
            let mut c = UdpSocket::bind(sa(2, 40000));
            c.connect(sa(1, 27960));
            c
        };
        let seg = client
            .send(Bytes::from_static(b"usercmd"))
            .expect("connected");
        let notify = server.on_datagram(seg, SimTime::ZERO, Jiffies(0), &mut stamp);
        assert!(notify);
        let got = server.read(&mut stamp);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].skb.payload[..], b"usercmd");
        assert_eq!(got[0].from, sa(2, 40000));
        assert_eq!(server.delivered, 1);
    }

    #[test]
    fn notify_only_on_empty_to_nonempty() {
        let mut stamp = 0;
        let mut s = UdpSocket::bind(sa(1, 1));
        let seg = Segment::udp(sa(2, 2), sa(1, 1), Bytes::from_static(b"a"));
        assert!(s.on_datagram(seg.clone(), SimTime::ZERO, Jiffies(0), &mut stamp));
        assert!(!s.on_datagram(seg, SimTime::ZERO, Jiffies(0), &mut stamp));
    }

    #[test]
    fn record_len_tracks_queue() {
        let mut stamp = 0;
        let mut s = UdpSocket::bind(sa(1, 1));
        assert_eq!(s.record_len(), UDP_RECORD_SCALAR);
        let seg = Segment::udp(sa(2, 2), sa(1, 1), Bytes::from(vec![0u8; 256]));
        s.on_datagram(seg, SimTime::ZERO, Jiffies(0), &mut stamp);
        assert_eq!(s.record_len(), UDP_RECORD_SCALAR + 68 + 256);
        s.read(&mut stamp);
        assert_eq!(s.record_len(), UDP_RECORD_SCALAR);
    }

    #[test]
    fn delta_reflects_new_buffers_only() {
        let mut stamp = 0;
        let mut s = UdpSocket::bind(sa(1, 1));
        let seg = Segment::udp(sa(2, 2), sa(1, 1), Bytes::from(vec![0u8; 100]));
        s.on_datagram(seg.clone(), SimTime::ZERO, Jiffies(0), &mut stamp);
        let mark = s.mutation_stamp();
        assert_eq!(s.delta_len(mark), 0);
        s.on_datagram(seg, SimTime::ZERO, Jiffies(0), &mut stamp);
        let d = s.delta_len(mark);
        assert!(d >= 68 + 100, "delta covers only the new skb: {d}");
        assert!(d < s.record_len());
    }

    #[test]
    fn send_unconnected_is_refused() {
        let s = UdpSocket::bind(sa(1, 1));
        assert!(
            s.send(Bytes::new()).is_none(),
            "no default peer, no datagram"
        );
    }
}
