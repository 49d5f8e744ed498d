//! Wire segments: IP header + TCP/UDP transport, with sequence-number
//! arithmetic helpers.
//!
//! Payloads are [`bytes::Bytes`] so a segment can be cloned (broadcast
//! delivers the same frame to five nodes) without copying the body.

use bytes::Bytes;
use dvelm_net::{Ip, SockAddr};
use dvelm_sim::Jiffies;
use std::fmt;

/// IPv4 header length in bytes.
pub const IP_HEADER_LEN: u64 = 20;
/// TCP header length including the timestamp option, in bytes.
pub const TCP_HEADER_LEN: u64 = 32;
/// UDP header length in bytes.
pub const UDP_HEADER_LEN: u64 = 8;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// Sender finished (graceful close).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// SYN only (active open).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK (passive-open reply).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Plain ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK (close).
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        if self.ack {
            s.push('.');
        }
        write!(f, "{s}")
    }
}

/// Transport-layer content of a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp {
        /// Control bits.
        flags: TcpFlags,
        /// Sequence number of the first payload byte (or of SYN/FIN).
        seq: u32,
        /// Acknowledgement number (valid when `flags.ack`).
        ack: u32,
        /// Advertised receive window, bytes.
        wnd: u32,
        /// Timestamp option: sender's jiffies at transmission.
        ts_val: Jiffies,
        /// Timestamp echo reply (0 when unknown).
        ts_ecr: Jiffies,
        /// Segment data.
        payload: Bytes,
    },
    /// A UDP datagram.
    Udp {
        /// Datagram data.
        payload: Bytes,
    },
}

/// A wire segment: addressing plus transport content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source endpoint.
    pub src: SockAddr,
    /// Destination endpoint.
    pub dst: SockAddr,
    /// Transport-layer content (TCP or UDP).
    pub transport: Transport,
    /// Whether the transport checksum is consistent with the headers. A
    /// translation filter that rewrites addresses without updating the
    /// checksum (§V-D) produces `false`, and the receiving stack drops the
    /// segment.
    pub checksum_ok: bool,
}

impl Segment {
    /// A TCP segment with a valid checksum.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src: SockAddr,
        dst: SockAddr,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        wnd: u32,
        ts_val: Jiffies,
        ts_ecr: Jiffies,
        payload: Bytes,
    ) -> Segment {
        Segment {
            src,
            dst,
            transport: Transport::Tcp {
                flags,
                seq,
                ack,
                wnd,
                ts_val,
                ts_ecr,
                payload,
            },
            checksum_ok: true,
        }
    }

    /// A UDP datagram with a valid checksum.
    pub fn udp(src: SockAddr, dst: SockAddr, payload: Bytes) -> Segment {
        Segment {
            src,
            dst,
            transport: Transport::Udp { payload },
            checksum_ok: true,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        match &self.transport {
            Transport::Tcp { payload, .. } => payload.len(),
            Transport::Udp { payload } => payload.len(),
        }
    }

    /// Total on-wire size (IP + transport header + payload).
    pub fn wire_size(&self) -> u64 {
        let hdr = match &self.transport {
            Transport::Tcp { .. } => TCP_HEADER_LEN,
            Transport::Udp { .. } => UDP_HEADER_LEN,
        };
        IP_HEADER_LEN + hdr + self.payload_len() as u64
    }

    /// Whether this is a TCP segment.
    pub fn is_tcp(&self) -> bool {
        matches!(self.transport, Transport::Tcp { .. })
    }

    /// The TCP sequence number, if TCP.
    pub fn tcp_seq(&self) -> Option<u32> {
        match &self.transport {
            Transport::Tcp { seq, .. } => Some(*seq),
            Transport::Udp { .. } => None,
        }
    }

    /// Rewrite the destination IP (outgoing translation), invalidating the
    /// checksum unless `fix_checksum`.
    pub fn rewrite_dst_ip(&mut self, ip: Ip, fix_checksum: bool) {
        self.dst.ip = ip;
        if !fix_checksum {
            self.checksum_ok = false;
        }
    }

    /// Rewrite the source IP (incoming translation), invalidating the
    /// checksum unless `fix_checksum`.
    pub fn rewrite_src_ip(&mut self, ip: Ip, fix_checksum: bool) {
        self.src.ip = ip;
        if !fix_checksum {
            self.checksum_ok = false;
        }
    }
}

/// `a < b` in sequence space (RFC 793 modular comparison).
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}

/// `a > b` in sequence space.
#[inline]
pub fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// `a >= b` in sequence space.
#[inline]
pub fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_net::{Ip, NodeId};

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, last), port)
    }

    #[test]
    fn wire_sizes() {
        let s = Segment::tcp(
            sa(1, 10),
            sa(2, 20),
            TcpFlags::ACK,
            0,
            0,
            65535,
            Jiffies(0),
            Jiffies(0),
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(s.wire_size(), 20 + 32 + 100);
        let u = Segment::udp(sa(1, 10), sa(2, 20), Bytes::from(vec![0u8; 256]));
        assert_eq!(u.wire_size(), 20 + 8 + 256);
    }

    #[test]
    fn seq_compare_handles_wraparound() {
        assert!(seq_lt(u32::MAX - 1, u32::MAX));
        assert!(seq_lt(u32::MAX, 0)); // wrap
        assert!(seq_gt(5, u32::MAX - 5));
        assert!(seq_le(7, 7));
        assert!(seq_ge(7, 7));
        assert!(!seq_lt(7, 7));
    }

    #[test]
    fn rewrite_dst_tracks_checksum() {
        let mut s = Segment::udp(sa(1, 10), sa(2, 20), Bytes::new());
        s.rewrite_dst_ip(Ip::local_of(NodeId(5)), true);
        assert!(s.checksum_ok);
        assert_eq!(s.dst.ip, Ip::local_of(NodeId(5)));
        s.rewrite_dst_ip(Ip::local_of(NodeId(6)), false);
        assert!(!s.checksum_ok, "unfixed checksum must be flagged bad");
    }

    #[test]
    fn rewrite_src_tracks_checksum() {
        let mut s = Segment::udp(sa(1, 10), sa(2, 20), Bytes::new());
        s.rewrite_src_ip(Ip::local_of(NodeId(3)), false);
        assert!(!s.checksum_ok);
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::SYN_ACK), "S.");
        assert_eq!(format!("{}", TcpFlags::FIN_ACK), "F.");
    }

    #[test]
    fn cloned_payload_shares_storage() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let s = Segment::udp(sa(1, 1), sa(2, 2), payload.clone());
        let c = s.clone();
        // Bytes clones share the same backing buffer.
        match (&s.transport, &c.transport) {
            (Transport::Udp { payload: a }, Transport::Udp { payload: b }) => {
                assert_eq!(a.as_ptr(), b.as_ptr());
            }
            _ => unreachable!(),
        }
    }
}
