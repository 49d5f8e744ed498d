//! The unified socket type: TCP or UDP, with the operations the migration
//! engine needs regardless of protocol.

use crate::tcp::{TcpSocket, TcpState};
use crate::udp::UdpSocket;
use dvelm_net::SockAddr;

/// A socket: TCP or UDP.
// The TCP variant is much larger than UDP (sequence state, three queues,
// congestion/RTT fields). Boxing it would add an indirection to every
// receive-path access for the dominant variant; sockets live in a
// `SockTable` and are moved only at migration, so the size skew is fine.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Socket {
    Tcp(TcpSocket),
    Udp(UdpSocket),
}

impl Socket {
    /// Local endpoint.
    pub fn local(&self) -> SockAddr {
        match self {
            Socket::Tcp(t) => t.local,
            Socket::Udp(u) => u.local,
        }
    }

    /// Remote endpoint, if connected.
    pub fn remote(&self) -> Option<SockAddr> {
        match self {
            Socket::Tcp(t) => t.remote,
            Socket::Udp(u) => u.remote,
        }
    }

    /// Whether this is a TCP socket.
    pub fn is_tcp(&self) -> bool {
        matches!(self, Socket::Tcp(_))
    }

    /// Whether the socket is in a state the migration mechanism supports
    /// (TCP established/listening; UDP always).
    pub fn is_migratable(&self) -> bool {
        match self {
            Socket::Tcp(t) => t.state.is_migratable(),
            Socket::Udp(_) => true,
        }
    }

    /// Whether this is a TCP listening socket.
    pub fn is_listener(&self) -> bool {
        matches!(self, Socket::Tcp(t) if t.state == TcpState::Listen)
    }

    /// Stamp of the most recent mutation (incremental checkpoint driver).
    pub fn mutation_stamp(&self) -> u64 {
        match self {
            Socket::Tcp(t) => t.mutation_stamp(),
            Socket::Udp(u) => u.mutation_stamp(),
        }
    }

    /// Encoded size of a full checkpoint record.
    pub fn record_len(&self) -> u64 {
        match self {
            Socket::Tcp(t) => t.record_len(),
            Socket::Udp(u) => u.record_len(),
        }
    }

    /// Encoded size of an incremental record since `since`.
    pub fn delta_len(&self, since: u64) -> u64 {
        match self {
            Socket::Tcp(t) => t.delta_len(since),
            Socket::Udp(u) => u.delta_len(since),
        }
    }

    /// Apply the source→destination jiffies delta (§V-C1).
    pub fn apply_jiffies_delta(&mut self, delta: i64) {
        match self {
            Socket::Tcp(t) => t.apply_jiffies_delta(delta),
            Socket::Udp(u) => u.apply_jiffies_delta(delta),
        }
    }

    /// Access the TCP socket, panicking for UDP (test/internal helper).
    pub fn tcp(&self) -> &TcpSocket {
        match self {
            Socket::Tcp(t) => t,
            Socket::Udp(_) => panic!("expected TCP socket"),
        }
    }

    /// Access the UDP socket, panicking for TCP.
    pub fn udp(&self) -> &UdpSocket {
        match self {
            Socket::Udp(u) => u,
            Socket::Tcp(_) => panic!("expected UDP socket"),
        }
    }

    /// Mutable access to the UDP socket, panicking for TCP.
    pub fn udp_mut(&mut self) -> &mut UdpSocket {
        match self {
            Socket::Udp(u) => u,
            Socket::Tcp(_) => panic!("expected UDP socket"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_net::Ip;

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, last), port)
    }

    #[test]
    fn udp_is_always_migratable() {
        let s = Socket::Udp(UdpSocket::bind(sa(1, 1)));
        assert!(s.is_migratable());
        assert!(!s.is_listener());
        assert!(!s.is_tcp());
    }

    #[test]
    fn tcp_listener_is_migratable_and_detected() {
        let s = Socket::Tcp(TcpSocket::listen(sa(1, 80)));
        assert!(s.is_migratable());
        assert!(s.is_listener());
    }

    #[test]
    #[should_panic(expected = "expected TCP")]
    fn wrong_accessor_panics() {
        let s = Socket::Udp(UdpSocket::bind(sa(1, 1)));
        let _ = s.tcp();
    }
}
