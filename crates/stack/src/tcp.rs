//! The TCP socket state machine.
//!
//! Models the parts of Linux TCP that socket migration must extract, ship and
//! restore (§V-C1): connection identifiers, sequence/ack state, the write /
//! receive / out-of-order queues, the retransmission timer, and
//! jiffies-based timestamps feeding RTT estimation and congestion control.
//!
//! The socket is a pure state machine: every entry point takes a [`TcpCtx`](crate::tcp::TcpCtx)
//! (current time, local jiffies, the host's mutation-stamp counter) and
//! returns [`TcpOut`](crate::tcp::TcpOut) effects. The host stack (`host.rs`) owns hashing,
//! netfilter traversal and timer scheduling.

use crate::seg::{seq_ge, seq_gt, seq_le, seq_lt, Segment, TcpFlags, Transport};
use crate::skb::Skb;
use bytes::Bytes;
use dvelm_net::SockAddr;
use dvelm_sim::{Jiffies, SimTime, MILLISECOND, SECOND};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Maximum segment size (payload bytes per segment).
pub const MSS: u32 = 1448;
/// Initial congestion window (IW10, bytes).
pub const INITIAL_CWND: u32 = 10 * MSS;
/// Default advertised receive window, bytes.
pub const DEFAULT_RCV_WND: u32 = 1 << 20;
/// Minimum retransmission timeout (Linux TCP_RTO_MIN), µs.
pub const RTO_MIN_US: u64 = 200 * MILLISECOND;
/// Maximum retransmission timeout (Linux TCP_RTO_MAX), µs.
pub const RTO_MAX_US: u64 = 120 * SECOND;
/// Initial RTO before any RTT sample (RFC 6298), µs.
pub const RTO_INITIAL_US: u64 = SECOND;

/// Fixed encoded size of the scalar part of a full TCP socket record
/// (the `tcp_sock` structure with its embedded inet/sock fields, plus the
/// associated `file`/`inode` records BLCR dumps per descriptor), bytes.
/// Calibrated so ~1024 connections with typical queue depths aggregate to
/// the ≈3.5 MB the paper reports in Fig. 5c.
pub const TCP_RECORD_SCALAR: u64 = 2048;
/// Encoded size of the scalar block in an incremental record, bytes.
pub const TCP_DELTA_SCALAR: u64 = 96;
/// Per-socket header of an incremental record (id, stamps, bitmap), bytes.
pub const DELTA_HEADER: u64 = 24;

/// TCP connection states (the migratable ones per §III-C are `Listen` and
/// `Established`; the close-path states exist so ordinary traffic works).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
    Closed,
}

impl TcpState {
    /// Whether the paper's migration mechanism supports this state.
    pub fn is_migratable(self) -> bool {
        matches!(self, TcpState::Listen | TcpState::Established)
    }
}

/// Effects produced by socket entry points.
#[derive(Debug)]
pub enum TcpOut {
    /// Transmit a segment.
    Tx(Segment),
    /// The receive queue became non-empty (app should read).
    DataReadable,
    /// Three-way handshake completed.
    Established,
    /// A listening socket accepted a SYN; the host must register the child.
    SpawnChild(Box<TcpSocket>),
    /// The peer closed its direction (FIN consumed).
    PeerFin,
    /// (Re)arm the retransmission timer for this deadline.
    ArmTimer(SimTime),
    /// The connection reached `Closed`.
    Closed,
}

/// Context handed to every socket entry point.
pub struct TcpCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// This node's current jiffies.
    pub jiffies: Jiffies,
    /// The host's monotone mutation-stamp counter.
    pub stamp: &'a mut u64,
}

impl TcpCtx<'_> {
    fn next_stamp(&mut self) -> u64 {
        *self.stamp += 1;
        *self.stamp
    }
}

/// A TCP socket.
#[derive(Debug, Clone)]
pub struct TcpSocket {
    /// Bound local endpoint.
    pub local: SockAddr,
    /// Peer endpoint (`None` while listening).
    pub remote: Option<SockAddr>,
    /// Connection state.
    pub state: TcpState,

    // --- send sequence space ---
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Peer-advertised window.
    snd_wnd: u32,
    fin_sent: bool,

    // --- receive sequence space ---
    irs: u32,
    rcv_nxt: u32,
    rcv_wnd: u32,
    fin_rcvd: bool,

    // --- congestion control ---
    cwnd: u32,
    ssthresh: u32,

    // --- RTT estimation (µs) ---
    srtt_us: u64,
    rttvar_us: u64,
    rto_us: u64,

    // --- timestamps ---
    /// Most recent peer ts_val (peer's jiffies domain; needs no shift).
    ts_recent: Jiffies,
    /// Offset added to local jiffies when generating ts_val and interpreting
    /// echoes (Linux `tsoffset`); migration adds the source/destination
    /// jiffies delta here so timestamps continue seamlessly (§V-C1).
    ts_offset: i64,

    // --- the three queues ---
    /// Outgoing: unacked (front) + not-yet-sent (tail).
    write_queue: VecDeque<Skb>,
    /// Index of the first never-transmitted skb in `write_queue`.
    next_unsent: usize,
    /// In-order received, not yet read by the application.
    recv_queue: VecDeque<Skb>,
    /// Out-of-order arrivals keyed by sequence number.
    ofo_queue: BTreeMap<u32, Skb>,

    // --- retransmission timer ---
    rto_deadline: Option<SimTime>,
    /// Bumped whenever the timer is cleared or restarted. Each arm carries
    /// the generation it was made in, and a fire whose generation the
    /// socket has moved past is ignored: clearing the timer pushes no event.
    pub timer_gen: u64,

    /// Stamp of the last mutation to any part of this socket.
    last_stamp: u64,
    /// Stamp of the last scalar (non-queue) state change.
    scalar_stamp: u64,
}

impl TcpSocket {
    fn base(local: SockAddr, state: TcpState) -> TcpSocket {
        TcpSocket {
            local,
            remote: None,
            state,
            iss: 0,
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: DEFAULT_RCV_WND,
            fin_sent: false,
            irs: 0,
            rcv_nxt: 0,
            rcv_wnd: DEFAULT_RCV_WND,
            fin_rcvd: false,
            cwnd: INITIAL_CWND,
            ssthresh: 8 * DEFAULT_RCV_WND,
            srtt_us: 0,
            rttvar_us: 0,
            rto_us: RTO_INITIAL_US,
            ts_recent: Jiffies(0),
            ts_offset: 0,
            write_queue: VecDeque::new(),
            next_unsent: 0,
            recv_queue: VecDeque::new(),
            ofo_queue: BTreeMap::new(),
            rto_deadline: None,
            timer_gen: 0,
            last_stamp: 0,
            scalar_stamp: 0,
        }
    }

    /// A passive (listening) socket bound to `local`.
    pub fn listen(local: SockAddr) -> TcpSocket {
        TcpSocket::base(local, TcpState::Listen)
    }

    /// Active open: create the socket and emit the SYN.
    pub fn connect(
        local: SockAddr,
        remote: SockAddr,
        iss: u32,
        ctx: &mut TcpCtx<'_>,
    ) -> (TcpSocket, Vec<TcpOut>) {
        let mut s = TcpSocket::base(local, TcpState::SynSent);
        s.remote = Some(remote);
        s.iss = iss;
        s.snd_una = iss;
        s.snd_nxt = iss.wrapping_add(1);
        s.touch_scalar(ctx);
        let syn = s.make_segment(TcpFlags::SYN, iss, 0, Bytes::new(), ctx);
        let deadline = ctx.now + s.rto_us;
        s.rto_deadline = Some(deadline);
        (s, vec![TcpOut::Tx(syn), TcpOut::ArmTimer(deadline)])
    }

    /// Passive open: a listener received a SYN; build the child socket (in
    /// `SynRcvd`) and its SYN-ACK.
    pub fn passive_open(
        listener_local: SockAddr,
        peer: SockAddr,
        peer_seq: u32,
        peer_ts_val: Jiffies,
        iss: u32,
        ctx: &mut TcpCtx<'_>,
    ) -> (TcpSocket, Vec<TcpOut>) {
        let mut s = TcpSocket::base(listener_local, TcpState::SynRcvd);
        s.remote = Some(peer);
        s.iss = iss;
        s.snd_una = iss;
        s.snd_nxt = iss.wrapping_add(1);
        s.irs = peer_seq;
        s.rcv_nxt = peer_seq.wrapping_add(1);
        s.ts_recent = peer_ts_val;
        s.touch_scalar(ctx);
        let syn_ack = s.make_segment(TcpFlags::SYN_ACK, iss, s.rcv_nxt, Bytes::new(), ctx);
        let deadline = ctx.now + s.rto_us;
        s.rto_deadline = Some(deadline);
        (s, vec![TcpOut::Tx(syn_ack), TcpOut::ArmTimer(deadline)])
    }

    // ------------------------------------------------------------------
    // accessors used by migration and tests
    // ------------------------------------------------------------------

    /// Stamp of the most recent mutation (drives incremental checkpointing).
    pub fn mutation_stamp(&self) -> u64 {
        self.last_stamp
    }

    /// Current smoothed RTT estimate in microseconds (0 before any sample).
    pub fn srtt_us(&self) -> u64 {
        self.srtt_us
    }

    /// Current retransmission timeout in microseconds.
    pub fn rto_us(&self) -> u64 {
        self.rto_us
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Unacknowledged bytes in flight.
    pub fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Deadline of the armed retransmission timer.
    pub fn timer_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Lengths of (write, recv, out-of-order) queues.
    pub fn queue_lens(&self) -> (usize, usize, usize) {
        (
            self.write_queue.len(),
            self.recv_queue.len(),
            self.ofo_queue.len(),
        )
    }

    fn touch_scalar(&mut self, ctx: &mut TcpCtx<'_>) {
        let s = ctx.next_stamp();
        self.scalar_stamp = s;
        self.last_stamp = s;
    }

    fn effective_jiffies(&self, ctx: &TcpCtx<'_>) -> Jiffies {
        ctx.jiffies.shifted(self.ts_offset)
    }

    fn make_segment(
        &self,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        payload: Bytes,
        ctx: &TcpCtx<'_>,
    ) -> Segment {
        Segment::tcp(
            self.local,
            self.remote.expect("segment on unconnected socket"),
            flags,
            seq,
            ack,
            self.rcv_wnd,
            self.effective_jiffies(ctx),
            self.ts_recent,
            payload,
        )
    }

    fn make_ack(&self, ctx: &TcpCtx<'_>) -> Segment {
        self.make_segment(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt, Bytes::new(), ctx)
    }

    // ------------------------------------------------------------------
    // sending
    // ------------------------------------------------------------------

    /// Queue application data for transmission, segmenting at MSS, and push
    /// whatever the congestion/receive windows allow.
    pub fn send(&mut self, data: Bytes, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        assert!(
            matches!(self.state, TcpState::Established | TcpState::CloseWait),
            "send() in state {:?}",
            self.state
        );
        let mut off = 0usize;
        let mut queue_seq = self
            .write_queue
            .back()
            .map(|s| s.end_seq())
            .unwrap_or(self.snd_nxt);
        while off < data.len() {
            let take = (data.len() - off).min(MSS as usize);
            let stamp = ctx.next_stamp();
            let skb = Skb::new(
                queue_seq,
                data.slice(off..off + take),
                self.effective_jiffies(ctx),
                ctx.now,
                stamp,
            );
            queue_seq = skb.end_seq();
            self.write_queue.push_back(skb);
            self.last_stamp = stamp;
            off += take;
        }
        self.push_pending(ctx)
    }

    /// Transmit queued-but-unsent data within `min(cwnd, snd_wnd)`.
    fn push_pending(&mut self, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        let mut out = Vec::new();
        let limit = self.cwnd.min(self.snd_wnd);
        while self.next_unsent < self.write_queue.len() {
            let skb_len = self.write_queue[self.next_unsent].payload.len() as u32;
            if self.flight() + skb_len > limit && self.flight() > 0 {
                break;
            }
            let (seq, payload) = {
                let skb = &mut self.write_queue[self.next_unsent];
                skb.retrans = 0;
                (skb.seq, skb.payload.clone())
            };
            debug_assert_eq!(seq, self.snd_nxt, "write queue out of sync with snd_nxt");
            let seg = self.make_segment(TcpFlags::ACK, seq, self.rcv_nxt, payload, ctx);
            self.snd_nxt = self.snd_nxt.wrapping_add(skb_len);
            self.next_unsent += 1;
            out.push(TcpOut::Tx(seg));
        }
        if !out.is_empty() {
            self.touch_scalar(ctx);
        }
        if self.flight() > 0 && self.rto_deadline.is_none() {
            let deadline = ctx.now + self.rto_us;
            self.rto_deadline = Some(deadline);
            out.push(TcpOut::ArmTimer(deadline));
        }
        out
    }

    /// Application close: send FIN once all queued data is out.
    /// (Simplified: FIN is emitted immediately after pending data; data still
    /// in the write queue keeps its retransmission protection.)
    pub fn close(&mut self, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        let mut out = Vec::new();
        match self.state {
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            _ => return out,
        }
        debug_assert_eq!(
            self.next_unsent,
            self.write_queue.len(),
            "close with unsent data is not supported; flush first"
        );
        self.fin_sent = true;
        let fin = self.make_segment(
            TcpFlags::FIN_ACK,
            self.snd_nxt,
            self.rcv_nxt,
            Bytes::new(),
            ctx,
        );
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.touch_scalar(ctx);
        out.push(TcpOut::Tx(fin));
        if self.rto_deadline.is_none() {
            let deadline = ctx.now + self.rto_us;
            self.rto_deadline = Some(deadline);
            out.push(TcpOut::ArmTimer(deadline));
        }
        out
    }

    // ------------------------------------------------------------------
    // receiving
    // ------------------------------------------------------------------

    /// Main receive entry point: every segment is processed on arrival.
    /// The final checkpoint is signal-based (§V-C1), so no thread holds a
    /// socket lock at freeze time; the kernel's backlog and prequeue are
    /// empty then and are not modelled.
    pub fn on_segment(&mut self, seg: Segment, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        let Transport::Tcp {
            flags,
            seq,
            ack,
            wnd,
            ts_val,
            ts_ecr,
            payload,
        } = seg.transport
        else {
            return Vec::new();
        };
        let mut out = Vec::new();

        if flags.rst {
            self.state = TcpState::Closed;
            self.clear_timer();
            self.touch_scalar(ctx);
            out.push(TcpOut::Closed);
            return out;
        }

        match self.state {
            TcpState::SynSent => {
                if flags.syn && flags.ack && ack == self.snd_nxt {
                    self.irs = seq;
                    self.rcv_nxt = seq.wrapping_add(1);
                    self.snd_una = ack;
                    self.snd_wnd = wnd;
                    self.ts_recent = ts_val;
                    self.state = TcpState::Established;
                    self.clear_timer();
                    self.touch_scalar(ctx);
                    out.push(TcpOut::Tx(self.make_ack(ctx)));
                    out.push(TcpOut::Established);
                }
                return out;
            }
            TcpState::SynRcvd => {
                if flags.ack && seq_ge(ack, self.snd_nxt) {
                    self.snd_una = ack;
                    self.snd_wnd = wnd;
                    self.state = TcpState::Established;
                    self.clear_timer();
                    self.touch_scalar(ctx);
                    out.push(TcpOut::Established);
                    // fall through: the handshake ACK may carry data
                } else {
                    return out;
                }
            }
            TcpState::Listen | TcpState::Closed | TcpState::TimeWait => return out,
            _ => {}
        }

        // Timestamp bookkeeping (PAWS-style recency, simplified).
        if ts_val.ticks() >= self.ts_recent.ticks() {
            self.ts_recent = ts_val;
        }

        // --- ACK processing ---
        if flags.ack && seq_gt(ack, self.snd_una) {
            self.handle_ack(ack, wnd, ts_ecr, ctx, &mut out);
        } else if flags.ack {
            self.snd_wnd = wnd;
        }

        // --- payload processing ---
        if !payload.is_empty() {
            self.handle_payload(seq, payload, ts_val, ctx, &mut out);
        }

        // --- FIN processing ---
        if flags.fin {
            // The FIN occupies the sequence slot right after its payload; it
            // is consumable only once everything before it has arrived.
            if seq_le(seq, self.rcv_nxt) && !self.fin_rcvd {
                self.fin_rcvd = true;
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.touch_scalar(ctx);
                out.push(TcpOut::PeerFin);
                out.push(TcpOut::Tx(self.make_ack(ctx)));
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => self.state = TcpState::Closing,
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        out.push(TcpOut::Closed);
                    }
                    _ => {}
                }
            }
        }

        // Close-path ACK transitions.
        if self.fin_sent && seq_ge(self.snd_una, self.snd_nxt) {
            match self.state {
                TcpState::FinWait1 => {
                    self.state = TcpState::FinWait2;
                    self.touch_scalar(ctx);
                }
                TcpState::Closing => {
                    self.state = TcpState::TimeWait;
                    self.touch_scalar(ctx);
                    out.push(TcpOut::Closed);
                }
                TcpState::LastAck => {
                    self.state = TcpState::Closed;
                    self.clear_timer();
                    self.touch_scalar(ctx);
                    out.push(TcpOut::Closed);
                }
                _ => {}
            }
        }

        out
    }

    fn handle_ack(
        &mut self,
        ack: u32,
        wnd: u32,
        ts_ecr: Jiffies,
        ctx: &mut TcpCtx<'_>,
        out: &mut Vec<TcpOut>,
    ) {
        // Drop fully-acknowledged skbs from the head of the write queue.
        let mut dropped = 0usize;
        while let Some(front) = self.write_queue.front() {
            if seq_le(front.end_seq(), ack) && dropped < self.next_unsent {
                self.write_queue.pop_front();
                dropped += 1;
            } else {
                break;
            }
        }
        self.next_unsent -= dropped;
        let newly_acked = ack.wrapping_sub(self.snd_una);
        self.snd_una = ack;
        self.snd_wnd = wnd;

        // RTT sample from the timestamp echo (jiffies granularity, like the
        // kernel). A bogus echo — e.g. a pre-migration ts_val interpreted on
        // a node with different jiffies and no adjustment — produces a wild
        // sample, which is exactly the failure §V-C1 prevents.
        if ts_ecr.ticks() != 0 {
            let now_eff = self.effective_jiffies(ctx);
            let d = now_eff.ticks() as i64 - ts_ecr.ticks() as i64;
            let sample_us = if d >= 0 {
                (d as u64) * 10 * MILLISECOND
            } else {
                // Echo "from the future": a wrapped/garbage timestamp.
                RTO_MAX_US
            };
            self.rtt_sample(sample_us);
        }

        // Congestion control: slow start / congestion avoidance.
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(newly_acked.min(MSS));
        } else {
            self.cwnd = self
                .cwnd
                .saturating_add(((MSS as u64 * MSS as u64) / self.cwnd as u64) as u32)
                .max(MSS);
        }

        self.touch_scalar(ctx);

        // Timer management: restart while data is in flight, stop otherwise.
        if self.flight() > 0 {
            let deadline = ctx.now + self.rto_us;
            self.rto_deadline = Some(deadline);
            self.timer_gen += 1;
            out.push(TcpOut::ArmTimer(deadline));
        } else if self.rto_deadline.is_some() {
            self.clear_timer();
        }

        // Window may have opened: push more data.
        out.extend(self.push_pending(ctx));
    }

    fn rtt_sample(&mut self, sample_us: u64) {
        let m = sample_us.max(1);
        if self.srtt_us == 0 {
            self.srtt_us = m;
            self.rttvar_us = m / 2;
        } else {
            let diff = self.srtt_us.abs_diff(m);
            self.rttvar_us = (3 * self.rttvar_us + diff) / 4;
            self.srtt_us = (7 * self.srtt_us + m) / 8;
        }
        self.rto_us = (self.srtt_us + 4 * self.rttvar_us).clamp(RTO_MIN_US, RTO_MAX_US);
    }

    fn handle_payload(
        &mut self,
        seq: u32,
        payload: Bytes,
        ts_val: Jiffies,
        ctx: &mut TcpCtx<'_>,
        out: &mut Vec<TcpOut>,
    ) {
        let end = seq.wrapping_add(payload.len() as u32);
        if seq_le(end, self.rcv_nxt) {
            // Entirely old: pure duplicate, re-ACK.
            out.push(TcpOut::Tx(self.make_ack(ctx)));
            return;
        }
        let (seq, payload) = if seq_lt(seq, self.rcv_nxt) {
            // Partial overlap: trim the stale prefix.
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            (self.rcv_nxt, payload.slice(skip..))
        } else {
            (seq, payload)
        };

        if seq == self.rcv_nxt {
            let was_empty = self.recv_queue.is_empty();
            let stamp = ctx.next_stamp();
            self.recv_queue
                .push_back(Skb::new(seq, payload, ts_val, ctx.now, stamp));
            self.last_stamp = stamp;
            self.rcv_nxt = end;
            // Pull any now-contiguous out-of-order segments in.
            while let Some((oseq, skb)) = self.ofo_queue.pop_first() {
                if seq_gt(oseq, self.rcv_nxt) {
                    self.ofo_queue.insert(oseq, skb);
                    break;
                }
                if seq_le(skb.end_seq(), self.rcv_nxt) {
                    continue; // entirely duplicate of data we already have
                }
                let skip = self.rcv_nxt.wrapping_sub(oseq) as usize;
                let skb_end = skb.end_seq();
                let stamp = ctx.next_stamp();
                self.recv_queue.push_back(Skb::new(
                    self.rcv_nxt,
                    skb.payload.slice(skip..),
                    skb.ts,
                    skb.queued_at,
                    stamp,
                ));
                self.last_stamp = stamp;
                self.rcv_nxt = skb_end;
            }
            self.touch_scalar(ctx);
            out.push(TcpOut::Tx(self.make_ack(ctx)));
            if was_empty && !self.recv_queue.is_empty() {
                out.push(TcpOut::DataReadable);
            }
        } else {
            // Out of order: park it (deduplicated by start seq).
            let stamp = ctx.next_stamp();
            self.ofo_queue
                .entry(seq)
                .or_insert_with(|| Skb::new(seq, payload, ts_val, ctx.now, stamp));
            self.last_stamp = stamp;
            // Duplicate ACK tells the peer what we are still missing.
            out.push(TcpOut::Tx(self.make_ack(ctx)));
        }
    }

    /// Application read: drain the in-order receive queue.
    pub fn read(&mut self, ctx: &mut TcpCtx<'_>) -> Vec<Skb> {
        if self.recv_queue.is_empty() {
            return Vec::new();
        }
        self.last_stamp = ctx.next_stamp();
        self.recv_queue.drain(..).collect()
    }

    // ------------------------------------------------------------------
    // retransmission
    // ------------------------------------------------------------------

    /// Retransmission timer fired (host verified the generation).
    pub fn on_rto(&mut self, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        let mut out = Vec::new();
        self.rto_deadline = None;
        match self.state {
            TcpState::SynSent => {
                let syn = self.make_segment(TcpFlags::SYN, self.iss, 0, Bytes::new(), ctx);
                out.push(TcpOut::Tx(syn));
            }
            TcpState::SynRcvd => {
                let sa =
                    self.make_segment(TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, Bytes::new(), ctx);
                out.push(TcpOut::Tx(sa));
            }
            TcpState::Closed | TcpState::Listen | TcpState::TimeWait => return out,
            _ => {
                if self.next_unsent > 0 && !self.write_queue.is_empty() {
                    // Retransmit the oldest unacked skb; multiplicative backoff.
                    let (seq, payload) = {
                        let skb = &mut self.write_queue[0];
                        skb.retrans += 1;
                        (skb.seq, skb.payload.clone())
                    };
                    self.ssthresh = (self.flight() / 2).max(2 * MSS);
                    self.cwnd = MSS;
                    let seg = self.make_segment(TcpFlags::ACK, seq, self.rcv_nxt, payload, ctx);
                    out.push(TcpOut::Tx(seg));
                } else if self.fin_sent && seq_lt(self.snd_una, self.snd_nxt) {
                    let fin = self.make_segment(
                        TcpFlags::FIN_ACK,
                        self.snd_nxt.wrapping_sub(1),
                        self.rcv_nxt,
                        Bytes::new(),
                        ctx,
                    );
                    out.push(TcpOut::Tx(fin));
                } else {
                    return out;
                }
            }
        }
        self.rto_us = (self.rto_us * 2).min(RTO_MAX_US);
        let deadline = ctx.now + self.rto_us;
        self.rto_deadline = Some(deadline);
        self.touch_scalar(ctx);
        out.push(TcpOut::ArmTimer(deadline));
        out
    }

    fn clear_timer(&mut self) {
        self.rto_deadline = None;
        self.timer_gen += 1;
    }

    // ------------------------------------------------------------------
    // migration support
    // ------------------------------------------------------------------

    /// "Disable" the socket for migration: clear the retransmission timer
    /// (the unhashing half lives in the host stack).
    pub fn quiesce_for_migration(&mut self) {
        self.clear_timer();
    }

    /// Apply the source→destination jiffies delta after migration: shift
    /// every timestamp recorded in the source's jiffies domain (skb
    /// timestamps) and fold the delta into the timestamp offset used for
    /// future ts_val generation and echo interpretation.
    ///
    /// `delta` is `dst_jiffies_now - src_jiffies_at_checkpoint` (≈ the
    /// difference of the nodes' bases). Skipping this call reproduces the
    /// broken-RTT/RTO behaviour the paper's adjustment prevents.
    pub fn apply_jiffies_delta(&mut self, delta: i64) {
        // Folding the delta into the per-socket timestamp offset (the Linux
        // `tsoffset` analogue) shifts, in one move, every timestamp the
        // socket will generate or interpret: skb timestamps and echoes are
        // recorded in the *effective* (offset-applied) domain, so they stay
        // continuous. `ts_recent` is in the peer's jiffies domain and must
        // not change.
        self.ts_offset -= delta;
    }

    /// Restart the retransmission timer after the socket is rehashed on the
    /// destination node (§V-C1: "the retransmission timer is restarted").
    pub fn restart_timer_after_restore(&mut self, ctx: &mut TcpCtx<'_>) -> Vec<TcpOut> {
        let mut out = Vec::new();
        if self.flight() > 0 || (self.fin_sent && seq_lt(self.snd_una, self.snd_nxt)) {
            let deadline = ctx.now + self.rto_us;
            self.rto_deadline = Some(deadline);
            self.timer_gen += 1;
            out.push(TcpOut::ArmTimer(deadline));
        }
        out
    }

    /// Full checkpoint record, for restore checks. Its encoded size is
    /// [`record_len`](Self::record_len).
    pub fn record(&self) -> TcpSocketRecord {
        TcpSocketRecord {
            local: self.local,
            remote: self.remote,
            state: self.state,
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            rcv_nxt: self.rcv_nxt,
            write_queue_bytes: self.write_queue.iter().map(Skb::record_len).sum(),
            recv_queue_bytes: self.recv_queue.iter().map(Skb::record_len).sum(),
            ofo_queue_bytes: self.ofo_queue.values().map(Skb::record_len).sum(),
            mutation_stamp: self.last_stamp,
        }
    }

    /// Encoded size of a full record: the scalar part plus every queued
    /// buffer, summed straight from the queues.
    pub fn record_len(&self) -> u64 {
        let queued = self.write_queue.iter().chain(self.recv_queue.iter());
        TCP_RECORD_SCALAR
            + queued.map(Skb::record_len).sum::<u64>()
            + self.ofo_queue.values().map(Skb::record_len).sum::<u64>()
    }

    /// Encoded size of an incremental record containing only changes since
    /// `since` (a mutation stamp previously returned by
    /// [`mutation_stamp`](Self::mutation_stamp)).
    pub fn delta_len(&self, since: u64) -> u64 {
        if self.last_stamp <= since {
            return 0;
        }
        let mut len = DELTA_HEADER;
        if self.scalar_stamp > since {
            len += TCP_DELTA_SCALAR;
        }
        for skb in self.write_queue.iter().chain(self.recv_queue.iter()) {
            if skb.stamp > since {
                len += skb.record_len();
            }
        }
        for skb in self.ofo_queue.values() {
            if skb.stamp > since {
                len += skb.record_len();
            }
        }
        len
    }
}

/// Summary record of a TCP socket's checkpointable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSocketRecord {
    /// Bound local endpoint.
    pub local: SockAddr,
    /// Peer endpoint, if connected.
    pub remote: Option<SockAddr>,
    /// Connection state at checkpoint time.
    pub state: TcpState,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u32,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: u32,
    /// Encoded size of the unacknowledged write queue.
    pub write_queue_bytes: u64,
    /// Encoded size of the receive queue.
    pub recv_queue_bytes: u64,
    /// Encoded size of the out-of-order queue.
    pub ofo_queue_bytes: u64,
    /// Stamp of the most recent mutation (incremental checkpoints).
    pub mutation_stamp: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_net::Ip;

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, last), port)
    }

    struct Harness {
        stamp: u64,
        now: SimTime,
        jiffies_base: u64,
    }

    impl Harness {
        fn new() -> Harness {
            Harness {
                stamp: 0,
                now: SimTime::ZERO,
                jiffies_base: 1_000,
            }
        }
        fn ctx(&mut self) -> TcpCtx<'_> {
            TcpCtx {
                now: self.now,
                jiffies: Jiffies::at(self.jiffies_base, self.now),
                stamp: &mut self.stamp,
            }
        }
        fn advance(&mut self, us: u64) {
            self.now += us;
        }
    }

    /// Drive a full handshake between two sockets; returns (client, server).
    fn established_pair(h: &mut Harness) -> (TcpSocket, TcpSocket) {
        let (mut client, out) = TcpSocket::connect(sa(1, 4000), sa(2, 5000), 100, &mut h.ctx());
        let syn = extract_tx(&out).pop().unwrap();
        let (mut server, out) = TcpSocket::passive_open(
            sa(2, 5000),
            sa(1, 4000),
            syn.tcp_seq().unwrap(),
            Jiffies(0),
            900,
            &mut h.ctx(),
        );
        let syn_ack = extract_tx(&out).pop().unwrap();
        let out = client.on_segment(syn_ack, &mut h.ctx());
        assert!(out.iter().any(|o| matches!(o, TcpOut::Established)));
        let ack = extract_tx(&out).pop().unwrap();
        let out = server.on_segment(ack, &mut h.ctx());
        assert!(out.iter().any(|o| matches!(o, TcpOut::Established)));
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
        (client, server)
    }

    fn extract_tx(out: &[TcpOut]) -> Vec<Segment> {
        out.iter()
            .filter_map(|o| match o {
                TcpOut::Tx(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    /// Deliver data client→server and return what the server app reads.
    fn pump(h: &mut Harness, from: &mut TcpSocket, to: &mut TcpSocket, data: &[u8]) -> Vec<u8> {
        let out = from.send(Bytes::copy_from_slice(data), &mut h.ctx());
        let mut received = Vec::new();
        for seg in extract_tx(&out) {
            let replies = to.on_segment(seg, &mut h.ctx());
            for skb in to.read(&mut h.ctx()) {
                received.extend_from_slice(&skb.payload);
            }
            for r in extract_tx(&replies) {
                from.on_segment(r, &mut h.ctx());
            }
        }
        received
    }

    #[test]
    fn three_way_handshake() {
        let mut h = Harness::new();
        let (c, s) = established_pair(&mut h);
        assert_eq!(c.snd_nxt, 101);
        assert_eq!(c.rcv_nxt, 901);
        assert_eq!(s.rcv_nxt, 101);
        assert!(
            c.timer_deadline().is_none(),
            "no data in flight after handshake"
        );
    }

    #[test]
    fn data_transfer_and_ack() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        let got = pump(&mut h, &mut c, &mut s, b"hello world");
        assert_eq!(got, b"hello world");
        assert_eq!(c.flight(), 0, "everything acked");
        assert_eq!(c.queue_lens().0, 0, "write queue drained");
    }

    #[test]
    fn segmentation_at_mss() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        let data = vec![7u8; MSS as usize * 2 + 100];
        let out = c.send(Bytes::from(data), &mut h.ctx());
        let txs = extract_tx(&out);
        assert_eq!(txs.len(), 3);
        assert_eq!(txs[0].payload_len(), MSS as usize);
        assert_eq!(txs[2].payload_len(), 100);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        let out = c.send(Bytes::from(vec![1u8; MSS as usize * 3]), &mut h.ctx());
        let txs = extract_tx(&out);
        // Deliver 3rd, then 1st, then 2nd.
        s.on_segment(txs[2].clone(), &mut h.ctx());
        assert_eq!(s.queue_lens().2, 1, "one skb parked out-of-order");
        assert!(s.read(&mut h.ctx()).is_empty(), "nothing readable yet");
        s.on_segment(txs[0].clone(), &mut h.ctx());
        s.on_segment(txs[1].clone(), &mut h.ctx());
        let total: usize = s.read(&mut h.ctx()).iter().map(|k| k.payload.len()).sum();
        assert_eq!(total, MSS as usize * 3);
        assert_eq!(s.queue_lens().2, 0, "ofo queue drained");
    }

    #[test]
    fn duplicate_segment_is_reacked_not_redelivered() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        let out = c.send(Bytes::from_static(b"abc"), &mut h.ctx());
        let seg = extract_tx(&out).pop().unwrap();
        s.on_segment(seg.clone(), &mut h.ctx());
        assert_eq!(s.read(&mut h.ctx()).len(), 1);
        let replies = s.on_segment(seg, &mut h.ctx());
        assert_eq!(extract_tx(&replies).len(), 1, "dup triggers re-ACK");
        assert!(s.read(&mut h.ctx()).is_empty(), "no duplicate delivery");
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        let out = c.send(Bytes::from_static(b"lost"), &mut h.ctx());
        assert_eq!(extract_tx(&out).len(), 1);
        let rto_before = c.rto_us();
        h.advance(rto_before + 1);
        let out = c.on_rto(&mut h.ctx());
        let txs = extract_tx(&out);
        assert_eq!(txs.len(), 1, "retransmission");
        assert_eq!(txs[0].payload_len(), 4);
        assert_eq!(c.rto_us(), rto_before * 2, "exponential backoff");
        assert_eq!(c.cwnd(), MSS, "cwnd collapsed on loss");
    }

    #[test]
    fn rtt_sample_sets_srtt_and_rto() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        // 3 jiffies (30 ms) of simulated delay before the ACK comes back.
        let out = c.send(Bytes::from_static(b"ping"), &mut h.ctx());
        let seg = extract_tx(&out).pop().unwrap();
        h.advance(30 * MILLISECOND);
        let replies = s.on_segment(seg, &mut h.ctx());
        for r in extract_tx(&replies) {
            c.on_segment(r, &mut h.ctx());
        }
        assert_eq!(c.srtt_us(), 30 * MILLISECOND);
        assert!(c.rto_us() >= RTO_MIN_US);
        assert!(c.rto_us() < SECOND);
    }

    #[test]
    fn graceful_close_both_sides() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        let out = c.close(&mut h.ctx());
        assert_eq!(c.state, TcpState::FinWait1);
        let fin = extract_tx(&out).pop().unwrap();
        let out = s.on_segment(fin, &mut h.ctx());
        assert_eq!(s.state, TcpState::CloseWait);
        assert!(out.iter().any(|o| matches!(o, TcpOut::PeerFin)));
        for seg in extract_tx(&out) {
            c.on_segment(seg, &mut h.ctx());
        }
        assert_eq!(c.state, TcpState::FinWait2);
        let out = s.close(&mut h.ctx());
        assert_eq!(s.state, TcpState::LastAck);
        let fin2 = extract_tx(&out).pop().unwrap();
        let out = c.on_segment(fin2, &mut h.ctx());
        assert_eq!(c.state, TcpState::TimeWait);
        for seg in extract_tx(&out) {
            s.on_segment(seg, &mut h.ctx());
        }
        assert_eq!(s.state, TcpState::Closed);
    }

    #[test]
    fn rst_closes_immediately() {
        let mut h = Harness::new();
        let (mut c, s) = established_pair(&mut h);
        let rst = Segment::tcp(
            s.local,
            c.local,
            TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            0,
            0,
            0,
            Jiffies(0),
            Jiffies(0),
            Bytes::new(),
        );
        let out = c.on_segment(rst, &mut h.ctx());
        assert_eq!(c.state, TcpState::Closed);
        assert!(out.iter().any(|o| matches!(o, TcpOut::Closed)));
    }

    #[test]
    fn record_len_grows_with_queued_data() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        let empty = c.record_len();
        assert_eq!(empty, TCP_RECORD_SCALAR);
        c.send(Bytes::from(vec![0u8; 256]), &mut h.ctx());
        assert_eq!(c.record_len(), TCP_RECORD_SCALAR + 68 + 256);
    }

    #[test]
    fn delta_len_is_zero_without_changes() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        pump(&mut h, &mut c, &mut s, b"steady state");
        let stamp = c.mutation_stamp();
        assert_eq!(c.delta_len(stamp), 0, "no changes since stamp");
        // A new send dirties the socket again.
        c.send(Bytes::from_static(b"z"), &mut h.ctx());
        let d = c.delta_len(stamp);
        assert!(d > DELTA_HEADER + 68, "delta covers the new skb, got {d}");
        assert!(d < c.record_len(), "delta much smaller than full record");
    }

    #[test]
    fn migratable_states() {
        assert!(TcpState::Established.is_migratable());
        assert!(TcpState::Listen.is_migratable());
        assert!(!TcpState::SynSent.is_migratable());
        assert!(!TcpState::FinWait1.is_migratable());
    }

    #[test]
    fn quiesce_clears_timer_and_bumps_generation() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        c.send(Bytes::from_static(b"inflight"), &mut h.ctx());
        assert!(c.timer_deadline().is_some());
        let gen = c.timer_gen;
        c.quiesce_for_migration();
        assert!(c.timer_deadline().is_none());
        assert!(c.timer_gen > gen, "stale timer fires must be ignorable");
    }

    #[test]
    fn restore_restarts_timer_only_with_data_in_flight() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        c.quiesce_for_migration();
        assert!(c.restart_timer_after_restore(&mut h.ctx()).is_empty());
        c.send(Bytes::from_static(b"data"), &mut h.ctx());
        c.quiesce_for_migration();
        let out = c.restart_timer_after_restore(&mut h.ctx());
        assert!(matches!(out[0], TcpOut::ArmTimer(_)));
    }

    #[test]
    fn jiffies_adjustment_keeps_rtt_sane_across_nodes() {
        // Client establishes against a server on a node with jiffies base
        // 1000; the server "migrates" to a node with base 2_000_000 (a ~5.5h
        // uptime difference). With adjustment, RTT samples stay correct.
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        pump(&mut h, &mut c, &mut s, b"warmup");
        let rto_before = c.rto_us();

        // Move the *client* socket to a node with a very different base.
        let src_j = Jiffies::at(h.jiffies_base, h.now);
        h.jiffies_base = 2_000_000;
        let dst_j = Jiffies::at(h.jiffies_base, h.now);
        c.apply_jiffies_delta(dst_j.delta(src_j));

        let got = pump(&mut h, &mut c, &mut s, b"after-migration");
        assert_eq!(got, b"after-migration");
        assert!(
            c.rto_us() <= rto_before.max(RTO_MIN_US) * 2,
            "rto exploded despite adjustment: {} vs {}",
            c.rto_us(),
            rto_before
        );
    }

    #[test]
    fn missing_jiffies_adjustment_blows_up_rto() {
        let mut h = Harness::new();
        let (mut c, mut s) = established_pair(&mut h);
        pump(&mut h, &mut c, &mut s, b"warmup");
        // Jiffies base jumps *down* without adjustment: the next echoed
        // timestamp looks like it is from the future → RTO_MAX sample.
        h.jiffies_base = 10;
        pump(&mut h, &mut c, &mut s, b"post");
        assert!(
            c.rto_us() > 10 * SECOND,
            "expected broken RTO without adjustment, got {}µs",
            c.rto_us()
        );
    }

    #[test]
    fn window_limits_flight() {
        let mut h = Harness::new();
        let (mut c, _s) = established_pair(&mut h);
        // Shrink the peer window artificially.
        c.snd_wnd = MSS;
        let out = c.send(Bytes::from(vec![0u8; MSS as usize * 4]), &mut h.ctx());
        let txs = extract_tx(&out);
        assert_eq!(txs.len(), 1, "only one MSS fits the window");
        assert_eq!(c.flight(), MSS);
    }
}
