//! A TCP connection: reliable byte stream with Reno congestion control.
//!
//! Implements the classic algorithms the paper's §5.2 presumes: slow
//! start, congestion avoidance, fast retransmit / fast recovery (with
//! NewReno partial-ACK handling, which matters on high-BER wireless
//! links), Jacobson RTT estimation with Karn's rule, exponential RTO
//! backoff, cumulative ACKs with out-of-order reassembly, and FIN
//! teardown. It also implements the mobile-specific hook the paper cites
//! from Caceres & Iftode \[2\]: [`Connection::handoff_complete`], which
//! "utilizes the fast retransmission option immediately after handoff is
//! completed".

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;

use netstack::{IpPacket, Node, Payload, Protocol};
use simnet::stats::{Counter, Sampler};
use simnet::trace::Trace;
use simnet::{EventKey, SimDuration, Simulator};

use crate::seg::{SocketAddr, TcpSegment, MSS};

/// Lower bound on the retransmission timeout.
pub(crate) const MIN_RTO: f64 = 0.2;
/// Upper bound on the retransmission timeout.
pub(crate) const MAX_RTO: f64 = 60.0;
/// Consecutive RTOs on the same unacknowledged data after which the
/// connection gives up and aborts (RFC 1122 §4.2.3.5 "R2"-style). With
/// exponential backoff this tolerates roughly two minutes of total
/// silence, so only a dead peer or a permanent partition trips it —
/// handoff blackouts are orders of magnitude shorter.
pub const MAX_CONSECUTIVE_RTOS: u32 = 7;
/// Default advertised receive window (bytes).
pub(crate) const DEFAULT_RWND: u32 = 1 << 20;
/// Initial congestion window (segments).
pub(crate) const INITIAL_CWND_SEGS: f64 = 2.0;
/// Initial slow-start threshold (bytes).
pub(crate) const INITIAL_SSTHRESH: f64 = 256.0 * 1024.0;

/// Connection lifecycle state (condensed TCP state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Not yet opened.
    Closed,
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Server got SYN, sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data may flow.
    Established,
    /// Both sides have exchanged and acknowledged FINs.
    Done,
    /// The connection gave up after [`MAX_CONSECUTIVE_RTOS`] consecutive
    /// retransmission timeouts: the peer is presumed dead. Terminal — no
    /// further segments are sent or accepted.
    Aborted,
}

/// Measurement counters exposed by every connection.
#[derive(Debug, Default)]
pub struct ConnectionStats {
    /// Payload bytes handed to [`Connection::send`].
    pub(crate) bytes_queued: Counter,
    /// Payload bytes delivered in order to the application.
    pub(crate) bytes_delivered: Counter,
    /// Segments retransmitted for any reason.
    pub retransmits: Counter,
    /// Fast retransmits (triple duplicate ACK or handoff signal).
    pub fast_retransmits: Counter,
    /// Retransmission timeouts taken.
    pub rtos: Counter,
    /// Aborts after the consecutive-RTO limit (0 or 1 per connection).
    pub(crate) aborts: Counter,
    /// Smoothed round-trip samples (seconds).
    pub(crate) rtt: Sampler,
}

/// The unacknowledged send stream as a queue of refcounted chunks.
///
/// Each [`Connection::send_bytes`] call appends its `Bytes` chunk as-is, so
/// the page body a host queues is never copied into a linear buffer.
/// Segmentation slices chunks zero-copy (an MSS window that straddles a
/// chunk boundary is stitched with one small copy), and ACKs release whole
/// chunks from the front — dropping a refcount instead of `memmove`-ing the
/// remaining stream down, which on a multi-hundred-kilobyte transfer turns
/// the old `O(bytes · acks)` prune into `O(chunks)`.
struct SendBuf {
    chunks: VecDeque<Bytes>,
    /// Stream sequence number of the first byte of `chunks[0]`.
    base: u64,
    /// Total bytes across all chunks.
    len: u64,
}

impl SendBuf {
    fn new(base: u64) -> Self {
        SendBuf {
            chunks: VecDeque::new(),
            base,
            len: 0,
        }
    }

    /// Stream sequence number one past the last queued byte.
    fn end(&self) -> u64 {
        self.base + self.len
    }

    fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.len += data.len() as u64;
        self.chunks.push_back(data);
    }

    /// Bytes `[seq, seq + len)` as one `Bytes`; zero-copy when the range
    /// lies within a single chunk.
    fn slice(&self, seq: u64, len: usize) -> Bytes {
        debug_assert!(seq >= self.base && seq + len as u64 <= self.end());
        let mut off = seq - self.base;
        let mut i = 0;
        while self.chunks[i].len() as u64 <= off {
            off -= self.chunks[i].len() as u64;
            i += 1;
        }
        let off = off as usize;
        if off + len <= self.chunks[i].len() {
            return self.chunks[i].slice(off..off + len);
        }
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.chunks[i][off..]);
        while out.len() < len {
            i += 1;
            let take = (len - out.len()).min(self.chunks[i].len());
            out.extend_from_slice(&self.chunks[i][..take]);
        }
        Bytes::from(out)
    }

    /// Releases the acknowledged prefix up to (not including) `seq`.
    fn release(&mut self, seq: u64) {
        if seq <= self.base {
            return;
        }
        while let Some(front) = self.chunks.front() {
            let flen = front.len() as u64;
            if self.base + flen > seq {
                break;
            }
            self.base += flen;
            self.len -= flen;
            self.chunks.pop_front();
        }
        if seq > self.base {
            let cut = (seq - self.base) as usize;
            let front = self.chunks.front_mut().expect("seq < end implies a chunk");
            *front = front.slice(cut..);
            self.len -= cut as u64;
            self.base = seq;
        }
    }
}

struct SendState {
    una: u64,
    nxt: u64,
    buf: SendBuf,
    cwnd: f64,
    ssthresh: f64,
    rwnd: u32,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    recovery_retx_at: simnet::SimTime,
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    backoff: u32,
    rtt_seq: u64,
    rtt_sent_at: simnet::SimTime,
    rtt_pending: bool,
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: u64,
}

struct RecvState {
    nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
    peer_fin: Option<u64>,
    peer_fin_done: bool,
}

type DataCallback = Rc<dyn Fn(&mut Simulator, Bytes)>;
type EventCallback = Rc<dyn Fn(&mut Simulator)>;
type ErrorCallback = Rc<dyn Fn(&mut Simulator, &str)>;

/// One endpoint of a TCP connection.
///
/// Created via [`crate::Tcp::connect`] or handed to a listener's accept
/// callback; never constructed directly.
pub struct Connection {
    node: Rc<Node>,
    local: SocketAddr,
    remote: SocketAddr,
    state: Cell<State>,
    snd: RefCell<SendState>,
    rcv: RefCell<RecvState>,
    on_data: RefCell<Option<DataCallback>>,
    on_established: RefCell<Vec<EventCallback>>,
    on_closed: RefCell<Vec<EventCallback>>,
    on_error: RefCell<Vec<ErrorCallback>>,
    timer_key: Cell<Option<EventKey>>,
    /// Measurement counters.
    pub stats: ConnectionStats,
    trace: Trace,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snd = self.snd.borrow();
        f.debug_struct("Connection")
            .field("local", &self.local)
            .field("remote", &self.remote)
            .field("state", &self.state.get())
            .field("snd_una", &snd.una)
            .field("snd_nxt", &snd.nxt)
            .field("cwnd", &snd.cwnd)
            .finish()
    }
}

impl Connection {
    pub(crate) fn new(
        node: Rc<Node>,
        local: SocketAddr,
        remote: SocketAddr,
        trace: Trace,
    ) -> Rc<Self> {
        Rc::new(Connection {
            node,
            local,
            remote,
            state: Cell::new(State::Closed),
            snd: RefCell::new(SendState {
                una: 1,
                nxt: 1,
                buf: SendBuf::new(1),
                cwnd: INITIAL_CWND_SEGS * MSS as f64,
                ssthresh: INITIAL_SSTHRESH,
                rwnd: DEFAULT_RWND,
                dupacks: 0,
                in_recovery: false,
                recover: 0,
                recovery_retx_at: simnet::SimTime::ZERO,
                srtt: None,
                rttvar: 0.0,
                rto: 1.0,
                backoff: 0,
                rtt_seq: 0,
                rtt_sent_at: simnet::SimTime::ZERO,
                rtt_pending: false,
                fin_queued: false,
                fin_sent: false,
                fin_seq: 0,
            }),
            rcv: RefCell::new(RecvState {
                nxt: 1,
                ooo: BTreeMap::new(),
                peer_fin: None,
                peer_fin_done: false,
            }),
            on_data: RefCell::new(None),
            on_established: RefCell::new(Vec::new()),
            on_closed: RefCell::new(Vec::new()),
            on_error: RefCell::new(Vec::new()),
            timer_key: Cell::new(None),
            stats: ConnectionStats::default(),
            trace,
        })
    }

    /// Remote socket address.
    pub(crate) fn remote(&self) -> SocketAddr {
        self.remote
    }

    /// Current lifecycle state.
    pub fn state(&self) -> State {
        self.state.get()
    }

    /// Installs the ordered-data callback.
    pub fn on_data(&self, f: impl Fn(&mut Simulator, Bytes) + 'static) {
        *self.on_data.borrow_mut() = Some(Rc::new(f));
    }

    /// Registers a callback fired when the connection reaches
    /// [`State::Established`].
    pub fn on_established(&self, f: impl Fn(&mut Simulator) + 'static) {
        self.on_established.borrow_mut().push(Rc::new(f));
    }

    /// Registers a callback fired when the connection reaches
    /// [`State::Done`].
    pub(crate) fn on_closed(&self, f: impl Fn(&mut Simulator) + 'static) {
        self.on_closed.borrow_mut().push(Rc::new(f));
    }

    /// Registers a callback fired if the connection aborts — today only
    /// via the [`MAX_CONSECUTIVE_RTOS`] give-up — with a human-readable
    /// reason. A resilience layer should treat this as a *retryable*
    /// transport failure: the peer may return after a handoff or outage.
    pub fn on_error(&self, f: impl Fn(&mut Simulator, &str) + 'static) {
        self.on_error.borrow_mut().push(Rc::new(f));
    }

    // ------------------------------------------------------------------
    // Opening
    // ------------------------------------------------------------------

    pub(crate) fn open_active(self: &Rc<Self>, sim: &mut Simulator) {
        self.state.set(State::SynSent);
        let mut seg = TcpSegment::new(self.local, self.remote);
        seg.syn = true;
        seg.seq = 0;
        seg.wnd = DEFAULT_RWND;
        self.transmit(sim, seg);
        self.arm_timer(sim);
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Queues `data` on the send buffer and transmits as the window allows.
    ///
    /// Copies `data` once into a shared chunk; callers that already hold a
    /// [`Bytes`] should use [`Connection::send_bytes`], which is zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if called after `Connection::close`.
    pub fn send(self: &Rc<Self>, sim: &mut Simulator, data: &[u8]) {
        self.send_bytes(sim, Bytes::copy_from_slice(data));
    }

    /// Queues a refcounted chunk on the send buffer without copying it and
    /// transmits as the window allows.
    ///
    /// The chunk is segmented by slicing (`Bytes::slice`), so a page body
    /// produced once at the host is shared — not deep-cloned — all the way
    /// down to the wire.
    ///
    /// # Panics
    ///
    /// Panics if called after `Connection::close`.
    pub fn send_bytes(self: &Rc<Self>, sim: &mut Simulator, data: Bytes) {
        let queued = data.len() as u64;
        {
            let mut snd = self.snd.borrow_mut();
            assert!(!snd.fin_queued, "cannot send after close()");
            snd.buf.push(data);
        }
        self.stats.bytes_queued.add(queued);
        if self.state.get() == State::Established {
            self.try_send(sim);
        }
    }

    /// Queues a FIN after any buffered data and begins teardown.
    pub(crate) fn close(self: &Rc<Self>, sim: &mut Simulator) {
        self.snd.borrow_mut().fin_queued = true;
        if self.state.get() == State::Established {
            self.try_send(sim);
        }
    }

    /// Transmits as much buffered data as the congestion and receive
    /// windows currently allow.
    fn try_send(self: &Rc<Self>, sim: &mut Simulator) {
        loop {
            let seg = {
                let mut snd = self.snd.borrow_mut();
                let window = (snd.cwnd as u64).min(snd.rwnd as u64);
                let limit = snd.una + window;
                if snd.nxt >= limit {
                    break;
                }
                let stream_end = snd.buf.end();
                if snd.nxt < stream_end {
                    let len = MSS
                        .min((stream_end - snd.nxt) as usize)
                        .min((limit - snd.nxt) as usize);
                    let data = snd.buf.slice(snd.nxt, len);
                    let mut seg = TcpSegment::new(self.local, self.remote);
                    seg.seq = snd.nxt;
                    seg.data = data;
                    seg.ack_flag = true;
                    seg.ack = self.rcv.borrow().nxt;
                    seg.wnd = DEFAULT_RWND;
                    // RTT sampling (Karn's rule: first transmission only).
                    if !snd.rtt_pending {
                        snd.rtt_pending = true;
                        snd.rtt_seq = snd.nxt + len as u64;
                        snd.rtt_sent_at = sim.now();
                    }
                    snd.nxt += len as u64;
                    seg
                } else if snd.fin_queued && !snd.fin_sent {
                    let mut seg = TcpSegment::new(self.local, self.remote);
                    seg.seq = snd.nxt;
                    seg.fin = true;
                    seg.ack_flag = true;
                    seg.ack = self.rcv.borrow().nxt;
                    seg.wnd = DEFAULT_RWND;
                    snd.fin_sent = true;
                    snd.fin_seq = snd.nxt;
                    snd.nxt += 1;
                    seg
                } else {
                    break;
                }
            };
            self.transmit(sim, seg);
            self.arm_timer(sim);
        }
    }

    /// Retransmits one segment starting at `snd.una`.
    fn retransmit_una(self: &Rc<Self>, sim: &mut Simulator) {
        let seg = {
            let snd = self.snd.borrow();
            if self.state.get() == State::SynSent {
                let mut seg = TcpSegment::new(self.local, self.remote);
                seg.syn = true;
                seg.seq = 0;
                seg.wnd = DEFAULT_RWND;
                Some(seg)
            } else if snd.fin_sent && snd.una == snd.fin_seq {
                let mut seg = TcpSegment::new(self.local, self.remote);
                seg.seq = snd.fin_seq;
                seg.fin = true;
                seg.ack_flag = true;
                seg.ack = self.rcv.borrow().nxt;
                seg.wnd = DEFAULT_RWND;
                Some(seg)
            } else if snd.una < snd.buf.end() {
                let len = MSS.min((snd.buf.end() - snd.una) as usize);
                let mut seg = TcpSegment::new(self.local, self.remote);
                seg.seq = snd.una;
                seg.data = snd.buf.slice(snd.una, len);
                seg.ack_flag = true;
                seg.ack = self.rcv.borrow().nxt;
                seg.wnd = DEFAULT_RWND;
                Some(seg)
            } else {
                None
            }
        };
        if let Some(seg) = seg {
            self.stats.retransmits.incr();
            obs::metrics::incr("transport.retransmits");
            self.trace.log(
                sim.now(),
                "tcp",
                format!("{} RETX {}", self.local, seg.describe()),
            );
            self.transmit(sim, seg);
        }
    }

    fn transmit(&self, sim: &mut Simulator, seg: TcpSegment) {
        let size = seg.wire_size();
        let pkt = IpPacket::new(
            self.local.ip,
            self.remote.ip,
            Protocol::Tcp,
            Payload::new(seg, size),
        );
        // `Node::send` routes locally originated packets.
        let node = Rc::clone(&self.node);
        node.send(sim, pkt);
    }

    fn send_pure_ack(self: &Rc<Self>, sim: &mut Simulator) {
        let mut seg = TcpSegment::new(self.local, self.remote);
        seg.ack_flag = true;
        seg.ack = self.rcv.borrow().nxt;
        seg.seq = self.snd.borrow().nxt;
        seg.wnd = DEFAULT_RWND;
        self.transmit(sim, seg);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_timer(self: &Rc<Self>, sim: &mut Simulator) {
        self.cancel_timer(sim);
        let rto = self.snd.borrow().rto;
        let conn = Rc::clone(self);
        let key = sim.schedule_in_keyed(SimDuration::from_secs_f64(rto), move |sim| {
            conn.timer_key.set(None);
            conn.on_rto(sim);
        });
        self.timer_key.set(Some(key));
    }

    fn cancel_timer(&self, sim: &mut Simulator) {
        if let Some(key) = self.timer_key.take() {
            sim.cancel(key);
        }
    }

    fn on_rto(self: &Rc<Self>, sim: &mut Simulator) {
        let outstanding = {
            let snd = self.snd.borrow();
            snd.una < snd.nxt || self.state.get() == State::SynSent
        };
        if !outstanding {
            return;
        }
        self.stats.rtos.incr();
        obs::metrics::incr("transport.rto_fired");
        let give_up = {
            let mut snd = self.snd.borrow_mut();
            let flight = (snd.nxt - snd.una) as f64;
            snd.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
            snd.cwnd = MSS as f64;
            snd.dupacks = 0;
            snd.in_recovery = false;
            snd.backoff += 1;
            snd.rto = (snd.rto * 2.0).clamp(MIN_RTO, MAX_RTO);
            snd.rtt_pending = false; // Karn: no samples across retransmits
            snd.backoff >= MAX_CONSECUTIVE_RTOS
        };
        if give_up {
            self.abort(sim, "retransmission limit reached: peer unreachable");
            return;
        }
        self.trace.log(
            sim.now(),
            "tcp",
            format!("{} RTO, cwnd reset to 1 MSS", self.local),
        );
        self.retransmit_una(sim);
        self.arm_timer(sim);
    }

    /// Tears the connection down unilaterally, cancelling its timer and
    /// firing the [`Connection::on_error`] callbacks with `reason`.
    /// Idempotent; a no-op once the connection is `Done` or `Aborted`.
    pub(crate) fn abort(self: &Rc<Self>, sim: &mut Simulator, reason: &str) {
        if matches!(self.state.get(), State::Done | State::Aborted) {
            return;
        }
        self.state.set(State::Aborted);
        self.cancel_timer(sim);
        self.stats.aborts.incr();
        obs::metrics::incr("transport.aborts");
        self.trace
            .log(sim.now(), "tcp", format!("{} ABORT: {reason}", self.local));
        let listeners: Vec<_> = self.on_error.borrow().clone();
        for l in listeners {
            l(sim, reason);
        }
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Processes an inbound segment addressed to this connection.
    pub(crate) fn handle_segment(self: &Rc<Self>, sim: &mut Simulator, seg: TcpSegment) {
        match self.state.get() {
            State::Closed => {
                // Passive open: first segment must be the peer's SYN.
                if seg.syn && !seg.ack_flag {
                    self.rcv.borrow_mut().nxt = seg.seq + 1;
                    self.state.set(State::SynRcvd);
                    let mut reply = TcpSegment::new(self.local, self.remote);
                    reply.syn = true;
                    reply.ack_flag = true;
                    reply.seq = 0;
                    reply.ack = seg.seq + 1;
                    reply.wnd = DEFAULT_RWND;
                    self.transmit(sim, reply);
                    self.arm_timer(sim);
                }
            }
            State::SynSent => {
                if seg.syn && seg.ack_flag && seg.ack == 1 {
                    self.rcv.borrow_mut().nxt = seg.seq + 1;
                    {
                        let mut snd = self.snd.borrow_mut();
                        snd.rwnd = seg.wnd.max(MSS as u32);
                    }
                    self.cancel_timer(sim);
                    self.become_established(sim);
                    self.send_pure_ack(sim);
                    self.try_send(sim);
                }
            }
            State::SynRcvd => {
                if seg.ack_flag && seg.ack == 1 && !seg.syn {
                    self.cancel_timer(sim);
                    self.become_established(sim);
                    // The ACK may carry data already.
                    if !seg.data.is_empty() || seg.fin {
                        self.process_established(sim, seg);
                    }
                } else if seg.syn && !seg.ack_flag {
                    // Duplicate SYN: re-send SYN-ACK.
                    let mut reply = TcpSegment::new(self.local, self.remote);
                    reply.syn = true;
                    reply.ack_flag = true;
                    reply.seq = 0;
                    reply.ack = seg.seq + 1;
                    reply.wnd = DEFAULT_RWND;
                    self.transmit(sim, reply);
                }
            }
            State::Established => self.process_established(sim, seg),
            State::Done => {
                // Late segments after teardown: re-ACK FINs so the peer can
                // finish, ignore everything else.
                if seg.fin {
                    self.send_pure_ack(sim);
                }
            }
            State::Aborted => {
                // The connection is dead; late segments are dropped.
            }
        }
    }

    fn become_established(self: &Rc<Self>, sim: &mut Simulator) {
        self.state.set(State::Established);
        self.trace
            .log(sim.now(), "tcp", format!("{} established", self.local));
        let listeners: Vec<_> = self.on_established.borrow().clone();
        for l in listeners {
            l(sim);
        }
    }

    fn process_established(self: &Rc<Self>, sim: &mut Simulator, seg: TcpSegment) {
        if seg.ack_flag {
            self.process_ack(sim, &seg);
        }
        if !seg.data.is_empty() || seg.fin {
            self.process_payload(sim, seg);
        }
        self.maybe_finish(sim);
    }

    fn process_ack(self: &Rc<Self>, sim: &mut Simulator, seg: &TcpSegment) {
        enum AckAction {
            None,
            FastRetransmit,
            PartialRetransmit,
        }
        let mut action = AckAction::None;
        {
            let mut snd = self.snd.borrow_mut();
            snd.rwnd = seg.wnd.max(MSS as u32);
            if seg.ack > snd.una {
                let newly = seg.ack - snd.una;
                snd.una = seg.ack;
                snd.backoff = 0;

                // RTT sample (Karn's rule handled at send/RTO sites).
                if snd.rtt_pending && seg.ack >= snd.rtt_seq {
                    let sample = sim.now().since(snd.rtt_sent_at).as_secs_f64();
                    snd.rtt_pending = false;
                    match snd.srtt {
                        None => {
                            snd.srtt = Some(sample);
                            snd.rttvar = sample / 2.0;
                        }
                        Some(srtt) => {
                            snd.rttvar = 0.75 * snd.rttvar + 0.25 * (srtt - sample).abs();
                            snd.srtt = Some(0.875 * srtt + 0.125 * sample);
                        }
                    }
                    snd.rto = (snd.srtt.unwrap() + 4.0 * snd.rttvar).clamp(MIN_RTO, MAX_RTO);
                    self.stats.rtt.record(sample);
                }

                if snd.in_recovery {
                    if seg.ack >= snd.recover {
                        // Full acknowledgement: leave recovery.
                        snd.in_recovery = false;
                        snd.cwnd = snd.ssthresh;
                        snd.dupacks = 0;
                    } else {
                        // NewReno partial ACK: the next hole is lost too.
                        snd.cwnd = (snd.cwnd - newly as f64 + MSS as f64).max(MSS as f64);
                        action = AckAction::PartialRetransmit;
                    }
                } else {
                    snd.dupacks = 0;
                    if snd.cwnd < snd.ssthresh {
                        snd.cwnd += MSS as f64; // slow start
                    } else {
                        snd.cwnd += (MSS as f64) * (MSS as f64) / snd.cwnd; // AIMD
                    }
                }

                // Release acked chunks from the front of the buffer.
                let acked_in_buf = snd.una.min(snd.buf.end());
                snd.buf.release(acked_in_buf);
            } else if seg.is_pure_ack() && seg.ack == snd.una && snd.nxt > snd.una {
                snd.dupacks += 1;
                if snd.in_recovery {
                    // Inflate and (below) possibly transmit new data. If
                    // dupacks keep arriving well after our last
                    // retransmission, that retransmission was itself lost:
                    // send it again rather than idling until a backed-off
                    // RTO — essential on channels that kill retransmissions
                    // too. Time-guarded so one loss's natural dupack burst
                    // does not trigger redundant resends.
                    snd.cwnd += MSS as f64;
                    let guard = (snd.rto / 2.0).max(0.1);
                    if sim.now().since(snd.recovery_retx_at).as_secs_f64() > guard {
                        snd.recovery_retx_at = sim.now();
                        action = AckAction::PartialRetransmit;
                    }
                } else if snd.dupacks == 3 {
                    let flight = (snd.nxt - snd.una) as f64;
                    snd.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
                    snd.cwnd = snd.ssthresh + 3.0 * MSS as f64;
                    snd.in_recovery = true;
                    snd.recover = snd.nxt;
                    snd.recovery_retx_at = sim.now();
                    action = AckAction::FastRetransmit;
                }
            }
        }

        match action {
            AckAction::FastRetransmit => {
                self.stats.fast_retransmits.incr();
                obs::metrics::incr("transport.fast_retransmits");
                self.trace.log(
                    sim.now(),
                    "tcp",
                    format!("{} fast retransmit (3 dupacks)", self.local),
                );
                self.retransmit_una(sim);
                self.arm_timer(sim);
            }
            AckAction::PartialRetransmit => {
                self.retransmit_una(sim);
                self.arm_timer(sim);
            }
            AckAction::None => {}
        }

        // Timer management + further transmission.
        let (all_acked, outstanding) = {
            let snd = self.snd.borrow();
            (snd.una >= snd.nxt, snd.una < snd.nxt)
        };
        if all_acked {
            self.cancel_timer(sim);
        } else if outstanding && matches!(action, AckAction::None) && seg.ack > 0 {
            // Restart timer on forward progress.
            let progressed = { self.snd.borrow().una == seg.ack };
            if progressed {
                self.arm_timer(sim);
            }
        }
        self.try_send(sim);
    }

    fn process_payload(self: &Rc<Self>, sim: &mut Simulator, seg: TcpSegment) {
        let mut to_deliver: Vec<Bytes> = Vec::new();
        {
            let mut rcv = self.rcv.borrow_mut();
            if seg.fin {
                rcv.peer_fin = Some(seg.seq + seg.data.len() as u64);
            }
            if !seg.data.is_empty() {
                if seg.seq == rcv.nxt {
                    rcv.nxt += seg.data.len() as u64;
                    to_deliver.push(seg.data.clone());
                    // Drain contiguous out-of-order segments.
                    while let Some((&s, _)) = rcv.ooo.first_key_value() {
                        if s > rcv.nxt {
                            break;
                        }
                        let (s, data) = rcv.ooo.pop_first().expect("nonempty");
                        if s + data.len() as u64 <= rcv.nxt {
                            continue; // fully duplicate
                        }
                        let skip = (rcv.nxt - s) as usize;
                        let fresh = data.slice(skip..);
                        rcv.nxt += fresh.len() as u64;
                        to_deliver.push(fresh);
                    }
                } else if seg.seq > rcv.nxt {
                    rcv.ooo.entry(seg.seq).or_insert_with(|| seg.data.clone());
                }
            }
            // Consume the FIN once all data before it has arrived.
            if let Some(fin_seq) = rcv.peer_fin {
                if !rcv.peer_fin_done && rcv.nxt >= fin_seq {
                    rcv.nxt = fin_seq + 1;
                    rcv.peer_fin_done = true;
                }
            }
        }

        for data in to_deliver {
            self.stats.bytes_delivered.add(data.len() as u64);
            let cb = self.on_data.borrow().clone();
            if let Some(cb) = cb {
                cb(sim, data);
            }
        }
        // Every data/FIN segment is acknowledged immediately: out-of-order
        // arrivals generate the duplicate ACKs fast retransmit feeds on.
        self.send_pure_ack(sim);
    }

    fn maybe_finish(self: &Rc<Self>, sim: &mut Simulator) {
        let ours_done = {
            let snd = self.snd.borrow();
            snd.fin_sent && snd.una > snd.fin_seq
        };
        let theirs_done = self.rcv.borrow().peer_fin_done;
        if ours_done && theirs_done && self.state.get() != State::Done {
            self.state.set(State::Done);
            self.cancel_timer(sim);
            self.trace
                .log(sim.now(), "tcp", format!("{} closed", self.local));
            let listeners: Vec<_> = self.on_closed.borrow().clone();
            for l in listeners {
                l(sim);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mobile extension: fast retransmission after handoff [2]
    // ------------------------------------------------------------------

    /// Signals that a handoff has just completed (Caceres & Iftode \[2\]).
    ///
    /// As a sender with unacknowledged data, the connection immediately
    /// performs a fast retransmit instead of idling until the (backed-off)
    /// retransmission timer expires. As a receiver, it sends three
    /// duplicate ACKs so the *peer* fast-retransmits anything lost in the
    /// blackout. Both actions are cheap no-ops when nothing is in flight.
    pub fn handoff_complete(self: &Rc<Self>, sim: &mut Simulator) {
        if matches!(self.state.get(), State::Done | State::Aborted) {
            return;
        }
        let has_unacked = {
            let snd = self.snd.borrow();
            snd.una < snd.nxt
        };
        if has_unacked {
            {
                let mut snd = self.snd.borrow_mut();
                if !snd.in_recovery {
                    let flight = (snd.nxt - snd.una) as f64;
                    snd.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
                    snd.cwnd = snd.ssthresh + 3.0 * MSS as f64;
                    snd.in_recovery = true;
                    snd.recover = snd.nxt;
                }
                snd.recovery_retx_at = sim.now();
            }
            self.stats.fast_retransmits.incr();
            obs::metrics::incr("transport.fast_retransmits");
            self.trace.log(
                sim.now(),
                "tcp",
                format!("{} handoff-complete fast retransmit", self.local),
            );
            self.retransmit_una(sim);
            self.arm_timer(sim);
        }
        if self.state.get() == State::Established {
            // Three duplicate ACKs prod the peer into fast retransmit.
            for _ in 0..3 {
                self.send_pure_ack(sim);
            }
        }
    }
}
