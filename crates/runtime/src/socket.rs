//! TCP transport: the threaded runtime's wire protocol on real
//! sockets, one OS process per consensus process.
//!
//! Architecture (per node):
//!
//! * one **acceptor** thread owns the listening socket and spawns a
//!   **reader** thread per inbound connection — *all* frames from a
//!   peer arrive on that peer's own outgoing connection, so each
//!   direction of the full mesh has exactly one writer;
//! * one **supervisor** thread per peer owns the outgoing connection:
//!   it dials with capped-exponential, seed-jittered backoff
//!   ([`backoff_delay`]), introduces itself with a `Hello{epoch}`
//!   handshake, sends data/ack/heartbeat/abort frames, arms an RTO
//!   retransmit timer per unacked data frame, and on reconnect resends
//!   everything unacked — the tree's one seqno/ack/dedup
//!   reliable-delivery protocol (the in-process network only models
//!   its timing), over a wire that can genuinely fail. Seeded
//!   [`SocketFaults`] (drop, delay, reset) strike where the supervisor
//!   writes a data frame, so this same code is what absorbs them.
//!
//! Two properties the paper cares about are structural here:
//!
//! * **Suspicion is gated on the PFD timeout, never on connection
//!   state.** Only frame arrivals mark the [`HeartbeatBoard`] (the
//!   acceptor merely ticks its running clock); a refused dial, a
//!   mid-stream reset, or a closed socket is invisible to
//!   [`TimeoutFd`](crate::fd::TimeoutFd). A `kill -9`'d peer is
//!   suspected when its silence outlives the timeout — §3's detector
//!   construction — while a reset that reconnects inside the bound
//!   leaves no trace.
//! * **Δ is measured, not assumed.** Every data frame carries its
//!   sender's wall-clock stamp; the receiver measures the one-way
//!   delay against the configured Δ and reports violations to the
//!   current instance's [`SynchronyMonitor`], which drives the
//!   `off|rws|abort` degrade modes mid-run ([`DegradeMode`]) — the §3
//!   caveat as an online guard.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use ssp_model::{ProcessId, Round};

use crate::chaos::SocketFaults;
use crate::clock::Clock;
use crate::fd::{DegradeMode, HeartbeatBoard, SynchronyEvent, SynchronyMonitor};
use crate::seqset::SeqSet;
use crate::transport::{backoff_delay, Frame, GatewayStats, TransportError, TransportStats};

/// Supervisor command-poll granularity; bounds shutdown latency and
/// RTO/heartbeat timer resolution.
const SUP_TICK: Duration = Duration::from_millis(5);

/// Reader-side socket timeout used purely to poll the shutdown flag;
/// partially read frames survive across timeouts.
const READ_POLL: Duration = Duration::from_millis(50);

/// Retransmission timeout for unacked data frames on an established
/// connection.
const SOCKET_RTO: Duration = Duration::from_millis(100);

/// Sentinel in the remote-abort cell: no abort received.
const NO_ABORT: u64 = u64::MAX;

/// Upper bound on the shutdown flush: how long a node will wait for
/// live peers to ack its remaining in-flight frames before exiting
/// anyway.
pub const FLUSH_TIMEOUT: Duration = Duration::from_secs(3);

/// Peers silent for longer than this are excluded from the shutdown
/// flush — they are dead or partitioned and will never ack, and the
/// frames owed to them die with this node exactly as a crash would
/// lose them.
pub const FLUSH_STALE_CUT: Duration = Duration::from_millis(750);

/// Configuration of one socket-transport node.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This node's process identity.
    pub me: ProcessId,
    /// Cluster size.
    pub n: usize,
    /// Address to listen on (e.g. `127.0.0.1:0` to let the OS pick).
    pub listen: String,
    /// Peer addresses, indexed by process; the entry for `me` is
    /// ignored.
    pub peers: Vec<String>,
    /// Monotone incarnation number of this process (guards against
    /// ghost writes from a predecessor incarnation).
    pub epoch: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Heartbeat interval (must sit well inside the PFD timeout).
    pub heartbeat: Duration,
    /// Claimed synchrony bound Δ for the online guard, or `None` to
    /// run unguarded (a disarmed monitor).
    pub delta: Option<Duration>,
    /// What a Δ violation does to the current instance.
    pub degrade: DegradeMode,
    /// Seeded faults on this node's outgoing data frames, if any.
    pub faults: Option<SocketFaults>,
}

impl SocketConfig {
    /// A loopback-friendly config with conventional timing: 20 ms
    /// heartbeats and an unarmed guard.
    #[must_use]
    pub fn local(me: ProcessId, n: usize, listen: String, peers: Vec<String>) -> Self {
        SocketConfig {
            me,
            n,
            listen,
            peers,
            epoch: 1,
            seed: 0,
            heartbeat: Duration::from_millis(20),
            delta: None,
            degrade: DegradeMode::Off,
            faults: None,
        }
    }
}

/// A data frame delivered to the round layer (post-dedup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketMsg {
    /// Sending process.
    pub src: ProcessId,
    /// Consensus instance of the payload.
    pub instance: u64,
    /// Round within the instance.
    pub round: Round,
    /// Caller-encoded round message.
    pub payload: Vec<u8>,
}

/// Commands from readers / the round layer to a peer's supervisor.
enum SupCmd {
    /// Send a data frame (seq assigned by the supervisor).
    Data {
        instance: u64,
        round: u32,
        payload: Vec<u8>,
    },
    /// Acknowledge the peer's data frame `seq` (on *our* connection to
    /// it).
    SendAck { seq: u64 },
    /// The peer acknowledged *our* data frame `seq`.
    Acked { seq: u64 },
    /// Tell the peer we aborted `instance`.
    Abort { instance: u64 },
}

/// Non-deterministic transport counters, shared across threads.
#[derive(Debug, Default)]
struct SharedStats {
    reconnects: AtomicU64,
    retransmits: AtomicU64,
    backoff_micros: AtomicU64,
    delivered: AtomicU64,
    dup_suppressed: AtomicU64,
    late_frames: AtomicU64,
    stale_epoch_drops: AtomicU64,
    corrupt_drops: AtomicU64,
    max_delay_micros: AtomicU64,
    max_silence_micros: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            reconnects: self.reconnects.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            backoff_micros: self.backoff_micros.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            late_frames: self.late_frames.load(Ordering::Relaxed),
            stale_epoch_drops: self.stale_epoch_drops.load(Ordering::Relaxed),
            corrupt_drops: self.corrupt_drops.load(Ordering::Relaxed),
            max_delay_micros: self.max_delay_micros.load(Ordering::Relaxed),
            max_silence_micros: self.max_silence_micros.load(Ordering::Relaxed),
        }
    }
}

/// State shared by every thread of one node.
struct Core {
    me: ProcessId,
    epoch: u64,
    heartbeat: Duration,
    seed: u64,
    delta: Option<Duration>,
    degrade: DegradeMode,
    faults: Option<SocketFaults>,
    shutdown: AtomicBool,
    board: Arc<HeartbeatBoard>,
    /// Per peer: has any frame of it arrived yet?
    heard: Vec<AtomicBool>,
    stats: SharedStats,
    /// The current instance's synchrony guard (swapped by
    /// `begin_instance`) and which instance it guards.
    monitor: Mutex<Arc<SynchronyMonitor>>,
    guarded_instance: AtomicU64,
    /// Lowest instance any peer reported aborting, `NO_ABORT` if none.
    remote_abort: AtomicU64,
    /// Newest epoch seen per peer.
    epochs: Vec<AtomicU64>,
    /// Per-peer dedup of received data seqs (each incarnation numbers
    /// its frames from 0, so the set stays at its reordering window and
    /// restarts with a newer epoch).
    seen: Vec<Mutex<SeqSet>>,
    /// Per-peer supervisor inboxes (entry for `me` exists but is
    /// never dialed).
    sups: Vec<Sender<SupCmd>>,
    /// Per-peer count of data frames queued or sent but not yet
    /// acked. `shutdown` flushes these before tearing down — a node
    /// that exited the instant its own rounds closed would otherwise
    /// take its final relays to the grave and manufacture false
    /// suspicions at the survivors.
    inflight: Vec<AtomicU64>,
    inbox_tx: Sender<SocketMsg>,
}

impl Core {
    fn monitor(&self) -> Arc<SynchronyMonitor> {
        Arc::clone(&self.monitor.lock())
    }

    /// Marks `src` on the board. The silence this frame ends counts
    /// toward `max_silence_micros`, unless it is `src`'s first frame.
    fn hear(&self, src: ProcessId) {
        let silence = self.board.staleness(src);
        if self.heard[src.index()].swap(true, Ordering::Relaxed) {
            self.stats
                .max_silence_micros
                .fetch_max(silence.as_micros() as u64, Ordering::Relaxed);
        }
        self.board.mark(src);
    }

    /// Records the one-way delay of a frame stamped `sent_micros`.
    fn delay_since(&self, sent_micros: u64) -> Duration {
        let micros = unix_micros().saturating_sub(sent_micros);
        self.stats
            .max_delay_micros
            .fetch_max(micros, Ordering::Relaxed);
        Duration::from_micros(micros)
    }
}

/// Microseconds since the Unix epoch on the sender's wall clock — the
/// one-way-delay stamp. All nodes of a local cluster share one wall
/// clock, so the receiver-side difference is a real delay measurement.
fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// The socket-transport node handle: spawn, exchange round messages,
/// observe the guard, shut down.
#[derive(Debug)]
pub struct SocketNet {
    core: Arc<Core>,
    inbox_rx: Receiver<SocketMsg>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("me", &self.me)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl SocketNet {
    /// Binds the listener and spawns the acceptor and all peer
    /// supervisors. Dialing is lazy and fault-tolerant: peers that are
    /// not up yet are retried with backoff, so nodes can start in any
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn(config: SocketConfig) -> io::Result<SocketNet> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (inbox_tx, inbox_rx) = unbounded::<SocketMsg>();
        let mut sup_txs = Vec::with_capacity(config.n);
        let mut sup_rxs = Vec::with_capacity(config.n);
        for _ in 0..config.n {
            let (tx, rx) = unbounded::<SupCmd>();
            sup_txs.push(tx);
            sup_rxs.push(rx);
        }
        let core = Arc::new(Core {
            me: config.me,
            epoch: config.epoch,
            heartbeat: config.heartbeat,
            seed: config.seed,
            delta: config.delta,
            degrade: config.degrade,
            faults: config.faults,
            shutdown: AtomicBool::new(false),
            board: HeartbeatBoard::new(config.n, Clock::real()),
            heard: (0..config.n).map(|_| AtomicBool::new(false)).collect(),
            stats: SharedStats::default(),
            monitor: Mutex::new(SynchronyMonitor::disarmed()),
            guarded_instance: AtomicU64::new(NO_ABORT),
            remote_abort: AtomicU64::new(NO_ABORT),
            epochs: (0..config.n).map(|_| AtomicU64::new(0)).collect(),
            seen: (0..config.n).map(|_| Mutex::new(SeqSet::new())).collect(),
            sups: sup_txs,
            inflight: (0..config.n).map(|_| AtomicU64::new(0)).collect(),
            inbox_tx,
        });
        let mut threads = Vec::new();
        let acceptor_core = Arc::clone(&core);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ssp-accept-{}", config.me.index()))
                .spawn(move || acceptor(&acceptor_core, &listener))
                .expect("spawn acceptor"),
        );
        for (j, rx) in sup_rxs.into_iter().enumerate() {
            if j == config.me.index() {
                continue;
            }
            let sup_core = Arc::clone(&core);
            let addr = config.peers[j].clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ssp-sup-{}-{}", config.me.index(), j))
                    .spawn(move || supervisor(&sup_core, ProcessId::new(j), &addr, &rx))
                    .expect("spawn supervisor"),
            );
        }
        Ok(SocketNet {
            core,
            inbox_rx,
            local_addr,
            threads,
        })
    }

    /// The bound listener address (resolves `:0` to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The frame-arrival board feeding
    /// [`TimeoutFd`](crate::fd::TimeoutFd).
    #[must_use]
    pub fn board(&self) -> Arc<HeartbeatBoard> {
        Arc::clone(&self.core.board)
    }

    /// Whether a frame of every peer has arrived: before it has, a
    /// peer's silence may be its late start, not a crash.
    #[must_use]
    pub fn heard_from_all(&self) -> bool {
        self.core
            .heard
            .iter()
            .enumerate()
            .all(|(j, heard)| j == self.core.me.index() || heard.load(Ordering::Relaxed))
    }

    /// Arms a fresh synchrony monitor for `instance` (or a disarmed
    /// one when no Δ is configured) and returns it. Late frames of
    /// *other* instances never touch it, so one slow instance cannot
    /// degrade its successor.
    #[must_use]
    pub fn begin_instance(&self, instance: u64) -> Arc<SynchronyMonitor> {
        let fresh = match self.core.delta {
            Some(delta) => SynchronyMonitor::armed(delta, self.core.degrade),
            None => SynchronyMonitor::disarmed(),
        };
        self.core.guarded_instance.store(instance, Ordering::SeqCst);
        *self.core.monitor.lock() = Arc::clone(&fresh);
        fresh
    }

    /// The current instance's synchrony monitor.
    #[must_use]
    pub fn monitor(&self) -> Arc<SynchronyMonitor> {
        self.core.monitor()
    }

    /// Queues a round message to `dst`; the peer's supervisor assigns
    /// the wire sequence number, stamps the send time, and owns
    /// retransmission until acked.
    pub fn send(&self, dst: ProcessId, instance: u64, round: Round, payload: Vec<u8>) {
        self.core.inflight[dst.index()].fetch_add(1, Ordering::SeqCst);
        let _ = self.core.sups[dst.index()].send(SupCmd::Data {
            instance,
            round: round.get(),
            payload,
        });
    }

    /// Waits for the next delivered (deduplicated) data frame.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<SocketMsg, RecvTimeoutError> {
        self.inbox_rx.recv_timeout(timeout)
    }

    /// Broadcasts an abort of `instance` to every peer (best effort —
    /// an aborting node is halting, peers that miss the frame fall
    /// back to their round timeout).
    pub fn abort(&self, instance: u64) {
        for (j, sup) in self.core.sups.iter().enumerate() {
            if j != self.core.me.index() {
                let _ = sup.send(SupCmd::Abort { instance });
            }
        }
    }

    /// The lowest instance any peer reported aborting, if any.
    #[must_use]
    pub fn remote_abort(&self) -> Option<u64> {
        match self.core.remote_abort.load(Ordering::SeqCst) {
            NO_ABORT => None,
            k => Some(k),
        }
    }

    /// A snapshot of the transport counters.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.core.stats.snapshot()
    }

    /// Flushes the in-flight windows, then signals every thread and
    /// joins the acceptor and supervisors. Reader threads (one per
    /// inbound connection) notice the flag at their next read poll and
    /// exit on their own.
    ///
    /// The flush is the reliable-delivery tail: a node whose own
    /// rounds have closed may still hold the *last* relay some peer is
    /// waiting for, queued or unacked; exiting immediately would lose
    /// it with the process and manufacture a false suspicion at the
    /// survivor. Peers that have gone silent past [`FLUSH_STALE_CUT`]
    /// are excluded — a dead peer can never ack — and the whole flush
    /// is bounded by [`FLUSH_TIMEOUT`].
    pub fn shutdown(mut self) -> TransportStats {
        let deadline = Instant::now() + FLUSH_TIMEOUT;
        while Instant::now() < deadline {
            let blocked = (0..self.core.inflight.len()).any(|j| {
                j != self.core.me.index()
                    && self.core.inflight[j].load(Ordering::SeqCst) > 0
                    && self.core.board.staleness(ProcessId::new(j)) < FLUSH_STALE_CUT
            });
            if !blocked {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.core.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.core.stats.snapshot()
    }
}

impl Drop for SocketNet {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Sleeps `d` in small slices, returning early on shutdown.
fn sleep_interruptibly(core: &Core, d: Duration) {
    let until = Instant::now() + d;
    while !core.shutdown.load(Ordering::SeqCst) {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(25)));
    }
}

fn acceptor(core: &Arc<Core>, listener: &TcpListener) {
    while !core.shutdown.load(Ordering::SeqCst) {
        // The acceptor never blocks, so its polls double as the
        // board's running-clock ticks.
        core.board.tick();
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_POLL));
                let _ = stream.set_nonblocking(false);
                let reader_core = Arc::clone(core);
                let _ = std::thread::Builder::new()
                    .name(format!("ssp-read-{}", core.me.index()))
                    .spawn(move || reader(&reader_core, stream));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Incremental frame parser over a socket with a read timeout: partial
/// frames survive timeouts (used only to poll the shutdown flag), so a
/// slow sender is never mistaken for a corrupt one. Public so the
/// gateway's client-session readers can share the parsing discipline.
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Wraps a stream; the caller should have set a read timeout so
    /// [`next`](FrameReader::next) can poll the shutdown flag.
    #[must_use]
    pub fn new(stream: TcpStream) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Blocks until one full frame is parsed, the stream dies, or
    /// `shutdown` is raised (reported as [`TransportError::Reset`]).
    ///
    /// # Errors
    ///
    /// [`TransportError::Reset`] on EOF/shutdown/IO failure,
    /// [`TransportError::FrameCorrupt`] on an unparseable stream.
    pub fn next(&mut self, shutdown: &AtomicBool) -> Result<Frame, TransportError> {
        loop {
            if let Some((frame, used)) = Frame::split_buffered(&self.buf)? {
                self.buf.drain(..used);
                return Ok(frame);
            }
            if shutdown.load(Ordering::SeqCst) {
                return Err(TransportError::Reset);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Reset),
                Ok(got) => self.buf.extend_from_slice(&chunk[..got]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(TransportError::from_io(&e)),
            }
        }
    }
}

/// Handles one inbound connection: epoch handshake, then a frame loop
/// that marks the last-seen board, acks and dedups data, measures
/// one-way delays against Δ, and routes acks/aborts. A strictly newer
/// epoch restarts the peer's dedup set, and a connection whose epoch
/// has been superseded is dropped at its next data frame. Connection
/// death in any form simply ends the thread — the peer's supervisor
/// owns reconnection, and *nothing here touches the failure detector*.
fn reader(core: &Arc<Core>, stream: TcpStream) {
    let mut fr = FrameReader::new(stream);
    let (src, epoch) = match fr.next(&core.shutdown) {
        Ok(Frame::Hello { src, epoch }) => {
            if src.index() >= core.epochs.len() || src == core.me {
                core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let cell = &core.epochs[src.index()];
            let mut latest = cell.load(Ordering::SeqCst);
            loop {
                if epoch < latest {
                    // A predecessor incarnation: TransportError::StaleEpoch.
                    core.stats.stale_epoch_drops.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                match cell.compare_exchange(latest, epoch, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => break,
                    Err(cur) => latest = cur,
                }
            }
            if epoch > latest {
                // A successor numbers its frames from 0 again.
                *core.seen[src.index()].lock() = SeqSet::new();
            }
            (src, epoch)
        }
        Ok(_) => {
            core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(TransportError::FrameCorrupt(_)) => {
            core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(_) => return,
    };
    core.hear(src);
    loop {
        match fr.next(&core.shutdown) {
            Ok(Frame::Data {
                instance,
                round,
                seq,
                attempt: _,
                sent_micros,
                payload,
            }) => {
                if round == 0 {
                    // Rounds are one-based; a zero round is a corrupt
                    // frame that happened to parse.
                    core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // The epoch is read under the dedup lock, which a newer
                // `Hello` takes to restart the set.
                let fresh = {
                    let mut seen = core.seen[src.index()].lock();
                    (core.epochs[src.index()].load(Ordering::SeqCst) == epoch)
                        .then(|| seen.insert(seq))
                };
                let Some(fresh) = fresh else {
                    core.stats.stale_epoch_drops.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                core.hear(src);
                // Ack every copy — a lost ack cannot strand the sender.
                let _ = core.sups[src.index()].send(SupCmd::SendAck { seq });
                if !fresh {
                    core.stats.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let latency = core.delay_since(sent_micros);
                if instance == core.guarded_instance.load(Ordering::SeqCst) {
                    if let Some(delta) = core.delta {
                        if latency > delta {
                            core.stats.late_frames.fetch_add(1, Ordering::Relaxed);
                            core.monitor().record(SynchronyEvent::LateDelivery {
                                src,
                                dst: core.me,
                                latency,
                            });
                        }
                    }
                }
                core.stats.delivered.fetch_add(1, Ordering::Relaxed);
                let _ = core.inbox_tx.send(SocketMsg {
                    src,
                    instance,
                    round: Round::new(round),
                    payload,
                });
            }
            Ok(Frame::Heartbeat { sent_micros }) => {
                core.delay_since(sent_micros);
                core.hear(src);
            }
            Ok(Frame::Ack { seq }) => {
                let _ = core.sups[src.index()].send(SupCmd::Acked { seq });
            }
            Ok(Frame::Abort { instance }) => {
                core.hear(src);
                let _ = core.remote_abort.fetch_min(instance, Ordering::SeqCst);
            }
            Ok(Frame::Hello { .. }) => core.hear(src),
            Ok(
                Frame::Submit { .. }
                | Frame::ClientAck { .. }
                | Frame::Redirect { .. }
                | Frame::Busy { .. },
            ) => {
                // Client-protocol frames belong on the gateway port,
                // not the peer port: treat them as corruption.
                core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(TransportError::FrameCorrupt(_)) => {
                core.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
    }
}

/// An unacked data frame owned by a supervisor.
struct Pending {
    instance: u64,
    round: u32,
    sent_micros: u64,
    payload: Vec<u8>,
    attempt: u32,
    last_sent: Instant,
}

/// Writes one frame; `Err` means the connection must be considered
/// dead.
fn write_frame(stream: &mut TcpStream, frame: &Frame) -> Result<(), TransportError> {
    frame
        .write_to(stream)
        .map_err(|e| TransportError::from_io(&e))
}

/// A supervisor's outgoing link: the connection, plus the frames the
/// delay fault holds on it and the reset fault's data-frame count,
/// both kept across reconnects.
#[derive(Default)]
struct Link {
    stream: Option<TcpStream>,
    /// Frames waiting for their due instant, in order: a held frame
    /// holds every later frame on the link behind it.
    held: VecDeque<(Instant, Frame)>,
    data_frames: u64,
    reset_done: bool,
}

impl Link {
    /// Writes `frame` once it is `due` and every frame before it is
    /// written. `false` means the connection must be considered dead.
    fn write(&mut self, frame: Frame, due: Instant) -> bool {
        self.held.push_back((due, frame));
        self.release()
    }

    /// Writes every frame that is due, in order.
    fn release(&mut self) -> bool {
        let now = Instant::now();
        while self.held.front().is_some_and(|(due, _)| *due <= now) {
            let (_, frame) = self.held.pop_front().expect("peeked");
            let Some(stream) = self.stream.as_mut() else {
                return false;
            };
            if write_frame(stream, &frame).is_err() {
                return false;
            }
        }
        true
    }

    /// Drops the connection and what it was holding; unacked data is
    /// resent on the next one.
    fn disconnect(&mut self) {
        self.stream = None;
        self.held.clear();
    }
}

/// Writes one copy of the unacked data frame `seq` to `peer`, through
/// the node's [`SocketFaults`]: the copy may be dropped (the RTO
/// resends it), held for the fault delay (stamped before the hold, so
/// the receiver's Δ guard measures it), or trip the link's one reset.
/// `false` means the connection must be considered dead.
fn write_data(core: &Core, peer: ProcessId, link: &mut Link, seq: u64, p: &mut Pending) -> bool {
    p.last_sent = Instant::now();
    let frame = Frame::Data {
        instance: p.instance,
        round: p.round,
        seq,
        attempt: p.attempt,
        sent_micros: p.sent_micros,
        payload: p.payload.clone(),
    };
    let Some(faults) = &core.faults else {
        return link.write(frame, p.last_sent);
    };
    link.data_frames += 1;
    if faults.reset_after.is_some_and(|k| link.data_frames >= k) && !link.reset_done {
        link.reset_done = true;
        return false;
    }
    if faults.drops(core.me, peer, seq, p.attempt) {
        return true;
    }
    if faults.delays(core.me, peer, seq) {
        // The RTO runs from when the copy leaves.
        p.last_sent += faults.delay;
    }
    link.write(frame, p.last_sent)
}

/// Owns the outgoing connection to `peer`: dial + handshake +
/// backoff, sends and retransmits until acked, heartbeats, and
/// resends the unacked window after every reconnect.
#[allow(clippy::too_many_lines)]
fn supervisor(core: &Arc<Core>, peer: ProcessId, addr: &str, rx: &Receiver<SupCmd>) {
    let mut link = Link::default();
    let mut unacked: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut next_seq = 0u64;
    let mut dial_attempt = 0u32;
    let mut ever_connected = false;
    let mut last_heartbeat = Instant::now();
    while !core.shutdown.load(Ordering::SeqCst) {
        if link.stream.is_none() {
            let hello = Frame::Hello {
                src: core.me,
                epoch: core.epoch,
            };
            let Some(s) = TcpStream::connect(addr).ok().and_then(|mut s| {
                let _ = s.set_nodelay(true);
                write_frame(&mut s, &hello).is_ok().then_some(s)
            }) else {
                // TransportError::Refused (or any dial failure): back
                // off deterministically and retry.
                let wait = backoff_delay(core.seed, core.me, peer, dial_attempt);
                core.stats
                    .backoff_micros
                    .fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
                dial_attempt += 1;
                sleep_interruptibly(core, wait);
                continue;
            };
            if ever_connected {
                core.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            ever_connected = true;
            dial_attempt = 0;
            link.stream = Some(s);
            // Resend the whole unacked window: the peer dedups by seq,
            // so over-delivery is safe and under-delivery is impossible.
            for (seq, p) in &mut unacked {
                p.attempt += 1;
                core.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                if !write_data(core, peer, &mut link, *seq, p) {
                    link.disconnect();
                    break;
                }
            }
            continue;
        }
        let mut alive = match rx.recv_timeout(SUP_TICK) {
            Ok(SupCmd::Data {
                instance,
                round,
                payload,
            }) => {
                let seq = next_seq;
                next_seq += 1;
                let p = unacked.entry(seq).or_insert(Pending {
                    instance,
                    round,
                    sent_micros: unix_micros(),
                    payload,
                    attempt: 0,
                    last_sent: Instant::now(),
                });
                write_data(core, peer, &mut link, seq, p)
            }
            // The peer retransmits a data frame whose ack is lost.
            Ok(SupCmd::SendAck { seq }) => link.write(Frame::Ack { seq }, Instant::now()),
            Ok(SupCmd::Acked { seq }) => {
                if unacked.remove(&seq).is_some() {
                    core.inflight[peer.index()].fetch_sub(1, Ordering::SeqCst);
                }
                true
            }
            Ok(SupCmd::Abort { instance }) => link.write(Frame::Abort { instance }, Instant::now()),
            Err(RecvTimeoutError::Timeout) => link.release(),
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if alive && last_heartbeat.elapsed() >= core.heartbeat {
            last_heartbeat = Instant::now();
            let beat = Frame::Heartbeat {
                sent_micros: unix_micros(),
            };
            alive = link.write(beat, last_heartbeat);
        }
        for (seq, p) in &mut unacked {
            if !alive {
                break;
            }
            if p.last_sent.elapsed() >= SOCKET_RTO {
                p.attempt += 1;
                core.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                alive = write_data(core, peer, &mut link, *seq, p);
            }
        }
        if !alive {
            // TransportError::Reset: reconnect (with backoff if the
            // peer is really gone) and resend the unacked window.
            link.disconnect();
        }
    }
}

// ---------------------------------------------------------------------------
// Gateway: the client-facing acceptor
// ---------------------------------------------------------------------------

/// One client submission admitted through the gateway's bounded queue,
/// awaiting the serving layer's drain. The payload is opaque here —
/// the engine-side glue decodes it into operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewaySubmission {
    /// Client identity (stable across reconnects).
    pub client: u64,
    /// Client-chosen request number; `(client, req)` is the
    /// exactly-once identity.
    pub req: u64,
    /// Encoded operations.
    pub payload: Vec<u8>,
}

/// State shared between the gateway acceptor, its per-session reader
/// threads, and the serving layer.
#[derive(Debug)]
struct GatewayShared {
    shutdown: AtomicBool,
    /// Backpressure hint carried in `Busy` rejections.
    retry_after_ms: u32,
    busy_rejected: AtomicU64,
    redirects: AtomicU64,
    /// Ack route per client: the write half of the client's *latest*
    /// connection (a reconnect simply overwrites the entry).
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<TcpStream>>>>,
    /// The bounded admission queue; one entry per `(client, req)`.
    held: Mutex<Vec<GatewaySubmission>>,
    queue_cap: usize,
}

impl GatewayShared {
    /// Writes one frame to the client's registered session, dropping
    /// the route when the connection is dead (the client will
    /// reconnect and resubmit; dedup makes that idempotent).
    fn reply(&self, client: u64, frame: &Frame) {
        let writer = self.sessions.lock().get(&client).cloned();
        if let Some(writer) = writer {
            if write_frame(&mut writer.lock(), frame).is_err() {
                self.sessions.lock().remove(&client);
            }
        }
    }
}

/// The per-node client-facing acceptor: listens for client
/// connections, parses [`Frame::Submit`]s with the same length-prefix
/// discipline as the peer transport, applies bounded-queue
/// backpressure (typed [`Frame::Busy`] rejection, never silent drops),
/// and routes [`Frame::ClientAck`]s and [`Frame::Redirect`]s back to
/// each client's latest connection.
///
/// Every submission that fits the queue is held there until the
/// serving layer drains it at an instance boundary and admits, re-acks
/// or redirects it; a session itself answers only with `Busy`. A
/// resubmission of a request still held takes no second slot: it only
/// moves the answer's route to its session.
///
/// Admission-level dedup lives with the serving layer (it owns the
/// proposer's decided-id ledger); this type owns everything socket.
#[derive(Debug)]
pub struct GatewayListener {
    shared: Arc<GatewayShared>,
    local: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl GatewayListener {
    /// Binds `listen` and starts accepting client sessions. At most
    /// `queue_cap` submissions sit admitted-but-undrained; beyond
    /// that, clients get `Busy { retry_after }`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(listen: &str, queue_cap: usize, retry_after: Duration) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        #[allow(clippy::cast_possible_truncation)]
        let shared = Arc::new(GatewayShared {
            shutdown: AtomicBool::new(false),
            retry_after_ms: retry_after.as_millis().min(u128::from(u32::MAX)) as u32,
            busy_rejected: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            sessions: Mutex::new(BTreeMap::new()),
            held: Mutex::new(Vec::new()),
            queue_cap: queue_cap.max(1),
        });
        let acc = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("ssp-gateway".to_string())
            .spawn(move || gateway_acceptor(&acc, &listener))?;
        Ok(GatewayListener {
            shared,
            local,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Drains up to `max` queued submissions, oldest first, without
    /// blocking; a later resubmission of one of them queues anew.
    #[must_use]
    pub fn drain(&self, max: usize) -> Vec<GatewaySubmission> {
        let mut held = self.shared.held.lock();
        let take = held.len().min(max);
        held.drain(..take).collect()
    }

    /// Acks `(client, req)` as decided by consensus instance `seq` in
    /// `round`, over the client's latest session.
    pub fn ack(&self, client: u64, req: u64, seq: u64, round: u32) {
        self.shared
            .reply(client, &Frame::ClientAck { req, seq, round });
    }

    /// Redirects a drained submission toward node `group`, the node
    /// that accepts now.
    pub fn redirect(&self, client: u64, req: u64, group: u32) {
        self.shared.redirects.fetch_add(1, Ordering::Relaxed);
        self.shared.reply(client, &Frame::Redirect { req, group });
    }

    /// Socket-level admission counters (`busy_rejected`, `redirects`;
    /// `admitted`/`deduped` belong to the serving layer's glue).
    #[must_use]
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            admitted: 0,
            deduped: 0,
            busy_rejected: self.shared.busy_rejected.load(Ordering::Relaxed),
            redirects: self.shared.redirects.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, wakes every session reader, and joins the
    /// acceptor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared.sessions.lock().clear();
    }
}

impl Drop for GatewayListener {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn gateway_acceptor(shared: &Arc<GatewayShared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let session_shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("ssp-gateway-session".to_string())
                    .spawn(move || gateway_session(&session_shared, stream));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One client session: a [`FrameReader`] loop over `Submit` frames.
/// Anything other than a well-formed `Submit` ends the session — the
/// client protocol has exactly one request frame.
fn gateway_session(shared: &Arc<GatewayShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut fr = FrameReader::new(stream);
    loop {
        match fr.next(&shared.shutdown) {
            Ok(Frame::Submit {
                client,
                req,
                payload,
            }) => {
                // Latest connection wins the ack route for this
                // client: a resubmission after reconnect must be
                // answered on the new socket, not the dead one.
                shared.sessions.lock().insert(client, Arc::clone(&writer));
                {
                    let mut held = shared.held.lock();
                    if held.iter().any(|h| (h.client, h.req) == (client, req)) {
                        continue; // already held: answered on this session
                    }
                    if held.len() < shared.queue_cap {
                        held.push(GatewaySubmission {
                            client,
                            req,
                            payload,
                        });
                        continue;
                    }
                }
                shared.busy_rejected.fetch_add(1, Ordering::Relaxed);
                let busy = Frame::Busy {
                    req,
                    retry_after_ms: shared.retry_after_ms,
                };
                if write_frame(&mut writer.lock(), &busy).is_err() {
                    return;
                }
            }
            Ok(_) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn pair() -> (SocketNet, SocketNet) {
        faulty_pair(None)
    }

    /// Two nodes; node 0 applies `faults` to its frames to node 1.
    fn faulty_pair(faults: Option<SocketFaults>) -> (SocketNet, SocketNet) {
        // Bind both listeners first so the peer addresses are known.
        let a_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a_addr = a_listener.local_addr().unwrap().to_string();
        let b_addr = b_listener.local_addr().unwrap().to_string();
        drop(a_listener);
        drop(b_listener);
        let peers = vec![a_addr.clone(), b_addr.clone()];
        let mut a_cfg = SocketConfig::local(p(0), 2, a_addr, peers.clone());
        a_cfg.faults = faults;
        let a = SocketNet::spawn(a_cfg).unwrap();
        let b = SocketNet::spawn(SocketConfig::local(p(1), 2, b_addr, peers)).unwrap();
        (a, b)
    }

    #[test]
    fn injected_delay_holds_frames_for_the_scripted_duration() {
        let (a, b) = faulty_pair(Some(SocketFaults {
            seed: 7,
            delay_pm: 1000,
            delay: Duration::from_millis(300),
            drop_pm: 0,
            reset_after: None,
        }));
        let t0 = Instant::now();
        a.send(p(1), 0, Round::FIRST, vec![5]);
        let got = b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.payload, vec![5]);
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "frame arrived in {:?}, before the injected delay",
            t0.elapsed()
        );
    }

    #[test]
    fn reset_link_recovers_through_reconnect_and_retransmit() {
        let (a, b) = faulty_pair(Some(SocketFaults {
            seed: 7,
            delay_pm: 0,
            delay: Duration::ZERO,
            drop_pm: 0,
            reset_after: Some(1),
        }));
        // The first data frame trips the one-shot reset; the
        // supervisor reconnects and resends, and delivery still
        // happens exactly once.
        a.send(p(1), 0, Round::FIRST, vec![8]);
        let got = b.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(got.payload, vec![8]);
        assert!(
            b.recv_timeout(Duration::from_millis(200)).is_err(),
            "dedup must suppress the retransmitted copy"
        );
        let stats = a.stats();
        assert!(stats.reconnects >= 1, "supervisor must have reconnected");
    }

    #[test]
    fn dropped_copies_are_resent_until_one_lands() {
        let (a, b) = faulty_pair(Some(SocketFaults {
            seed: 7,
            delay_pm: 0,
            delay: Duration::ZERO,
            drop_pm: 500,
            reset_after: None,
        }));
        for r in 1..=8 {
            a.send(p(1), 0, Round::new(r), vec![r as u8]);
        }
        let mut got: Vec<u8> = (0..8)
            .map(|_| b.recv_timeout(Duration::from_secs(10)).unwrap().payload[0])
            .collect();
        got.sort_unstable();
        assert_eq!(got, (1..=8).collect::<Vec<u8>>());
        assert!(
            a.stats().retransmits > 0,
            "a drop rate of 0.5 must cost resends"
        );
    }

    /// A restarted peer numbers its frames from 0 again: its newer
    /// epoch restarts the receiver's dedup set, and a connection of the
    /// older incarnation can no longer deliver.
    #[test]
    fn a_restarted_peer_is_heard_from_its_first_frame() {
        let (a, b) = pair();
        let peers = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        // A second connection of incarnation 1, still open later.
        let mut ghost = TcpStream::connect(b.local_addr()).unwrap();
        let data = |seq, payload| Frame::Data {
            instance: 0,
            round: 1,
            seq,
            attempt: 0,
            sent_micros: unix_micros(),
            payload,
        };
        Frame::Hello {
            src: p(0),
            epoch: 1,
        }
        .write_to(&mut ghost)
        .unwrap();
        data(1000, vec![7]).write_to(&mut ghost).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(10)).unwrap().payload,
            vec![7]
        );
        for r in 1..=3 {
            a.send(p(1), 0, Round::new(r), vec![r as u8]);
            assert_eq!(
                b.recv_timeout(Duration::from_secs(10)).unwrap().payload,
                vec![r as u8]
            );
        }
        drop(a);

        let mut cfg = SocketConfig::local(p(0), 2, peers[0].clone(), peers);
        cfg.epoch = 2;
        let successor = SocketNet::spawn(cfg).unwrap();
        successor.send(p(1), 1, Round::FIRST, vec![9]);
        let got = b
            .recv_timeout(Duration::from_secs(10))
            .expect("the successor's first frame is delivered");
        assert_eq!((got.instance, got.payload), (1, vec![9]));

        data(1001, vec![66]).write_to(&mut ghost).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.stats().stale_epoch_drops == 0 {
            assert!(Instant::now() < deadline, "the stale frame was never read");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            b.recv_timeout(Duration::from_millis(100)).is_err(),
            "the predecessor's connection delivers nothing more"
        );
    }

    #[test]
    fn loopback_pair_exchanges_round_messages() {
        let (a, b) = pair();
        a.send(p(1), 0, Round::FIRST, vec![1, 2, 3]);
        let got = b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.src, p(0));
        assert_eq!(got.instance, 0);
        assert_eq!(got.round, Round::FIRST);
        assert_eq!(got.payload, vec![1, 2, 3]);
        b.send(p(0), 0, Round::FIRST, vec![9]);
        let got = a.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.src, p(1));
        assert_eq!(got.payload, vec![9]);
        let stats = a.shutdown();
        assert!(stats.delivered >= 1);
        drop(b);
    }

    /// Waits until the listener's queue yields at least one submission.
    fn drain_some(gw: &GatewayListener) -> Vec<GatewaySubmission> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = gw.drain(8);
            if !got.is_empty() {
                return got;
            }
            assert!(Instant::now() < deadline, "submission never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn gateway_holds_a_submission_until_the_node_answers_it() {
        let gw = GatewayListener::spawn("127.0.0.1:0", 4, Duration::from_millis(25)).unwrap();
        let submit = Frame::Submit {
            client: 7,
            req: 1,
            payload: vec![1],
        };
        let mut first = TcpStream::connect(gw.local_addr()).unwrap();
        submit.write_to(&mut first).unwrap();
        let held = drain_some(&gw);
        assert_eq!(
            held,
            vec![GatewaySubmission {
                client: 7,
                req: 1,
                payload: vec![1],
            }]
        );
        // Queued, so the session itself sent nothing back.
        first
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut byte = [0u8; 1];
        let quiet = first.read(&mut byte).unwrap_err().kind();
        assert!(
            matches!(quiet, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "{quiet:?}"
        );

        // The node's answer goes to the client's latest session.
        let mut second = TcpStream::connect(gw.local_addr()).unwrap();
        submit.write_to(&mut second).unwrap();
        assert_eq!(drain_some(&gw), held, "a resubmission is held too");
        gw.redirect(7, 1, 2);
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            Frame::read_from(&mut second).unwrap(),
            Frame::Redirect { req: 1, group: 2 }
        );
        assert_eq!(gw.stats().redirects, 1);
        gw.shutdown();
    }

    #[test]
    fn a_resubmitted_held_request_takes_one_slot() {
        const CAP: usize = 4;
        let gw = GatewayListener::spawn("127.0.0.1:0", CAP, Duration::from_millis(25)).unwrap();
        // Each client submits once, then resubmits five times, every
        // time over a fresh session.
        let mut sessions = Vec::new();
        for _ in 0..6 {
            for client in 0..CAP as u64 {
                let route = gw.shared.sessions.lock().get(&client).cloned();
                let mut session = TcpStream::connect(gw.local_addr()).unwrap();
                let submit = Frame::Submit {
                    client,
                    req: 1,
                    payload: vec![1],
                };
                submit.write_to(&mut session).unwrap();
                // Wait until the session's reader took the frame: the
                // client's ack route moves to the new session.
                let deadline = Instant::now() + Duration::from_secs(10);
                while gw.shared.sessions.lock().get(&client).map(Arc::as_ptr)
                    == route.as_ref().map(Arc::as_ptr)
                {
                    assert!(Instant::now() < deadline, "submission never read");
                    std::thread::sleep(Duration::from_millis(1));
                }
                sessions.push(session);
            }
        }
        assert_eq!(gw.stats().busy_rejected, 0, "resubmissions take no slot");
        let mut held = gw.drain(6 * CAP);
        held.sort_by_key(|sub| sub.client);
        let clients: Vec<u64> = held.iter().map(|sub| sub.client).collect();
        assert_eq!(clients, [0, 1, 2, 3], "one entry per request");

        // The answer goes to the latest session, and a drained request
        // is released: its next resubmission is queued again.
        gw.ack(0, 1, 9, 1);
        let latest = &mut sessions[5 * CAP];
        latest
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            Frame::read_from(latest).unwrap(),
            Frame::ClientAck {
                req: 1,
                seq: 9,
                round: 1
            }
        );
        Frame::Submit {
            client: 0,
            req: 1,
            payload: vec![1],
        }
        .write_to(latest)
        .unwrap();
        assert_eq!(drain_some(&gw).len(), 1);
        gw.shutdown();
    }

    #[test]
    fn heartbeats_keep_staleness_fresh() {
        use crate::fd::{FdModule, TimeoutFd};
        let (a, b) = pair();
        let fd = TimeoutFd::new(a.board(), Duration::from_millis(500), p(0));
        // Wait long enough that only heartbeats can be keeping b fresh.
        std::thread::sleep(Duration::from_millis(700));
        assert_eq!(
            fd.suspected_for(p(1)),
            None,
            "a heartbeating peer is never suspected"
        );
        drop(b);
        // With b gone, silence accumulates past the timeout.
        std::thread::sleep(Duration::from_millis(900));
        assert!(fd.suspected_for(p(1)).is_some(), "a dead peer is suspected");
        drop(a);
    }
}
