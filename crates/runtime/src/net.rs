//! An in-process message network with injectable delays and chaos
//! faults: a delay model of a reliable link.
//!
//! Each process owns a receiving channel; sends are routed through a
//! dedicated network thread that holds messages for a per-link delay
//! before delivery. Two delay regimes realize the paper's models:
//!
//! * **bounded** (the `SS` flavour): every delay ≤ a known bound, so
//!   timeouts can implement a perfect failure detector;
//! * **unbounded** (the `SP` flavour): finite but arbitrary — a
//!   [`LinkScript`] can hold a specific sender's messages back long
//!   enough to create real *pending* messages.
//!
//! For deterministic fault injection, a [`LinkScript`] pins the delay
//! of the *k*-th message on each directed link. Round-based drivers
//! send exactly one wire per link per round in round order, so the
//! per-link message index *is* the round index — a script is a full
//! adversarial delivery schedule for a round-model run.
//!
//! # Chaos
//!
//! A [`ChaosConfig`] adds seed-deterministic message **loss**,
//! **duplication**, and **reordering**, decided by the one fault rule
//! of [`crate::chaos`] on `(seed, link, wire sequence number,
//! attempt)`. Chaos changes when a wire lands, never whether: the
//! network runs no acknowledgement protocol of its own (the socket
//! supervisor's is the only one), it computes a reliable link's timing
//! in closed form. Loss is rolled attempt by attempt; each lost attempt
//! adds its retransmit timeout ([`RTO_INITIAL`], doubling), and the
//! final of [`MAX_SEND_ATTEMPTS`] attempts is immune, so every wire
//! lands within [`NetConfig::worst_transport_delay`]. The first attempt
//! that survives is delivered, with its reorder jitter and possibly a
//! duplicate that the receiving side suppresses. The jitter stays below
//! the RTO, so no later attempt could have landed first. Round
//! algorithms therefore keep their exactly-once-per-round wire contract
//! over lossy links.
//!
//! The network also taps the synchrony watchdog
//! ([`crate::fd::SynchronyMonitor`]): a wire scheduled or delivered
//! beyond the claimed Δ, or still undelivered at shutdown, is reported
//! as a [`SynchronyEvent`]. Scheduling-time detection is deliberate
//! harness omniscience — the fault injector knows it is violating the
//! bound the moment it assigns the delay, which lets degradation react
//! before any round is missed.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::{ProcessId, Round};

use crate::chaos::{ChaosConfig, REORDER_JITTER_MAX};
use crate::clock::{Backend, Clock, Gate, Tick};
use crate::fd::{SynchronyEvent, SynchronyMonitor};

/// Timeout before a lost attempt is retransmitted; doubles on every
/// further attempt.
pub const RTO_INITIAL: Duration = Duration::from_millis(16);

/// Maximum transmission attempts per wire. The final attempt is never
/// chaos-dropped, so every wire is delivered within
/// [`NetConfig::worst_transport_delay`] even at loss rate 1.
pub const MAX_SEND_ATTEMPTS: u32 = 3;

/// How long after the original a duplicated copy is delivered.
const DUP_OFFSET: Duration = Duration::from_micros(300);

/// How often the network thread polls for shutdown while idle.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// A deterministic delivery schedule: the delay of the `k`-th message
/// on each scripted directed link. Messages on unscripted links (or
/// beyond a link's scripted prefix) fall back to the [`NetConfig`]'s
/// random delay window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkScript {
    delays: HashMap<(usize, usize), Vec<Option<Duration>>>,
}

impl LinkScript {
    /// The empty script (everything falls back to the delay window).
    #[must_use]
    pub fn new() -> Self {
        LinkScript::default()
    }

    /// Scripts the delay of the `k`-th message (0-based) from `src` to
    /// `dst`. Unset earlier indices fall back to the delay window.
    pub fn set(&mut self, src: ProcessId, dst: ProcessId, k: usize, delay: Duration) -> &mut Self {
        let slots = self.delays.entry((src.index(), dst.index())).or_default();
        if slots.len() <= k {
            slots.resize(k + 1, None);
        }
        slots[k] = Some(delay);
        self
    }

    /// The scripted delay for the `k`-th message on `src → dst`, if any.
    #[must_use]
    pub fn delay(&self, src: ProcessId, dst: ProcessId, k: usize) -> Option<Duration> {
        self.delays
            .get(&(src.index(), dst.index()))
            .and_then(|slots| slots.get(k).copied().flatten())
    }

    /// Number of scripted entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.delays
            .values()
            .map(|slots| slots.iter().flatten().count())
            .sum()
    }

    /// Whether nothing is scripted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A message in the threaded network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetEnvelope<M> {
    /// Sending process.
    pub src: ProcessId,
    /// Destination process.
    pub dst: ProcessId,
    /// Payload.
    pub payload: M,
}

/// Network configuration: a base delay window, an optional
/// deterministic [`LinkScript`], and optional chaos faults.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Minimum link delay.
    pub min_delay: Duration,
    /// Maximum link delay (drawn uniformly in `[min, max]`).
    pub max_delay: Duration,
    /// RNG seed for reproducible delay draws and chaos decisions.
    pub seed: u64,
    script: Option<Arc<LinkScript>>,
    chaos: Option<ChaosConfig>,
}

impl NetConfig {
    /// A fast, bounded network: delays in `[0, max]`.
    #[must_use]
    pub fn bounded(max: Duration, seed: u64) -> Self {
        NetConfig {
            min_delay: Duration::ZERO,
            max_delay: max,
            seed,
            script: None,
            chaos: None,
        }
    }

    /// Installs a deterministic per-link delivery script. Scripted
    /// entries take precedence over the random window.
    #[must_use]
    pub fn with_script(mut self, script: LinkScript) -> Self {
        self.script = Some(Arc::new(script));
        self
    }

    /// Enables chaos faults (the exactly-once wire contract still
    /// holds: they only move delivery times).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The configured chaos faults, if any.
    #[must_use]
    pub fn chaos(&self) -> Option<ChaosConfig> {
        self.chaos
    }

    /// Worst-case trigger offset of the final transmission attempt:
    /// the sum of all capped-exponential retransmit timeouts.
    #[must_use]
    pub fn retransmit_budget() -> Duration {
        RTO_INITIAL * ((1 << (MAX_SEND_ATTEMPTS - 1)) - 1)
    }

    /// Worst-case submission-to-delivery latency of an in-window wire:
    /// `max_delay`, plus the retransmit budget and reorder jitter under
    /// chaos. A sensible Δ claim for the synchrony watchdog sits just
    /// above this.
    #[must_use]
    pub fn worst_transport_delay(&self) -> Duration {
        if self.chaos.is_some() {
            self.max_delay + Self::retransmit_budget() + REORDER_JITTER_MAX
        } else {
            self.max_delay
        }
    }

    fn delay_for<M, R: Rng>(&self, env: &NetEnvelope<M>, nth: usize, rng: &mut R) -> Duration {
        if let Some(script) = &self.script {
            if let Some(delay) = script.delay(env.src, env.dst, nth) {
                return delay;
            }
        }
        if self.max_delay <= self.min_delay {
            return self.min_delay;
        }
        let span = (self.max_delay - self.min_delay).as_micros() as u64;
        self.min_delay + Duration::from_micros(rng.gen_range(0..=span))
    }
}

/// Deterministic transport counters for one run, reported at network
/// shutdown and recorded in the run trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Wires submitted (one per `send`, retransmissions excluded).
    pub wires: u64,
    /// Wires delivered to an inbox (exactly once each).
    pub delivered: u64,
    /// Transmission attempts dropped by chaos loss.
    pub chaos_dropped: u64,
    /// Extra copies injected by chaos duplication.
    pub chaos_duplicated: u64,
    /// Chaos duplicates suppressed by receiver-side dedup.
    pub dup_suppressed: u64,
    /// Deliveries later than the watchdog's claimed Δ.
    pub late_deliveries: u64,
    /// Wires whose assigned delay already exceeded Δ at scheduling.
    pub slow_scheduled: u64,
    /// Wires still undelivered when the network shut down.
    pub undelivered: u64,
}

/// Internal per-wire transport state.
struct WireState<M> {
    env: NetEnvelope<M>,
    link_seq: u64,
    submitted: Tick,
    base_delay: Duration,
    delivered: bool,
}

/// A delivery of one wire's copy, the network's one event kind.
struct Scheduled {
    at: Tick,
    seq: u64,
    wire: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (at, seq).
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A handle for sending into the network.
#[derive(Debug, Clone)]
pub struct NetSender<M> {
    /// `Option` so `Drop` can disconnect the channel *before* waking
    /// the network thread: a woken thread must be able to observe the
    /// disconnection, or the virtual clock could advance through
    /// deadlines that the imminent shutdown should strand.
    submit: Option<Sender<NetEnvelope<M>>>,
    gate: Gate,
}

impl<M: Send + 'static> NetSender<M> {
    /// Sends `payload` from `src` to `dst`; delivery happens after the
    /// link's delay. Sends to finished processes are dropped silently.
    pub fn send(&self, src: ProcessId, dst: ProcessId, payload: M) {
        if let Some(submit) = &self.submit {
            let _ = submit.send(NetEnvelope { src, dst, payload });
        }
        self.gate.notify();
    }
}

impl<M> Drop for NetSender<M> {
    fn drop(&mut self) {
        self.submit = None;
        self.gate.notify();
    }
}

/// The per-process receiving end: a channel plus the wakeup gate the
/// network thread rings after each delivery.
#[derive(Debug, Clone)]
pub struct NetReceiver<M> {
    rx: Receiver<NetEnvelope<M>>,
    gate: Gate,
    clock: Clock,
}

impl<M> NetReceiver<M> {
    /// Waits for the next delivered envelope, up to `timeout` on the
    /// receiver's clock.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once the network thread is
    /// gone and the inbox drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<NetEnvelope<M>, RecvTimeoutError> {
        self.clock.recv(&self.rx, &self.gate, Some(timeout))
    }
}

/// Owns the network thread: signals shutdown and joins it on drop, so
/// no run leaks the thread or its in-flight envelopes.
#[derive(Debug)]
pub struct NetHandle {
    shutdown: Sender<()>,
    gate: Gate,
    thread: Option<std::thread::JoinHandle<NetStats>>,
}

impl NetHandle {
    /// Signals shutdown, joins the thread, and returns its transport
    /// counters. Wires still in flight are discarded but accounted as
    /// [`NetStats::undelivered`] (and reported to the watchdog when
    /// they were over-Δ).
    ///
    /// # Panics
    ///
    /// Panics if the network thread itself panicked.
    #[must_use]
    pub fn shutdown(mut self) -> NetStats {
        let _ = self.shutdown.try_send(());
        self.gate.notify();
        self.thread
            .take()
            .expect("network thread handle")
            .join()
            .expect("network thread panicked")
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = self.shutdown.try_send(());
            self.gate.notify();
            let _ = t.join();
        }
    }
}

/// Spawns the network thread on `clock`; returns one sender handle,
/// the `n` per-process receivers, and the joinable [`NetHandle`]. The
/// thread exits when every sender is dropped and all held messages are
/// delivered, or as soon as the handle signals shutdown. Over-Δ
/// scheduling, late deliveries, and shutdown-stranded wires are
/// reported to `monitor`.
#[must_use]
pub fn spawn_network_watched<M: Clone + Send + 'static>(
    n: usize,
    config: NetConfig,
    monitor: Arc<SynchronyMonitor>,
    clock: Clock,
) -> (NetSender<M>, Vec<NetReceiver<M>>, NetHandle) {
    let (submit_tx, submit_rx) = unbounded::<NetEnvelope<M>>();
    let (shutdown_tx, shutdown_rx) = bounded::<()>(1);
    let submit_gate = clock.gate();
    let mut inboxes_tx = Vec::with_capacity(n);
    let mut inboxes_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded::<NetEnvelope<M>>(4096);
        let gate = clock.gate();
        inboxes_tx.push((tx, gate.clone()));
        inboxes_rx.push(NetReceiver {
            rx,
            gate,
            clock: clock.clone(),
        });
    }
    clock.register();
    let net_clock = clock.clone();
    let net_gate = submit_gate.clone();
    let thread = std::thread::Builder::new()
        .name("ssp-net".into())
        .spawn(move || {
            let stats = net_thread(
                &config,
                &monitor,
                &net_clock,
                &net_gate,
                &submit_rx,
                &shutdown_rx,
                &inboxes_tx,
            );
            net_clock.deregister();
            stats
        })
        .expect("spawn network thread");
    (
        NetSender {
            submit: Some(submit_tx),
            gate: submit_gate.clone(),
        },
        inboxes_rx,
        NetHandle {
            shutdown: shutdown_tx,
            gate: submit_gate,
            thread: Some(thread),
        },
    )
}

/// The network thread's state: every admitted wire and the min-heap of
/// pending deliveries.
struct Scheduler<'a, M> {
    config: &'a NetConfig,
    monitor: &'a SynchronyMonitor,
    rng: StdRng,
    /// Per-link wire counters, for [`LinkScript`] indexing and the
    /// chaos decisions' sequence numbers.
    link_count: HashMap<(usize, usize), u64>,
    wires: Vec<WireState<M>>,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    stats: NetStats,
}

impl<M: Clone> Scheduler<'_, M> {
    fn push(&mut self, at: Tick, wire: usize) {
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            wire,
        });
        self.seq += 1;
    }

    /// Admits one envelope submitted at `now`: assigns its link
    /// sequence number, rolls its base delay, reports over-Δ scheduling
    /// to the watchdog, and schedules its delivery. Under chaos, each
    /// attempt that loss drops delays the next by its retransmit
    /// timeout (the final attempt is immune); the first attempt that
    /// survives lands after the base delay plus its reorder jitter, and
    /// may be duplicated.
    fn admit(&mut self, env: NetEnvelope<M>, now: Tick) {
        let (src, dst, seed) = (env.src, env.dst, self.config.seed);
        let nth = self
            .link_count
            .entry((src.index(), dst.index()))
            .or_insert(0);
        let link_seq = *nth;
        *nth += 1;
        let base_delay = self
            .config
            .delay_for(&env, link_seq as usize, &mut self.rng);
        self.stats.wires += 1;
        if self.monitor.is_armed() && base_delay > self.monitor.delta() {
            self.stats.slow_scheduled += 1;
            self.monitor.record(SynchronyEvent::SlowWireScheduled {
                src,
                dst,
                round: Round::new(link_seq as u32 + 1),
                delay: base_delay,
            });
        }
        let wire = self.wires.len();
        self.wires.push(WireState {
            env,
            link_seq,
            submitted: now,
            base_delay,
            delivered: false,
        });
        let Some(chaos) = self.config.chaos() else {
            self.push(now + base_delay, wire);
            return;
        };
        let (mut sent, mut attempt) = (now, 0);
        while attempt + 1 < MAX_SEND_ATTEMPTS && chaos.drops(seed, src, dst, link_seq, attempt) {
            self.stats.chaos_dropped += 1;
            sent = sent + RTO_INITIAL * (1 << attempt);
            attempt += 1;
        }
        let at = sent + base_delay + chaos.reorder_extra(seed, src, dst, link_seq, attempt);
        self.push(at, wire);
        if chaos.duplicates(seed, src, dst, link_seq, attempt) {
            self.stats.chaos_duplicated += 1;
            self.push(at + DUP_OFFSET, wire);
        }
    }

    /// Delivers a copy of `wire` at `at`; every copy after the first is
    /// suppressed.
    fn deliver(&mut self, at: Tick, wire: usize, inboxes: &[(Sender<NetEnvelope<M>>, Gate)]) {
        let w = &mut self.wires[wire];
        if w.delivered {
            self.stats.dup_suppressed += 1;
            return;
        }
        w.delivered = true;
        self.stats.delivered += 1;
        let latency = at.saturating_duration_since(w.submitted);
        if self.monitor.is_armed() && latency > self.monitor.delta() {
            self.stats.late_deliveries += 1;
            self.monitor.record(SynchronyEvent::LateDelivery {
                src: w.env.src,
                dst: w.env.dst,
                latency,
            });
        }
        let (inbox, inbox_gate) = &inboxes[w.env.dst.index()];
        let _ = inbox.try_send(w.env.clone());
        inbox_gate.notify();
    }

    /// The run's counters, with every wire still in flight accounted
    /// undelivered (and reported to the watchdog when over-Δ).
    fn finish(mut self) -> NetStats {
        for w in self.wires.iter().filter(|w| !w.delivered) {
            self.stats.undelivered += 1;
            if self.monitor.is_armed() && w.base_delay > self.monitor.delta() {
                self.monitor.record(SynchronyEvent::UndeliveredAtShutdown {
                    src: w.env.src,
                    dst: w.env.dst,
                    round: Round::new(w.link_seq as u32 + 1),
                });
            }
        }
        self.stats
    }
}

fn net_thread<M: Clone + Send + 'static>(
    config: &NetConfig,
    monitor: &SynchronyMonitor,
    clock: &Clock,
    gate: &Gate,
    submit_rx: &Receiver<NetEnvelope<M>>,
    shutdown_rx: &Receiver<()>,
    inboxes_tx: &[(Sender<NetEnvelope<M>>, Gate)],
) -> NetStats {
    let mut net = Scheduler {
        config,
        monitor,
        rng: StdRng::seed_from_u64(config.seed),
        link_count: HashMap::new(),
        wires: Vec::new(),
        heap: BinaryHeap::new(),
        seq: 0,
        stats: NetStats::default(),
    };
    let mut closed = false;
    loop {
        // Handle everything due.
        let now = clock.now();
        while net.heap.peek().is_some_and(|s| s.at <= now) {
            let s = net.heap.pop().expect("peeked");
            net.deliver(s.at, s.wire, inboxes_tx);
        }
        if shutdown_rx.try_recv().is_ok() {
            return net.finish();
        }
        if closed && (net.heap.is_empty() || clock.is_virtual()) {
            // Every sender gone means every worker has exited. Under
            // the virtual clock the driver's shutdown signal arrives in
            // *real* time, which the virtual timeline does not wait
            // for; advancing through leftover deadlines here would race
            // it. Stop immediately instead — stranded wires are
            // accounted undelivered, exactly as the real backend's
            // prompt shutdown leaves them.
            return net.finish();
        }
        let next_due = net
            .heap
            .peek()
            .map(|s| s.at.saturating_duration_since(clock.now()));
        if closed {
            // All senders are gone (real clock): flush remaining
            // deadlines, polling for shutdown between sleeps.
            std::thread::sleep(next_due.unwrap_or(IDLE_POLL).min(IDLE_POLL));
            continue;
        }
        let received = match clock.backend() {
            // Cap the wait at IDLE_POLL so shutdown is noticed promptly.
            Backend::Real => clock.recv(
                submit_rx,
                gate,
                Some(next_due.unwrap_or(IDLE_POLL).min(IDLE_POLL)),
            ),
            // Park until the next scheduled delivery or any gate
            // notify (a send, a sender drop, or shutdown). A bare park
            // (not `Clock::recv`) so that a notify with nothing in the
            // submit channel — the shutdown handle ringing the shared
            // gate — still brings us back around to re-check the
            // shutdown channel instead of being silently re-parked.
            Backend::Virtual => match submit_rx.try_recv() {
                Ok(env) => Ok(env),
                Err(TryRecvError::Empty) => {
                    clock.park_gate(gate, next_due);
                    Err(RecvTimeoutError::Timeout)
                }
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            },
        };
        match received {
            Ok(env) => net.admit(env, clock.now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => closed = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The network on the real clock, unwatched.
    fn spawn_network<M: Clone + Send + 'static>(
        n: usize,
        config: NetConfig,
    ) -> (NetSender<M>, Vec<NetReceiver<M>>, NetHandle) {
        spawn_network_watched(n, config, SynchronyMonitor::disarmed(), Clock::real())
    }
    use crate::fd::DegradeMode;
    use std::time::Instant;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn messages_arrive_in_link_order_with_zero_delay() {
        let (tx, rx, _net) = spawn_network::<u32>(2, NetConfig::bounded(Duration::ZERO, 1));
        for i in 0..10 {
            tx.send(p(0), p(1), i);
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(rx[1].recv_timeout(Duration::from_secs(2)).unwrap().payload);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// A network whose first wire on `p1 → p2` is held for `delay`.
    fn slow_first_wire(max: Duration, seed: u64, delay: Duration) -> NetConfig {
        let mut script = LinkScript::new();
        script.set(p(0), p(1), 0, delay);
        NetConfig::bounded(max, seed).with_script(script)
    }

    #[test]
    fn link_script_holds_messages_back() {
        let config = slow_first_wire(Duration::from_millis(1), 7, Duration::from_millis(150));
        let (tx, rx, _net) = spawn_network::<u32>(2, config);
        let t0 = Instant::now();
        tx.send(p(0), p(1), 42);
        let env = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.payload, 42);
        assert!(t0.elapsed() >= Duration::from_millis(140));
    }

    #[test]
    fn bounded_delays_respect_the_bound() {
        let bound = Duration::from_millis(20);
        let (tx, rx, _net) = spawn_network::<u32>(2, NetConfig::bounded(bound, 3));
        for i in 0..20 {
            let t0 = Instant::now();
            tx.send(p(1), p(0), i);
            let _ = rx[0].recv_timeout(Duration::from_secs(2)).unwrap();
            // generous scheduling slack on top of the bound
            assert!(t0.elapsed() < bound + Duration::from_millis(200));
        }
    }

    #[test]
    fn link_script_pins_per_message_delays() {
        // Message #0 on p1→p2 is scripted slow, #1 fast: the fast one
        // overtakes (the adversary's reordering knob, deterministic).
        let mut script = LinkScript::new();
        script.set(p(0), p(1), 0, Duration::from_millis(120));
        script.set(p(0), p(1), 1, Duration::ZERO);
        let config = NetConfig::bounded(Duration::from_millis(1), 3).with_script(script);
        let (tx, rx, _net) = spawn_network::<u32>(2, config);
        tx.send(p(0), p(1), 0);
        tx.send(p(0), p(1), 1);
        let first = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        let second = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((first.payload, second.payload), (1, 0));
    }

    #[test]
    fn link_script_lookup_and_len() {
        let mut script = LinkScript::new();
        assert!(script.is_empty());
        script.set(p(0), p(1), 2, Duration::from_millis(5));
        assert_eq!(script.delay(p(0), p(1), 2), Some(Duration::from_millis(5)));
        assert_eq!(script.delay(p(0), p(1), 0), None, "unset prefix index");
        assert_eq!(script.delay(p(1), p(0), 2), None, "unscripted link");
        assert_eq!(script.len(), 1);
    }

    #[test]
    fn network_thread_exits_after_senders_drop() {
        let (tx, _rx, net) = spawn_network::<u32>(1, NetConfig::bounded(Duration::ZERO, 1));
        drop(tx);
        let stats = net.shutdown();
        assert_eq!(stats.wires, 0);
    }

    #[test]
    fn reliable_layer_masks_heavy_loss() {
        let config = NetConfig::bounded(Duration::from_millis(1), 11).with_chaos(ChaosConfig {
            loss_pm: 300,
            dup_pm: 0,
            reorder_pm: 0,
        });
        let (tx, rx, net) = spawn_network::<u32>(2, config);
        for i in 0..40 {
            tx.send(p(0), p(1), i);
        }
        let mut got = Vec::new();
        for _ in 0..40 {
            got.push(rx[1].recv_timeout(Duration::from_secs(5)).unwrap().payload);
        }
        // Retransmitted wires may overtake later ones: exactly-once,
        // but not necessarily in order.
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        drop(tx);
        let stats = net.shutdown();
        assert_eq!(stats.wires, 40);
        assert_eq!(stats.delivered, 40);
        assert_eq!(stats.undelivered, 0);
        assert!(stats.chaos_dropped > 0, "loss 0.3 over 40 wires must fire");
    }

    #[test]
    fn duplicates_are_suppressed_exactly_once_each() {
        let config = NetConfig::bounded(Duration::from_millis(1), 5).with_chaos(ChaosConfig {
            loss_pm: 0,
            dup_pm: 1000,
            reorder_pm: 200,
        });
        let (tx, rx, net) = spawn_network::<u32>(2, config);
        for i in 0..20 {
            tx.send(p(0), p(1), i);
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(rx[1].recv_timeout(Duration::from_secs(5)).unwrap().payload);
        }
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        // Nothing further arrives: every duplicate was suppressed.
        assert!(rx[1].recv_timeout(Duration::from_millis(120)).is_err());
        drop(tx);
        let stats = net.shutdown();
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.chaos_duplicated, 20, "dup rate 1.0: one per wire");
        assert!(stats.dup_suppressed >= 20);
    }

    #[test]
    fn total_loss_still_delivers_via_the_final_attempt() {
        let config = NetConfig::bounded(Duration::from_millis(1), 9).with_chaos(ChaosConfig {
            loss_pm: 1000,
            dup_pm: 0,
            reorder_pm: 0,
        });
        let (tx, rx, net) = spawn_network::<u32>(2, config);
        tx.send(p(0), p(1), 7);
        let t0 = Instant::now();
        let env = rx[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload, 7);
        assert!(
            t0.elapsed() <= NetConfig::retransmit_budget() + Duration::from_millis(500),
            "delivery within the retransmit budget"
        );
        drop(tx);
        let stats = net.shutdown();
        assert_eq!(stats.delivered, 1);
        assert_eq!(
            stats.chaos_dropped,
            u64::from(MAX_SEND_ATTEMPTS) - 1,
            "every attempt but the immune final one was dropped"
        );
    }

    /// Submission-to-arrival time of one wire on `Clock::simulated()`,
    /// over a link with the fixed base delay `base`.
    fn simulated_arrival(base: Duration, loss_pm: u16) -> Duration {
        let mut config = NetConfig::bounded(base, 1).with_chaos(ChaosConfig {
            loss_pm,
            dup_pm: 0,
            reorder_pm: 0,
        });
        config.min_delay = base;
        let clock = Clock::simulated();
        let (tx, rx, net) =
            spawn_network_watched::<u32>(2, config, SynchronyMonitor::disarmed(), clock.clone());
        clock.register();
        let submitted = clock.now();
        tx.send(p(0), p(1), 7);
        assert_eq!(
            rx[1].recv_timeout(Duration::from_secs(5)).unwrap().payload,
            7
        );
        let landed = clock.now();
        drop(tx);
        let _ = net.shutdown();
        clock.deregister();
        landed.saturating_duration_since(submitted)
    }

    /// The timing the closed-form chaos model rests on: a wire whose
    /// every droppable attempt is lost lands exactly one retransmit
    /// budget after a loss-free one.
    #[test]
    fn lost_attempts_delay_a_wire_by_exactly_their_timeouts() {
        let base = Duration::from_millis(3);
        assert_eq!(
            simulated_arrival(base, 1000),
            RTO_INITIAL * ((1 << (MAX_SEND_ATTEMPTS - 1)) - 1) + base
        );
        assert_eq!(simulated_arrival(base, 0), base);
    }

    #[test]
    fn chaos_decisions_are_seed_deterministic() {
        // On the virtual clock: whether an in-flight duplicate lands
        // before shutdown is a timing race under the real clock, so
        // exact counter equality is only promised in simulated time.
        let run = || {
            let config = NetConfig::bounded(Duration::from_millis(1), 17).with_chaos(ChaosConfig {
                loss_pm: 250,
                dup_pm: 150,
                reorder_pm: 100,
            });
            let clock = Clock::simulated();
            let (tx, rx, net) = spawn_network_watched::<u32>(
                3,
                config,
                SynchronyMonitor::disarmed(),
                clock.clone(),
            );
            clock.register();
            for i in 0..30 {
                tx.send(p(i % 2), p(2), i as u32);
            }
            for _ in 0..30 {
                let _ = rx[2].recv_timeout(Duration::from_secs(5)).unwrap();
            }
            drop(tx);
            let stats = net.shutdown();
            clock.deregister();
            stats
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same chaos counters");
        assert!(a.chaos_dropped > 0 && a.chaos_duplicated > 0);
    }

    #[test]
    fn watchdog_sees_over_delta_scheduling_and_stranded_wires() {
        let monitor = SynchronyMonitor::armed(Duration::from_millis(50), DegradeMode::Off);
        let config = slow_first_wire(Duration::from_millis(1), 3, Duration::from_millis(400));
        let (tx, _rx, net) =
            spawn_network_watched::<u32>(2, config, Arc::clone(&monitor), Clock::real());
        tx.send(p(0), p(1), 1);
        // Give the thread a moment to process the submission, then cut
        // the run short with the wire still in flight.
        std::thread::sleep(Duration::from_millis(50));
        drop(tx);
        let t0 = Instant::now();
        let stats = net.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "shutdown does not wait out the 400ms delay"
        );
        assert_eq!(stats.slow_scheduled, 1);
        assert_eq!(stats.undelivered, 1);
        let report = monitor.report();
        assert!(report.violated);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SynchronyEvent::SlowWireScheduled { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SynchronyEvent::UndeliveredAtShutdown { .. })));
    }

    #[test]
    fn late_delivery_is_reported_when_the_wire_lands() {
        let monitor = SynchronyMonitor::armed(Duration::from_millis(30), DegradeMode::Off);
        let config = slow_first_wire(Duration::from_millis(1), 3, Duration::from_millis(80));
        let (tx, rx, _net) =
            spawn_network_watched::<u32>(2, config, Arc::clone(&monitor), Clock::real());
        tx.send(p(0), p(1), 9);
        let env = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.payload, 9);
        let report = monitor.report();
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SynchronyEvent::LateDelivery { .. })));
    }

    #[test]
    fn transport_budget_bounds_are_consistent() {
        assert_eq!(NetConfig::retransmit_budget(), Duration::from_millis(48));
        let plain = NetConfig::bounded(Duration::from_millis(2), 0);
        assert_eq!(plain.worst_transport_delay(), Duration::from_millis(2));
        let chaotic = plain.clone().with_chaos(ChaosConfig::default());
        assert!(chaotic.worst_transport_delay() > Duration::from_millis(48));
    }
}
