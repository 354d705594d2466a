//! An in-process message network with injectable delays and chaos
//! faults: a delay model of a reliable link.
//!
//! Nothing runs between a sender and its receiver. [`NetSender::send`]
//! fixes a wire's arrival time when the wire is admitted and pushes it
//! into the receiver's inbox stamped with that time; the receiver takes
//! it once its clock reaches the stamp ([`NetReceiver::recv_timeout`]),
//! in `(arrival, admission)` order. Two delay regimes realize the
//! paper's models:
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
//! duplicate, which lands after the original and so is always
//! suppressed: it only shows in [`NetStats`]. The jitter stays below
//! the RTO, so no later attempt could have landed first. Round
//! algorithms therefore keep their exactly-once-per-round wire contract
//! over lossy links.
//!
//! The network also taps the synchrony watchdog
//! ([`crate::fd::SynchronyMonitor`]): a wire scheduled or delivered
//! beyond the claimed Δ, or still in flight at [`Network::finish`], is
//! reported as a [`SynchronyEvent`]. Scheduling-time detection is
//! deliberate harness omniscience — the fault injector knows it is
//! violating the bound the moment it assigns the delay, which lets
//! degradation react before any round is missed.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::{ProcessId, Round};

use crate::chaos::{ChaosConfig, REORDER_JITTER_MAX};
use crate::clock::{Clock, Gate, Tick};
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

    fn delay_for<R: Rng>(
        &self,
        src: ProcessId,
        dst: ProcessId,
        nth: usize,
        rng: &mut R,
    ) -> Duration {
        if let Some(script) = &self.script {
            if let Some(delay) = script.delay(src, dst, nth) {
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

/// Deterministic transport counters for one run, reported by
/// [`Network::finish`] and recorded in the run trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Wires submitted (one per `send`, retransmissions excluded).
    pub wires: u64,
    /// Wires due by finish, whether or not their receiver took them
    /// (exactly once each).
    pub delivered: u64,
    /// Transmission attempts dropped by chaos loss.
    pub chaos_dropped: u64,
    /// Extra copies injected by chaos duplication.
    pub chaos_duplicated: u64,
    /// Chaos duplicates due by finish, each suppressed.
    pub dup_suppressed: u64,
    /// Deliveries later than the watchdog's claimed Δ.
    pub late_deliveries: u64,
    /// Wires whose assigned delay already exceeded Δ at scheduling.
    pub slow_scheduled: u64,
    /// Wires still in flight at finish.
    pub undelivered: u64,
}

/// One admitted wire, as [`Network::finish`] counts it.
#[derive(Debug)]
struct WireState {
    src: ProcessId,
    dst: ProcessId,
    link_seq: u64,
    submitted: Tick,
    base_delay: Duration,
    /// When the first surviving attempt lands.
    at: Tick,
    /// Whether a chaos duplicate lands [`DUP_OFFSET`] after `at`.
    duplicated: bool,
    /// Whether its receiver already reported it as a late delivery.
    reported: bool,
}

impl WireState {
    fn latency(&self) -> Duration {
        self.at.saturating_duration_since(self.submitted)
    }
}

/// A wire in its receiver's inbox, ordered for a min-heap on
/// `(at, wire)`: arrival time, then admission order.
#[derive(Debug)]
struct Arrival<M> {
    at: Tick,
    wire: usize,
    /// Whether it lands later than the watchdog's Δ.
    late: bool,
    env: NetEnvelope<M>,
}

impl<M> PartialEq for Arrival<M> {
    fn eq(&self, other: &Self) -> bool {
        self.wire == other.wire
    }
}
impl<M> Eq for Arrival<M> {}
impl<M> PartialOrd for Arrival<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Arrival<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.wire).cmp(&(self.at, self.wire))
    }
}

/// The admission state every sender shares: the delay RNG, per-link
/// counters, and every admitted wire.
#[derive(Debug)]
struct Scheduler {
    rng: StdRng,
    /// Per-link wire counters, for [`LinkScript`] indexing and the
    /// chaos decisions' sequence numbers.
    link_count: HashMap<(usize, usize), u64>,
    wires: Vec<WireState>,
    /// The counters fixed at admission.
    stats: NetStats,
}

#[derive(Debug)]
struct Shared {
    config: NetConfig,
    monitor: Arc<SynchronyMonitor>,
    clock: Clock,
    scheduler: Mutex<Scheduler>,
}

impl Shared {
    /// Admits one wire submitted now: assigns its link sequence number,
    /// rolls its base delay, reports over-Δ scheduling to the watchdog,
    /// and fixes its arrival. Under chaos, each attempt that loss drops
    /// delays the next by its retransmit timeout (the final attempt is
    /// immune); the first attempt that survives lands after the base
    /// delay plus its reorder jitter, and may be duplicated.
    fn admit<M>(&self, s: &mut Scheduler, env: NetEnvelope<M>) -> Arrival<M> {
        let (config, seed) = (&self.config, self.config.seed);
        let (src, dst) = (env.src, env.dst);
        let now = self.clock.now();
        let nth = s.link_count.entry((src.index(), dst.index())).or_insert(0);
        let link_seq = *nth;
        *nth += 1;
        let base_delay = config.delay_for(src, dst, link_seq as usize, &mut s.rng);
        s.stats.wires += 1;
        if self.over_delta(base_delay) {
            s.stats.slow_scheduled += 1;
            self.monitor.record(SynchronyEvent::SlowWireScheduled {
                src,
                dst,
                round: Round::new(link_seq as u32 + 1),
                delay: base_delay,
            });
        }
        let (mut at, mut duplicated) = (now + base_delay, false);
        if let Some(chaos) = config.chaos() {
            let (mut sent, mut attempt) = (now, 0);
            while attempt + 1 < MAX_SEND_ATTEMPTS && chaos.drops(seed, src, dst, link_seq, attempt)
            {
                s.stats.chaos_dropped += 1;
                sent = sent + RTO_INITIAL * (1 << attempt);
                attempt += 1;
            }
            at = sent + base_delay + chaos.reorder_extra(seed, src, dst, link_seq, attempt);
            duplicated = chaos.duplicates(seed, src, dst, link_seq, attempt);
            s.stats.chaos_duplicated += u64::from(duplicated);
        }
        s.wires.push(WireState {
            src,
            dst,
            link_seq,
            submitted: now,
            base_delay,
            at,
            duplicated,
            reported: false,
        });
        Arrival {
            at,
            wire: s.wires.len() - 1,
            late: self.over_delta(at.saturating_duration_since(now)),
            env,
        }
    }

    fn over_delta(&self, latency: Duration) -> bool {
        self.monitor.is_armed() && latency > self.monitor.delta()
    }

    fn report_late(&self, w: &mut WireState) {
        w.reported = true;
        self.monitor.record(SynchronyEvent::LateDelivery {
            src: w.src,
            dst: w.dst,
            latency: w.latency(),
        });
    }
}

/// A handle for sending into the network.
#[derive(Debug, Clone)]
pub struct NetSender<M> {
    shared: Arc<Shared>,
    inboxes: Arc<[(Sender<Arrival<M>>, Gate)]>,
}

impl<M> NetSender<M> {
    /// Sends `payload` from `src` to `dst`; it arrives after the link's
    /// delay. Sends to finished processes are dropped silently.
    pub fn send(&self, src: ProcessId, dst: ProcessId, payload: M) {
        let (inbox, gate) = &self.inboxes[dst.index()];
        {
            // Pushing under the admission lock keeps every inbox in
            // admission order, so a receiver that has drained its
            // channel has seen every wire that could land first.
            let mut s = self.shared.scheduler.lock();
            let _ = inbox.send(self.shared.admit(&mut s, NetEnvelope { src, dst, payload }));
        }
        gate.notify();
    }
}

/// The per-process receiving end: the wires sent to this process, taken
/// in arrival order once each arrival time has come.
#[derive(Debug)]
pub struct NetReceiver<M> {
    rx: Receiver<Arrival<M>>,
    gate: Gate,
    shared: Arc<Shared>,
    /// Wires already moved off the channel and not yet taken.
    inbox: BinaryHeap<Arrival<M>>,
}

impl<M> NetReceiver<M> {
    /// Takes the next wire whose arrival time has come, waiting up to
    /// `timeout` on the receiver's clock.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once every sender is gone and
    /// every wire taken.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<NetEnvelope<M>, RecvTimeoutError> {
        let clock = &self.shared.clock;
        let deadline = clock.now() + timeout;
        loop {
            while let Ok(arrival) = self.rx.try_recv() {
                self.inbox.push(arrival);
            }
            let now = clock.now();
            let next = self.inbox.peek().map(|a| a.at);
            if next.is_some_and(|at| at <= now) {
                let arrival = self.inbox.pop().expect("peeked");
                if arrival.late {
                    let mut s = self.shared.scheduler.lock();
                    self.shared.report_late(&mut s.wires[arrival.wire]);
                }
                return Ok(arrival.env);
            }
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let wait = next.map_or(deadline, |at| at.min(deadline));
            let wait = wait.saturating_duration_since(now);
            match clock.recv(&self.rx, &self.gate, wait) {
                Ok(arrival) => self.inbox.push(arrival),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) if next.is_none() => {
                    return Err(RecvTimeoutError::Disconnected)
                }
                // Every sender is gone but a wire is still in flight:
                // wait for it without spinning on the closed channel.
                Err(RecvTimeoutError::Disconnected) => clock.sleep(wait),
            }
        }
    }
}

/// The network's accounting end: [`Network::finish`] reports the run's
/// counters.
#[derive(Debug)]
pub struct Network {
    shared: Arc<Shared>,
}

impl Network {
    /// The run's transport counters at the current time on its clock,
    /// in closed form: a wire due by now counts delivered (and late,
    /// when over Δ) whether or not its receiver took it; any other is
    /// undelivered, and reported to the watchdog when its delay was
    /// over Δ. Late deliveries no receiver took are reported here.
    #[must_use]
    pub fn finish(self) -> NetStats {
        let now = self.shared.clock.now();
        let mut s = self.shared.scheduler.lock();
        let mut stats = s.stats;
        for w in &mut s.wires {
            if w.at > now {
                stats.undelivered += 1;
                if self.shared.over_delta(w.base_delay) {
                    self.shared
                        .monitor
                        .record(SynchronyEvent::UndeliveredAtShutdown {
                            src: w.src,
                            dst: w.dst,
                            round: Round::new(w.link_seq as u32 + 1),
                        });
                }
                continue;
            }
            stats.delivered += 1;
            stats.dup_suppressed += u64::from(w.duplicated && w.at + DUP_OFFSET <= now);
            if self.shared.over_delta(w.latency()) {
                stats.late_deliveries += 1;
                if !w.reported {
                    self.shared.report_late(w);
                }
            }
        }
        stats
    }
}

/// Builds the network on `clock`: one sender handle, the `n`
/// per-process receivers, and the [`Network`] that reports the run's
/// counters. It starts no thread: a wire's arrival is fixed when it is
/// sent. Over-Δ scheduling, late deliveries, and wires still in flight
/// at finish are reported to `monitor`.
#[must_use]
pub fn network<M>(
    n: usize,
    config: NetConfig,
    monitor: Arc<SynchronyMonitor>,
    clock: Clock,
) -> (NetSender<M>, Vec<NetReceiver<M>>, Network) {
    let shared = Arc::new(Shared {
        scheduler: Mutex::new(Scheduler {
            rng: StdRng::seed_from_u64(config.seed),
            link_count: HashMap::new(),
            wires: Vec::new(),
            stats: NetStats::default(),
        }),
        config,
        monitor,
        clock,
    });
    let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n)
        .map(|_| {
            let (tx, rx) = unbounded();
            let gate = shared.clock.gate();
            let receiver = NetReceiver {
                rx,
                gate: gate.clone(),
                shared: Arc::clone(&shared),
                inbox: BinaryHeap::new(),
            };
            ((tx, gate), receiver)
        })
        .unzip();
    let sender = NetSender {
        shared: Arc::clone(&shared),
        inboxes: Arc::from(inboxes),
    };
    (sender, receivers, Network { shared })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The network on the real clock, unwatched.
    fn real_network<M>(
        n: usize,
        config: NetConfig,
    ) -> (NetSender<M>, Vec<NetReceiver<M>>, Network) {
        network(n, config, SynchronyMonitor::disarmed(), Clock::real())
    }
    use crate::fd::DegradeMode;
    use std::time::Instant;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn messages_arrive_in_link_order_with_zero_delay() {
        let (tx, mut rx, _net) = real_network::<u32>(2, NetConfig::bounded(Duration::ZERO, 1));
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
        let (tx, mut rx, _net) = real_network::<u32>(2, config);
        let t0 = Instant::now();
        tx.send(p(0), p(1), 42);
        let env = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.payload, 42);
        assert!(t0.elapsed() >= Duration::from_millis(140));
    }

    #[test]
    fn bounded_delays_respect_the_bound() {
        let bound = Duration::from_millis(20);
        let (tx, mut rx, _net) = real_network::<u32>(2, NetConfig::bounded(bound, 3));
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
        let (tx, mut rx, _net) = real_network::<u32>(2, config);
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
    fn reliable_layer_masks_heavy_loss() {
        let config = NetConfig::bounded(Duration::from_millis(1), 11).with_chaos(ChaosConfig {
            loss_pm: 300,
            dup_pm: 0,
            reorder_pm: 0,
        });
        let (tx, mut rx, net) = real_network::<u32>(2, config);
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
        let stats = net.finish();
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
        let (tx, mut rx, net) = real_network::<u32>(2, config);
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
        let stats = net.finish();
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
        let (tx, mut rx, net) = real_network::<u32>(2, config);
        tx.send(p(0), p(1), 7);
        let t0 = Instant::now();
        let env = rx[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload, 7);
        assert!(
            t0.elapsed() <= NetConfig::retransmit_budget() + Duration::from_millis(500),
            "delivery within the retransmit budget"
        );
        drop(tx);
        let stats = net.finish();
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
        let (tx, mut rx, net) =
            network::<u32>(2, config, SynchronyMonitor::disarmed(), clock.clone());
        clock.register();
        let submitted = clock.now();
        tx.send(p(0), p(1), 7);
        assert_eq!(
            rx[1].recv_timeout(Duration::from_secs(5)).unwrap().payload,
            7
        );
        let landed = clock.now();
        drop(tx);
        let _ = net.finish();
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

    /// With every sender gone, a receiver still takes the wire in
    /// flight at its arrival time, then reports the disconnection.
    #[test]
    fn a_closed_network_still_delivers_what_is_in_flight() {
        let clock = Clock::simulated();
        let config = slow_first_wire(Duration::from_millis(1), 1, Duration::from_millis(50));
        let (tx, mut rx, _net) =
            network::<u32>(2, config, SynchronyMonitor::disarmed(), clock.clone());
        clock.register();
        tx.send(p(0), p(1), 7);
        drop(tx);
        let env = rx[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.payload, 7);
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_millis(50));
        let closed = rx[1].recv_timeout(Duration::from_secs(1)).unwrap_err();
        assert_eq!(closed, RecvTimeoutError::Disconnected);
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_millis(50));
        clock.deregister();
    }

    /// The counters one run reports when `finish` is called after
    /// `wait` of simulated time, with every wire sent at time zero on
    /// `p1 → p2` and never read.
    fn stats_after(
        config: NetConfig,
        monitor: Arc<SynchronyMonitor>,
        wires: u32,
        wait: Duration,
    ) -> NetStats {
        let clock = Clock::simulated();
        let (tx, _rx, net) = network::<u32>(2, config, monitor, clock.clone());
        clock.register();
        for i in 0..wires {
            tx.send(p(0), p(1), i);
        }
        clock.sleep(wait);
        drop(tx);
        let stats = net.finish();
        clock.deregister();
        stats
    }

    /// What each `NetStats` counter means at finish: a copy counts once
    /// it is due, whether or not its receiver took it.
    #[test]
    fn stats_count_every_copy_due_by_finish() {
        let ms = Duration::from_millis;
        // Due before finish: delivered, though nobody read it.
        let mut script = LinkScript::new();
        script.set(p(0), p(1), 0, ms(5));
        let config = NetConfig::bounded(ms(1), 1).with_script(script);
        let stats = stats_after(config, SynchronyMonitor::disarmed(), 1, ms(10));
        assert_eq!((stats.delivered, stats.undelivered), (1, 0));

        // In flight at finish: undelivered, and reported only when its
        // delay is over Δ.
        let monitor = SynchronyMonitor::armed(ms(50), DegradeMode::Off);
        let mut script = LinkScript::new();
        script.set(p(0), p(1), 0, ms(30));
        script.set(p(0), p(1), 1, ms(400));
        let config = NetConfig::bounded(ms(1), 1).with_script(script);
        let stats = stats_after(config, Arc::clone(&monitor), 2, ms(10));
        assert_eq!((stats.delivered, stats.undelivered), (0, 2));
        assert_eq!(stats.slow_scheduled, 1);
        let stranded = monitor
            .report()
            .events
            .iter()
            .filter(|e| matches!(e, SynchronyEvent::UndeliveredAtShutdown { .. }))
            .count();
        assert_eq!(stranded, 1, "only the over-Δ wire is reported");

        // A chaos duplicate lands `DUP_OFFSET` after the original: it is
        // suppressed once it is due, and not before.
        let base = ms(3);
        let mut config = NetConfig::bounded(base, 1).with_chaos(ChaosConfig {
            loss_pm: 0,
            dup_pm: 1000,
            reorder_pm: 0,
        });
        config.min_delay = base;
        let before = stats_after(config.clone(), SynchronyMonitor::disarmed(), 1, base);
        let after = stats_after(config, SynchronyMonitor::disarmed(), 1, base + DUP_OFFSET);
        for stats in [before, after] {
            assert_eq!((stats.delivered, stats.chaos_duplicated), (1, 1));
        }
        assert_eq!((before.dup_suppressed, after.dup_suppressed), (0, 1));
    }

    #[test]
    fn chaos_decisions_are_seed_deterministic() {
        // On the virtual clock: whether an in-flight duplicate lands
        // before finish is a timing race under the real clock, so
        // exact counter equality is only promised in simulated time.
        let run = || {
            let config = NetConfig::bounded(Duration::from_millis(1), 17).with_chaos(ChaosConfig {
                loss_pm: 250,
                dup_pm: 150,
                reorder_pm: 100,
            });
            let clock = Clock::simulated();
            let (tx, mut rx, net) =
                network::<u32>(3, config, SynchronyMonitor::disarmed(), clock.clone());
            clock.register();
            for i in 0..30 {
                tx.send(p(i % 2), p(2), i as u32);
            }
            for _ in 0..30 {
                let _ = rx[2].recv_timeout(Duration::from_secs(5)).unwrap();
            }
            drop(tx);
            let stats = net.finish();
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
        let (tx, _rx, net) = network::<u32>(2, config, Arc::clone(&monitor), Clock::real());
        tx.send(p(0), p(1), 1);
        // Cut the run short with the wire still in flight.
        drop(tx);
        let t0 = Instant::now();
        let stats = net.finish();
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "finish does not wait out the 400ms delay"
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
        let (tx, mut rx, _net) = network::<u32>(2, config, Arc::clone(&monitor), Clock::real());
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
