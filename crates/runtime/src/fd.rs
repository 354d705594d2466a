//! Failure detection for the threaded runtime.
//!
//! Two implementations of the perfect detector `P`, mirroring the two
//! models:
//!
//! * [`TimeoutFd`] — the `SS` way (§3): every live process refreshes
//!   its mark on a [`HeartbeatBoard`] (its own beats in-process, its
//!   frames over sockets); an observer suspects a peer whose mark is
//!   staler than the timeout. Perfect *given* the bounded-delay
//!   assumption (timeout > max scheduling + heartbeat gap) — exactly
//!   the synchrony premise of `SS`.
//! * [`OracleFd`] — the `SP` way: crashes are reported to an oracle,
//!   which notifies each observer after a finite but arbitrary,
//!   per-observer delay. Never wrong, always eventually complete, and
//!   completely silent about in-flight messages — which is why `SP`
//!   rounds are only *weakly* synchronous.
//!
//! Both detectors are *perfect only while the synchrony premise
//! holds*. The [`SynchronyMonitor`] is the runtime's watchdog for that
//! premise: the network and driver report bound violations (a wire
//! scheduled or delivered beyond the claimed Δ, a live process
//! suspected) and the monitor drives the degradation state machine —
//! keep going unsoundly ([`DegradeMode::Off`], the run is *flagged*),
//! downgrade the round discipline to `RWS` ([`DegradeMode::Rws`]), or
//! abort the run ([`DegradeMode::Abort`]). The [`CrashLedger`] is the
//! harness's ground truth of who actually crashed, which is what lets
//! the watchdog tell a detector *mistake* (suspecting the live) apart
//! from ordinary crash detection.

use core::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::{ProcessId, Round};

use crate::clock::{Clock, Tick};

/// A failure-detector module handle, as seen by one observer.
pub trait FdModule: Send {
    /// How long `p` has been suspected, or `None` while it is trusted.
    /// The `RS` drain is anchored at the suspicion: a round may close
    /// without `p`'s wire once this reaches the drain.
    fn suspected_for(&self, p: ProcessId) -> Option<Duration>;
}

/// The board behind [`TimeoutFd`]: when each process was last heard
/// from, on a [`Clock`]. A worker's own beats mark it in-process; over
/// sockets only frame arrivals do, never connection state, so suspicion
/// arises only from the timeout elapsing without traffic (§3).
/// [`silence`](HeartbeatBoard::silence) announces an in-process crash.
///
/// Once some thread calls [`tick`](HeartbeatBoard::tick) (the socket
/// acceptor does, every few milliseconds), silence is measured on the
/// observer's *running* clock: time past the latest tick by more than
/// [`STALL_SLACK`] does not count until the next tick. A stopped
/// observer (`SIGSTOP`, a long preemption) could not hear its peers, so
/// its stall makes no one look silent. [`mark`](HeartbeatBoard::mark)
/// and [`staleness`](HeartbeatBoard::staleness) take no lock of their
/// own: virtual-clock workers call them on every poll.
#[derive(Debug)]
pub struct HeartbeatBoard {
    clock: Clock,
    /// Last mark per process, microseconds on the running clock, with
    /// [`SILENT`] set after a crash announcement (then its time). Zero
    /// gives every process a full timeout of startup grace.
    marks: Vec<AtomicU64>,
    /// The clock's microseconds at the latest tick ([`NEVER_TICKED`],
    /// [`TICKING`] while a tick updates `stalled`).
    last_tick: AtomicU64,
    /// Total stalled microseconds, excluded from the running clock.
    stalled: AtomicU64,
}

/// Longest gap between two [`HeartbeatBoard::tick`]s that still counts
/// as running time in full.
pub const STALL_SLACK: Duration = Duration::from_millis(50);

const SILENT: u64 = 1 << 63;
const NEVER_TICKED: u64 = u64::MAX;
const TICKING: u64 = u64::MAX - 1;

impl HeartbeatBoard {
    /// A board for `n` processes, all marked at `clock`'s epoch.
    #[must_use]
    pub fn new(n: usize, clock: Clock) -> Arc<Self> {
        Arc::new(HeartbeatBoard {
            clock,
            marks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            last_tick: AtomicU64::new(NEVER_TICKED),
            stalled: AtomicU64::new(0),
        })
    }

    /// The running clock: the board's clock minus known stalls, and
    /// frozen at [`STALL_SLACK`] past the latest tick. `last_tick`
    /// doubles as the sequence number of a seqlock: a read that sees
    /// it change (or mid-update) retries, so a tick and its stall are
    /// never combined half-done.
    fn now_micros(&self) -> u64 {
        loop {
            let tick = self.last_tick.load(Ordering::Acquire);
            if tick == TICKING {
                std::hint::spin_loop();
                continue;
            }
            let stalled = self.stalled.load(Ordering::Acquire);
            let now = self.clock.now().as_micros();
            if self.last_tick.load(Ordering::Acquire) != tick {
                continue;
            }
            let slack = STALL_SLACK.as_micros() as u64;
            let now = if tick == NEVER_TICKED {
                now
            } else {
                now.min(tick + slack)
            };
            return now.saturating_sub(stalled);
        }
    }

    /// Shows the observer running. A gap since the previous tick longer
    /// than [`STALL_SLACK`] was a stall: its excess is excluded from
    /// every process's staleness. Concurrent ticks collapse into one.
    pub fn tick(&self) {
        let prev = self.last_tick.load(Ordering::Acquire);
        if prev == TICKING
            || self
                .last_tick
                .compare_exchange(prev, TICKING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return;
        }
        let now = self.clock.now().as_micros();
        if prev != NEVER_TICKED {
            let slack = STALL_SLACK.as_micros() as u64;
            let stall = now.saturating_sub(prev).saturating_sub(slack);
            self.stalled.fetch_add(stall, Ordering::AcqRel);
        }
        self.last_tick.store(now, Ordering::Release);
    }

    /// Records that `p` was just heard from: its own beat in-process, a
    /// frame from it over sockets. Ignored once `p` is silenced.
    pub fn mark(&self, p: ProcessId) {
        let now = self.now_micros();
        let _ = self.marks[p.index()].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
            (m & SILENT == 0).then_some(now)
        });
    }

    /// Announces `p`'s crash: it is suspected from now on, and the
    /// drain runs from this instant.
    pub fn silence(&self, p: ProcessId) {
        self.marks[p.index()].store(self.now_micros() | SILENT, Ordering::Relaxed);
    }

    /// How long `p` has been silent on the running clock (since its
    /// crash announcement, once silenced).
    #[must_use]
    pub fn staleness(&self, p: ProcessId) -> Duration {
        self.quiet(p).0
    }

    /// [`staleness`](Self::staleness), and whether `p` is silenced.
    fn quiet(&self, p: ProcessId) -> (Duration, bool) {
        let mark = self.marks[p.index()].load(Ordering::Relaxed);
        let since = self.now_micros().saturating_sub(mark & !SILENT);
        (Duration::from_micros(since), mark & SILENT != 0)
    }
}

/// Timeout-based perfect failure detection over a [`HeartbeatBoard`]:
/// the `SS` detector (§3) of both the threaded runtime and the socket
/// transport. Suspects exactly the processes silenced or unheard from
/// for longer than the timeout; perfect given the synchrony premise
/// (beat interval + one-way delay + scheduling jitter all inside the
/// timeout), which is what the [`SynchronyMonitor`] guards.
#[derive(Debug, Clone)]
pub struct TimeoutFd {
    board: Arc<HeartbeatBoard>,
    timeout: Duration,
    me: ProcessId,
}

impl TimeoutFd {
    /// Creates the module for observer `me` with the given timeout.
    ///
    /// The timeout must exceed the worst-case heartbeat gap (beat
    /// interval + scheduling jitter) for the detector to be accurate —
    /// this is the `SS` synchrony assumption in wall-clock form.
    #[must_use]
    pub fn new(board: Arc<HeartbeatBoard>, timeout: Duration, me: ProcessId) -> Self {
        TimeoutFd { board, timeout, me }
    }
}

impl FdModule for TimeoutFd {
    /// Since the crash announcement for a silenced `p`, else `p`'s
    /// silence beyond the timeout; `None` for `me`. Suspicion of a live
    /// process is not sticky — a mark resets it, so a process suspected
    /// again starts from zero.
    fn suspected_for(&self, p: ProcessId) -> Option<Duration> {
        if p == self.me {
            return None;
        }
        let (quiet, silenced) = self.board.quiet(p);
        if silenced {
            Some(quiet)
        } else {
            (quiet > self.timeout).then(|| quiet - self.timeout)
        }
    }
}

/// Shared state of the crash oracle.
#[derive(Debug, Default)]
struct OracleState {
    /// For each crashed process: when each observer learns of it.
    notifications: Vec<(ProcessId, Vec<Tick>)>,
}

/// The crash oracle backing [`OracleFd`] modules.
#[derive(Debug)]
pub struct Oracle {
    n: usize,
    clock: Clock,
    state: Mutex<OracleState>,
    min_notify: Duration,
    max_notify: Duration,
    seed: AtomicU64,
    /// Scripted notification delays, `script[crasher][observer]`.
    /// When present, `report_crash` uses these instead of random draws
    /// — the fault-injection plane's deterministic suspicion timing.
    script: Option<Vec<Vec<Duration>>>,
}

impl Oracle {
    /// Creates an oracle whose per-observer notification delays are
    /// drawn uniformly from `[min_notify, max_notify]` on `clock`.
    #[must_use]
    pub fn new(
        n: usize,
        min_notify: Duration,
        max_notify: Duration,
        seed: u64,
        clock: Clock,
    ) -> Arc<Self> {
        Arc::new(Oracle {
            n,
            clock,
            state: Mutex::new(OracleState::default()),
            min_notify,
            max_notify,
            seed: AtomicU64::new(seed),
            script: None,
        })
    }

    /// Creates an oracle with a fully scripted notification matrix:
    /// when process `p` crashes, observer `q` learns of it exactly
    /// `script[p][q]` after the report. Used by the fault-injection
    /// plane to make `SP` suspicion timing seed-deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the script is not an `n × n` matrix.
    #[must_use]
    pub fn scripted(n: usize, script: Vec<Vec<Duration>>, clock: Clock) -> Arc<Self> {
        assert_eq!(script.len(), n, "one script row per crasher");
        assert!(
            script.iter().all(|row| row.len() == n),
            "one delay per observer"
        );
        Arc::new(Oracle {
            n,
            clock,
            state: Mutex::new(OracleState::default()),
            min_notify: Duration::ZERO,
            max_notify: Duration::ZERO,
            seed: AtomicU64::new(0),
            script: Some(script),
        })
    }

    /// Reports that `p` has crashed; observers will start suspecting it
    /// after their individual delays.
    pub fn report_crash(&self, p: ProcessId) {
        let now = self.clock.now();
        let delays: Vec<Tick> = if let Some(script) = &self.script {
            script[p.index()].iter().map(|d| now + *d).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(self.seed.fetch_add(1, Ordering::Relaxed));
            let span = self.max_notify.saturating_sub(self.min_notify).as_micros() as u64;
            (0..self.n)
                .map(|_| {
                    let extra = if span == 0 {
                        0
                    } else {
                        rng.gen_range(0..=span)
                    };
                    now + self.min_notify + Duration::from_micros(extra)
                })
                .collect()
        };
        self.state.lock().notifications.push((p, delays));
    }

    /// The module handle for observer `me`.
    #[must_use]
    pub fn module(self: &Arc<Self>, me: ProcessId) -> OracleFd {
        OracleFd {
            oracle: Arc::clone(self),
            me,
        }
    }
}

/// Oracle-backed perfect failure detection (the `SP` flavour).
#[derive(Debug, Clone)]
pub struct OracleFd {
    oracle: Arc<Oracle>,
    me: ProcessId,
}

impl FdModule for OracleFd {
    /// Since this observer was notified of `p`'s crash.
    fn suspected_for(&self, p: ProcessId) -> Option<Duration> {
        let now = self.oracle.clock.now();
        let state = self.oracle.state.lock();
        state
            .notifications
            .iter()
            .filter(|(crashed, _)| *crashed == p)
            .map(|(_, delays)| delays[self.me.index()])
            .filter(|&at| at <= now)
            .min()
            .map(|at| now.saturating_duration_since(at))
    }
}

/// Ground truth about crashes, maintained by the harness itself (a
/// process marks itself just before going silent). Detectors never
/// read it — it exists so the watchdog can classify a suspicion of a
/// *live* process as a detector mistake rather than a crash.
#[derive(Debug)]
pub struct CrashLedger {
    crashed: Vec<AtomicBool>,
}

impl CrashLedger {
    /// A ledger for `n` processes, all alive.
    #[must_use]
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(CrashLedger {
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Records that `p` has actually crashed.
    pub fn mark(&self, p: ProcessId) {
        self.crashed[p.index()].store(true, Ordering::SeqCst);
    }

    /// Whether `p` has actually crashed.
    #[must_use]
    pub fn crashed(&self, p: ProcessId) -> bool {
        self.crashed[p.index()].load(Ordering::SeqCst)
    }
}

/// What an `RS` run does when the watchdog catches a synchrony-bound
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Keep running under `RS` rules. The run is *flagged* — its
    /// verdict is a `SynchronyViolation`, never an `RS` certificate —
    /// but the anomaly (e.g. the §5.3 disagreement) is left to unfold.
    #[default]
    Off,
    /// Downgrade the round discipline to `RWS` (close on suspicion
    /// alone; in-flight messages become pending). The paper's Δ no
    /// longer holds, so the `SS → RS` construction of §3 is forfeit,
    /// but `RWS` — which never relied on Δ — still is realized.
    Rws,
    /// Stop every process immediately; the run ends undecided with an
    /// aborted verdict.
    Abort,
}

impl fmt::Display for DegradeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeMode::Off => write!(f, "off"),
            DegradeMode::Rws => write!(f, "rws"),
            DegradeMode::Abort => write!(f, "abort"),
        }
    }
}

/// A synchrony-bound violation (or detector mistake) observed at
/// runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynchronyEvent {
    /// The network assigned a wire a delay beyond the claimed Δ — the
    /// injector itself is violating the bound. Detected at scheduling
    /// time (harness omniscience: the fault plane knows its own
    /// delays), so degradation can react before the wire is missed.
    SlowWireScheduled {
        /// Sender.
        src: ProcessId,
        /// Receiver.
        dst: ProcessId,
        /// Round carried by the wire (per-link wire index + 1).
        round: Round,
        /// The assigned delay.
        delay: Duration,
    },
    /// A wire was delivered later than the claimed Δ after submission.
    LateDelivery {
        /// Sender.
        src: ProcessId,
        /// Receiver.
        dst: ProcessId,
        /// Observed submission-to-delivery latency.
        latency: Duration,
    },
    /// A wire with an over-Δ delay was still undelivered when the
    /// network shut down (it was pending for the whole run).
    UndeliveredAtShutdown {
        /// Sender.
        src: ProcessId,
        /// Receiver.
        dst: ProcessId,
        /// Round carried by the wire.
        round: Round,
    },
    /// An observer's detector suspected a process the ledger says is
    /// alive — the detector made a *mistake*, which a perfect detector
    /// never does while the bounds hold (§3).
    DetectorMistake {
        /// The observer whose detector erred.
        observer: ProcessId,
        /// The live process it suspected.
        suspect: ProcessId,
        /// The round in which the mistake was acted on.
        round: Round,
    },
    /// A message arrived after its round had closed at the receiver
    /// while the run was (still) claiming `RS` — round synchrony was
    /// already broken when the round closed.
    PendingUnderRs {
        /// Sender.
        src: ProcessId,
        /// Receiver.
        dst: ProcessId,
        /// The round the late wire belonged to.
        wire_round: Round,
        /// The receiver's round when it arrived.
        observed_in: Round,
    },
}

impl SynchronyEvent {
    /// The round this violation first affects (used as the degradation
    /// round when the event triggers a downgrade).
    #[must_use]
    pub fn round(&self) -> Round {
        match self {
            SynchronyEvent::SlowWireScheduled { round, .. }
            | SynchronyEvent::UndeliveredAtShutdown { round, .. }
            | SynchronyEvent::DetectorMistake { round, .. } => *round,
            SynchronyEvent::LateDelivery { .. } => Round::FIRST,
            SynchronyEvent::PendingUnderRs { wire_round, .. } => *wire_round,
        }
    }
}

impl fmt::Display for SynchronyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynchronyEvent::SlowWireScheduled {
                src,
                dst,
                round,
                delay,
            } => write!(
                f,
                "wire {src}→{dst}@{round} scheduled with delay {delay:?} beyond Δ"
            ),
            SynchronyEvent::LateDelivery { src, dst, latency } => {
                write!(f, "wire {src}→{dst} delivered {latency:?} after send (> Δ)")
            }
            SynchronyEvent::UndeliveredAtShutdown { src, dst, round } => {
                write!(f, "wire {src}→{dst}@{round} still in flight at shutdown")
            }
            SynchronyEvent::DetectorMistake {
                observer,
                suspect,
                round,
            } => write!(
                f,
                "{observer} suspected live {suspect} in {round} (detector mistake)"
            ),
            SynchronyEvent::PendingUnderRs {
                src,
                dst,
                wire_round,
                observed_in,
            } => write!(
                f,
                "{src}→{dst}@{wire_round} arrived pending in {observed_in} under RS"
            ),
        }
    }
}

const STATE_OK: u8 = 0;
const STATE_DEGRADED: u8 = 1;
const STATE_ABORTED: u8 = 2;
const ROUND_UNSET: u32 = u32::MAX;

/// The synchrony watchdog: collects [`SynchronyEvent`]s from the
/// network and the drivers, and — when armed — drives the degradation
/// state machine `Ok → Degraded | Aborted` according to its
/// [`DegradeMode`].
///
/// A disarmed monitor (the `RWS` flavour, which never claimed Δ)
/// still records events for diagnostics but never flags a violation
/// and never transitions.
#[derive(Debug)]
pub struct SynchronyMonitor {
    armed: bool,
    delta: Duration,
    mode: DegradeMode,
    state: AtomicU8,
    degraded_round: AtomicU32,
    violated: AtomicBool,
    events: Mutex<Vec<SynchronyEvent>>,
}

impl SynchronyMonitor {
    /// An armed watchdog claiming delivery bound `delta`, reacting to
    /// violations per `mode`.
    #[must_use]
    pub fn armed(delta: Duration, mode: DegradeMode) -> Arc<Self> {
        Arc::new(SynchronyMonitor {
            armed: true,
            delta,
            mode,
            state: AtomicU8::new(STATE_OK),
            degraded_round: AtomicU32::new(ROUND_UNSET),
            violated: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
        })
    }

    /// A disarmed monitor: records nothing as a violation (used for
    /// `RWS` runs, which claim no delivery bound).
    #[must_use]
    pub fn disarmed() -> Arc<Self> {
        Arc::new(SynchronyMonitor {
            armed: false,
            delta: Duration::MAX,
            mode: DegradeMode::Off,
            state: AtomicU8::new(STATE_OK),
            degraded_round: AtomicU32::new(ROUND_UNSET),
            violated: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Whether this monitor enforces a bound.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The claimed delivery bound Δ (transport-level: includes the
    /// reliable layer's retransmit budget).
    #[must_use]
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// Reports a violation. When armed, marks the run violated and
    /// transitions the state machine per the configured mode; the
    /// event's [`SynchronyEvent::round`] becomes the degradation round
    /// if this event is the first trigger.
    pub fn record(&self, event: SynchronyEvent) {
        let round = event.round();
        self.events.lock().push(event);
        if !self.armed {
            return;
        }
        self.violated.store(true, Ordering::SeqCst);
        match self.mode {
            DegradeMode::Off => {}
            DegradeMode::Rws => {
                if self
                    .state
                    .compare_exchange(STATE_OK, STATE_DEGRADED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.degraded_round.store(round.get(), Ordering::SeqCst);
                }
            }
            DegradeMode::Abort => {
                self.state.store(STATE_ABORTED, Ordering::SeqCst);
            }
        }
    }

    /// Whether any violation has been recorded while armed.
    #[must_use]
    pub fn violated(&self) -> bool {
        self.violated.load(Ordering::SeqCst)
    }

    /// Whether the run has downgraded to `RWS` semantics.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_DEGRADED
    }

    /// Whether the run has been aborted.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_ABORTED
    }

    /// The round from which `RWS` semantics applied, if degraded.
    #[must_use]
    pub fn degraded_at(&self) -> Option<Round> {
        match self.degraded_round.load(Ordering::SeqCst) {
            ROUND_UNSET => None,
            r => Some(Round::new(r)),
        }
    }

    /// Snapshot of everything the watchdog saw.
    #[must_use]
    pub fn report(&self) -> SynchronyReport {
        SynchronyReport {
            events: self.events.lock().clone(),
            violated: self.violated(),
            degraded_at: self.degraded_at(),
            aborted: self.aborted(),
        }
    }
}

/// The watchdog's verdict on one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynchronyReport {
    /// Every violation observed, in arrival order.
    pub events: Vec<SynchronyEvent>,
    /// Whether the claimed bound was violated (armed monitors only).
    pub violated: bool,
    /// The round from which the run executed under `RWS` semantics.
    pub degraded_at: Option<Round>,
    /// Whether the run was aborted.
    pub aborted: bool,
}

impl SynchronyReport {
    /// A violated, un-degraded, un-aborted run: it kept claiming `RS`
    /// while the bound was broken, so it must never be certified.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.violated && self.degraded_at.is_none() && !self.aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn timeout_fd_suspects_silent_process() {
        let board = HeartbeatBoard::new(2, Clock::real());
        let fd = TimeoutFd::new(Arc::clone(&board), Duration::from_millis(20), p(0));
        board.mark(p(1));
        assert_eq!(fd.suspected_for(p(1)), None);
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            fd.suspected_for(p(1)).is_some(),
            "stale heartbeat ⇒ suspected"
        );
        // A fresh beat clears the suspicion (the process was only slow —
        // which the SS bound forbids, but the module is defensive).
        board.mark(p(1));
        assert_eq!(fd.suspected_for(p(1)), None);
    }

    #[test]
    fn silence_is_permanent() {
        let board = HeartbeatBoard::new(2, Clock::real());
        let fd = TimeoutFd::new(Arc::clone(&board), Duration::from_millis(10), p(0));
        board.silence(p(1));
        board.mark(p(1)); // ignored after silence
        std::thread::sleep(Duration::from_millis(5));
        let since = fd
            .suspected_for(p(1))
            .expect("suspected from the announcement on");
        assert!(
            since >= Duration::from_millis(5),
            "the drain runs from it: {since:?}"
        );
    }

    #[test]
    fn observer_does_not_suspect_itself() {
        let board = HeartbeatBoard::new(1, Clock::real());
        let fd = TimeoutFd::new(board, Duration::from_millis(1), p(0));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(fd.suspected_for(p(0)), None);
    }

    #[test]
    fn oracle_notifies_after_delay() {
        let oracle = Oracle::new(
            2,
            Duration::from_millis(30),
            Duration::from_millis(30),
            5,
            Clock::real(),
        );
        let fd = oracle.module(p(1));
        oracle.report_crash(p(0));
        assert_eq!(fd.suspected_for(p(0)), None, "not yet notified");
        std::thread::sleep(Duration::from_millis(60));
        let since = fd.suspected_for(p(0)).expect("notified");
        assert!(
            since >= Duration::from_millis(30),
            "since the notification: {since:?}"
        );
    }

    #[test]
    fn scripted_oracle_uses_exact_delays() {
        // p1's crash: p2 learns immediately, p3 only after 80ms.
        let script = vec![
            vec![Duration::ZERO; 3],
            vec![Duration::ZERO; 3],
            vec![Duration::ZERO; 3],
        ];
        let mut script = script;
        script[0][2] = Duration::from_millis(80);
        let oracle = Oracle::scripted(3, script, Clock::real());
        let fast = oracle.module(p(1));
        let slow = oracle.module(p(2));
        oracle.report_crash(p(0));
        std::thread::sleep(Duration::from_millis(10));
        assert!(fast.suspected_for(p(0)).is_some(), "scripted zero delay");
        assert_eq!(slow.suspected_for(p(0)), None, "scripted 80ms delay");
        std::thread::sleep(Duration::from_millis(100));
        assert!(slow.suspected_for(p(0)).is_some());
    }

    #[test]
    fn oracle_never_suspects_unreported() {
        let oracle = Oracle::new(3, Duration::ZERO, Duration::ZERO, 5, Clock::real());
        let fd = oracle.module(p(0));
        assert!((0..3).all(|i| fd.suspected_for(p(i)).is_none()));
    }

    #[test]
    fn ledger_tracks_ground_truth() {
        let ledger = CrashLedger::new(3);
        assert!(!ledger.crashed(p(1)));
        ledger.mark(p(1));
        assert!(ledger.crashed(p(1)));
        assert!(!ledger.crashed(p(0)) && !ledger.crashed(p(2)));
    }

    #[test]
    fn starved_heartbeat_is_a_detector_mistake_not_a_crash() {
        // A live process stops beating past the timeout: the detector
        // *must* suspect it (that is the SS rule) — and because the
        // ledger says it never crashed, the watchdog must classify the
        // suspicion as a mistake.
        let board = HeartbeatBoard::new(2, Clock::real());
        let fd = TimeoutFd::new(Arc::clone(&board), Duration::from_millis(20), p(0));
        let ledger = CrashLedger::new(2);
        let monitor = SynchronyMonitor::armed(Duration::from_millis(20), DegradeMode::Off);
        board.mark(p(1));
        assert_eq!(fd.suspected_for(p(1)), None, "bound not yet violated");
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            fd.suspected_for(p(1)).is_some(),
            "suspected exactly when the bound is violated"
        );
        assert!(!ledger.crashed(p(1)), "but it never crashed");
        monitor.record(SynchronyEvent::DetectorMistake {
            observer: p(0),
            suspect: p(1),
            round: Round::FIRST,
        });
        let report = monitor.report();
        assert!(report.violated);
        assert!(report.flagged(), "mode off: flagged, not degraded");
        assert!(matches!(
            report.events[0],
            SynchronyEvent::DetectorMistake { suspect, .. } if suspect == p(1)
        ));
    }

    #[test]
    fn monitor_degrades_once_at_the_first_violation_round() {
        let monitor = SynchronyMonitor::armed(Duration::from_millis(50), DegradeMode::Rws);
        assert!(!monitor.degraded());
        monitor.record(SynchronyEvent::SlowWireScheduled {
            src: p(0),
            dst: p(1),
            round: Round::new(2),
            delay: Duration::from_secs(1),
        });
        monitor.record(SynchronyEvent::LateDelivery {
            src: p(0),
            dst: p(1),
            latency: Duration::from_secs(1),
        });
        assert!(monitor.degraded());
        assert!(!monitor.aborted());
        assert_eq!(monitor.degraded_at(), Some(Round::new(2)), "first trigger");
        let report = monitor.report();
        assert_eq!(report.events.len(), 2);
        assert!(!report.flagged(), "degraded runs are not merely flagged");
    }

    #[test]
    fn monitor_aborts_in_abort_mode() {
        let monitor = SynchronyMonitor::armed(Duration::from_millis(50), DegradeMode::Abort);
        monitor.record(SynchronyEvent::UndeliveredAtShutdown {
            src: p(1),
            dst: p(0),
            round: Round::FIRST,
        });
        assert!(monitor.aborted());
        assert!(!monitor.degraded());
        assert!(monitor.report().aborted);
    }

    #[test]
    fn disarmed_monitor_records_but_never_flags() {
        let monitor = SynchronyMonitor::disarmed();
        monitor.record(SynchronyEvent::PendingUnderRs {
            src: p(0),
            dst: p(1),
            wire_round: Round::FIRST,
            observed_in: Round::new(2),
        });
        assert!(!monitor.violated());
        assert!(!monitor.degraded());
        assert_eq!(monitor.report().events.len(), 1, "kept for diagnostics");
    }

    #[test]
    fn events_display() {
        let e = SynchronyEvent::DetectorMistake {
            observer: p(0),
            suspect: p(1),
            round: Round::FIRST,
        };
        assert!(e.to_string().contains("mistake"), "{e}");
        let e = SynchronyEvent::SlowWireScheduled {
            src: p(0),
            dst: p(1),
            round: Round::FIRST,
            delay: SLOW_FOR_DISPLAY,
        };
        assert!(e.to_string().contains("beyond Δ"), "{e}");
        assert_eq!(DegradeMode::Rws.to_string(), "rws");
    }

    const SLOW_FOR_DISPLAY: Duration = Duration::from_millis(600);

    #[test]
    fn suspicion_is_measured_from_the_timeout_and_reset_by_a_frame() {
        let board = HeartbeatBoard::new(2, Clock::real());
        let fd = TimeoutFd::new(Arc::clone(&board), Duration::from_millis(30), p(0));
        board.mark(p(1));
        assert_eq!(fd.suspected_for(p(1)), None);
        std::thread::sleep(Duration::from_millis(60));
        let suspected = fd.suspected_for(p(1)).expect("silent past the timeout");
        assert!(suspected >= Duration::from_millis(30), "{suspected:?}");
        assert_eq!(fd.suspected_for(p(0)), None, "never suspects itself");
        board.mark(p(1));
        assert_eq!(fd.suspected_for(p(1)), None, "suspicion is not sticky");
    }

    #[test]
    fn a_stalled_observer_does_not_age_its_peers() {
        let board = HeartbeatBoard::new(2, Clock::real());
        board.tick();
        board.mark(p(1));
        // No ticks for four slacks: the observer was stopped.
        std::thread::sleep(STALL_SLACK * 4);
        let frozen = board.staleness(p(1));
        assert!(
            frozen <= STALL_SLACK,
            "clock frozen past the last tick: {frozen:?}"
        );
        // The tick excludes all but `STALL_SLACK` of the stall; only
        // the time from this tick to the read may add to it, which the
        // board counts in whole microseconds (up to 1 µs more).
        let before_tick = std::time::Instant::now();
        board.tick();
        let resumed = board.staleness(p(1));
        let tick_to_read = before_tick.elapsed() + Duration::from_micros(1);
        assert!(
            resumed <= STALL_SLACK + tick_to_read,
            "the stall is excluded: {resumed:?} (tick to read {tick_to_read:?})"
        );
        // Running again: ticked time counts in full.
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            board.tick();
        }
        assert!(board.staleness(p(1)) >= resumed + Duration::from_millis(200));
    }
}
